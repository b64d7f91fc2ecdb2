//! Property tests for reuse-profile extraction (DESIGN.md §15):
//!
//! * **Determinism** — profiling the same region twice yields
//!   structurally identical profiles.
//! * **Mass conservation** — every memory reference lands in exactly one
//!   reuse-distance bucket or the cold-miss count:
//!   `cold + Σ hist == mem_ops`, per thread, per region, across all
//!   Table 1 configurations.
//! * **Interned == unpacked** — profiling through the interned-region
//!   program path (each unique region once, weighted by execution count)
//!   agrees exactly with profiling the unpacked region stream in
//!   execution order, and decoding a packed buffer in place agrees with
//!   profiling a materialized op vector.

use std::sync::OnceLock;

use paxsim_core::configs::all_configs;
use paxsim_core::hash::StudySpec;
use paxsim_core::store::{TraceKey, TraceStore};
use paxsim_predict::{profile_buf, profile_ops, profile_program, profile_region, ProfileCache};
use proptest::prelude::*;

const KERNELS: [&str; 8] = ["ep", "is", "cg", "mg", "ft", "bt", "sp", "lu"];
const LINE: u64 = 64;

fn store() -> &'static TraceStore {
    static S: OnceLock<TraceStore> = OnceLock::new();
    S.get_or_init(TraceStore::new)
}

fn trace_for(kernel: &str, config: &str) -> std::sync::Arc<paxsim_machine::trace::ProgramTrace> {
    let resolved = StudySpec::new(kernel, config)
        .resolve()
        .expect("grid spec resolves");
    store()
        .try_get(TraceKey {
            kernel: resolved.kernel,
            class: resolved.class,
            nthreads: resolved.config.threads,
            schedule: resolved.schedule,
        })
        .expect("trace builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Determinism + mass conservation over the (kernel × Table 1
    /// config) grid: two extractions of every region are equal, and each thread's histogram mass equals its memory-op
    /// count.
    #[test]
    fn extraction_is_deterministic_and_conserves_mass(k in 0usize..KERNELS.len(), c in 0usize..64) {
        let configs = all_configs();
        let config = &configs[c % configs.len()];
        let trace = trace_for(KERNELS[k], &config.name);
        for region in &trace.regions {
            let a = profile_region(region, LINE);
            let b = profile_region(region, LINE);
            prop_assert_eq!(&a, &b, "extraction must be deterministic");
            for t in &a.threads {
                prop_assert_eq!(
                    t.histogram_mass(),
                    t.mem_ops,
                    "cold + histogram mass must equal the memory-op count \
                     ({} {} region `{}`)",
                    KERNELS[k],
                    config.name,
                    a.label
                );
            }
        }
    }

    /// The interned program path (unique regions × execution counts)
    /// agrees exactly with the unpacked execution-order stream, and the
    /// packed-buffer decoder agrees with a materialized op vector.
    #[test]
    fn interned_extraction_equals_unpacked_stream(k in 0usize..KERNELS.len(), c in 0usize..64) {
        let configs = all_configs();
        let config = &configs[c % configs.len()];
        let trace = trace_for(KERNELS[k], &config.name);
        let interned = profile_program(&trace, LINE);

        // Unpacked: walk every region execution in order, no interning.
        let mut mem_ops = 0u64;
        let mut uops = 0u64;
        let mut cold = 0u64;
        let mut hist_mass = 0u64;
        for region in &trace.regions {
            let p = profile_region(region, LINE);
            for t in &p.threads {
                mem_ops += t.mem_ops;
                uops += t.uops;
                cold += t.cold;
                hist_mass += t.hist.iter().sum::<u64>();
            }
        }
        prop_assert_eq!(interned.mem_ops(), mem_ops);
        prop_assert_eq!(interned.uops(), uops);
        prop_assert_eq!(interned.region_executions(), trace.regions.len() as u64);
        // Conservation holds for the aggregate too.
        prop_assert_eq!(cold + hist_mass, mem_ops);
        // Weighted per-region totals agree with the interned entries.
        let interned_cold: u64 = interned
            .regions
            .iter()
            .map(|(r, n)| n * r.threads.iter().map(|t| t.cold).sum::<u64>())
            .sum();
        prop_assert_eq!(interned_cold, cold);

        // Packed in-place decode == materialized op vector, per buffer.
        for region in &trace.regions {
            for buf in &region.threads {
                let packed = profile_buf(buf, LINE);
                let ops: Vec<_> = buf.iter().collect();
                let unpacked = profile_ops(ops, LINE);
                prop_assert_eq!(&packed, &unpacked, "packed decode must match unpacked ops");
            }
        }
    }
}

/// A `ProfileCache` is keyed by region address, so it must keep the
/// region alive: drop a store whose regions are all cached, rebuild the
/// same kernels (in another order, so allocations land on recycled
/// addresses), and every cached answer must still equal a fresh
/// extraction of the region it was asked about.
#[test]
fn cached_profiles_survive_a_dropped_and_rebuilt_store() {
    let configs = all_configs();
    let mut keys: Vec<TraceKey> = Vec::new();
    for kernel in ["cg", "is", "mg"] {
        for config in configs.iter().take(4) {
            let r = StudySpec::new(kernel, &config.name)
                .resolve()
                .expect("grid spec resolves");
            keys.push(TraceKey {
                kernel: r.kernel,
                class: r.class,
                nthreads: r.config.threads,
                schedule: r.schedule,
            });
        }
    }
    let cache = ProfileCache::default();
    for round in 0..3 {
        let store = TraceStore::new();
        for key in &keys {
            let trace = store.try_get(*key).expect("trace builds");
            for region in &trace.regions {
                assert_eq!(
                    *cache.region(region, LINE),
                    profile_region(region, LINE),
                    "round {round}: stale profile for `{}`",
                    region.label
                );
            }
        }
        keys.reverse();
    }
}
