//! # paxsim-lmbench
//!
//! LMbench-style probes executed *on the simulator*, used to calibrate and
//! verify the memory model against the platform numbers the paper reports
//! in Section 3 (measured with the real LMbench on the PowerEdge 2850):
//!
//! * `lat_mem_rd` — dependent-load pointer chase: L1 ≈ 1.43 ns,
//!   L2 ≈ 11.4 ns, main memory ≈ 136.85 ns;
//! * `bw_mem rd` — streaming read bandwidth: 3.57 GB/s (one chip),
//!   4.43 GB/s (both chips);
//! * `bw_mem wr` — streaming write bandwidth: 1.77 GB/s (one chip),
//!   2.6 GB/s (both chips).

use std::sync::Arc;

use paxsim_machine::prelude::*;

/// Deterministic cyclic random permutation of `n` slots (a single cycle,
/// so a pointer chase visits every slot exactly once per pass). Sattolo's
/// algorithm with an xorshift generator.
pub fn chase_permutation(n: usize, seed: u64) -> Vec<u32> {
    assert!(n >= 2);
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut x = seed | 1;
    let mut rng = move |bound: usize| -> usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as usize
    };
    // Sattolo: single-cycle permutation.
    for i in (1..n).rev() {
        let j = rng(i);
        order.swap(i, j);
    }
    // next[order[k]] = order[k+1] closes into one cycle.
    let mut next = vec![0u32; n];
    for k in 0..n {
        next[order[k] as usize] = order[(k + 1) % n];
    }
    next
}

fn chase_trace(buffer_bytes: usize, passes: usize) -> TraceBuf {
    let lines = (buffer_bytes / 64).max(2);
    let next = chase_permutation(lines, 0x9e3779b9);
    let base = 0x4000_0000u64;
    let mut t = TraceBuf::new();
    let mut cur = 0u32;
    for _ in 0..passes {
        for _ in 0..lines {
            t.load_dep(base + cur as u64 * 64);
            cur = next[cur as usize];
        }
    }
    t
}

fn run_single(cfg: &MachineConfig, buf: TraceBuf) -> u64 {
    let prog = Arc::new(ProgramTrace::single_region("lmbench", vec![buf]));
    simulate(cfg, vec![JobSpec::pinned(prog, vec![Lcpu::A0])]).wall_cycles
}

/// `lat_mem_rd`: average dependent-load latency (ns) for a working set of
/// `buffer_bytes`, cold misses excluded (differential measurement between
/// a 1-pass and an N-pass chase).
pub fn latency_ns(cfg: &MachineConfig, buffer_bytes: usize) -> f64 {
    let lines = (buffer_bytes / 64).max(2);
    let warm_passes = 5;
    let one = run_single(cfg, chase_trace(buffer_bytes, 1));
    let many = run_single(cfg, chase_trace(buffer_bytes, warm_passes));
    let cycles_per_load = (many - one) as f64 / ((warm_passes - 1) * lines) as f64;
    cfg.cycles_to_ns(cycles_per_load)
}

/// Latency sweep over working-set sizes, like lat_mem_rd's output curve.
pub fn latency_sweep(cfg: &MachineConfig, sizes: &[usize]) -> Vec<(usize, f64)> {
    sizes.iter().map(|&s| (s, latency_ns(cfg, s))).collect()
}

const STREAM_LINES: usize = 48 * 1024; // 3 MiB per stream: beyond L2 reach
const STREAM_PASSES: usize = 4; // steady state: every line misses / dirty-evicts

/// Stream `ji`'s trace: every word of its own buffer, read or written.
fn stream_trace(ji: usize, write: bool) -> TraceBuf {
    let base = 0x4000_0000u64 + ji as u64 * 0x1000_0000;
    let mut t = TraceBuf::new();
    for _ in 0..STREAM_PASSES {
        for i in 0..STREAM_LINES as u64 {
            for w in 0..8u64 {
                if write {
                    t.store(base + i * 64 + w * 8);
                } else {
                    t.load(base + i * 64 + w * 8);
                }
            }
        }
    }
    t
}

/// Streaming bandwidth in GB/s over `contexts` (one independent stream per
/// context, distinct buffers), reading (`write = false`) or writing every
/// word of a buffer much larger than L2.
pub fn stream_bw_gbs(cfg: &MachineConfig, contexts: &[Lcpu], write: bool) -> f64 {
    assert!(!contexts.is_empty());
    let jobs: Vec<JobSpec> = contexts
        .iter()
        .enumerate()
        .map(|(ji, &l)| {
            let t = stream_trace(ji, write);
            let prog = Arc::new(ProgramTrace::single_region(format!("bw{ji}"), vec![t]));
            JobSpec::pinned(prog, vec![l])
        })
        .collect();
    let out = simulate(cfg, jobs);
    let bytes = (STREAM_PASSES * contexts.len() * STREAM_LINES * 64) as f64;
    let seconds = out.wall_cycles as f64 / (cfg.freq_ghz * 1e9);
    bytes / seconds / 1e9
}

/// Read bandwidth with one stream per listed context.
pub fn read_bw_gbs(cfg: &MachineConfig, contexts: &[Lcpu]) -> f64 {
    stream_bw_gbs(cfg, contexts, false)
}

/// Write bandwidth with one stream per listed context.
pub fn write_bw_gbs(cfg: &MachineConfig, contexts: &[Lcpu]) -> f64 {
    stream_bw_gbs(cfg, contexts, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::paxville_smp()
    }

    #[test]
    fn permutation_is_single_cycle() {
        for n in [2usize, 3, 64, 1000] {
            let next = chase_permutation(n, 42);
            let mut seen = vec![false; n];
            let mut cur = 0usize;
            for _ in 0..n {
                assert!(!seen[cur], "n={n}: revisited before full cycle");
                seen[cur] = true;
                cur = next[cur] as usize;
            }
            assert_eq!(cur, 0, "n={n}: must return to start");
        }
    }

    #[test]
    fn probe_traces_take_one_word_an_op() {
        // No probe address leaves its buffer's base window: calibration
        // replays only the one-word form.
        for t in [
            chase_trace(16 * 1024 * 1024, 1),
            stream_trace(1, false),
            stream_trace(1, true),
        ] {
            assert_eq!(t.packed_bytes(), 4 * t.len());
        }
    }

    #[test]
    fn l1_latency_matches_paper() {
        let ns = latency_ns(&cfg(), 8 * 1024);
        assert!((ns - 1.43).abs() < 0.2, "L1 latency {ns} ns vs paper 1.43");
    }

    #[test]
    fn l2_latency_matches_paper() {
        let ns = latency_ns(&cfg(), 256 * 1024);
        assert!((ns - 11.4).abs() < 1.5, "L2 latency {ns} ns vs paper ≈11.4");
    }

    #[test]
    fn memory_latency_matches_paper() {
        let ns = latency_ns(&cfg(), 16 * 1024 * 1024);
        assert!(
            (ns - 136.85).abs() < 10.0,
            "memory latency {ns} ns vs paper 136.85"
        );
    }

    #[test]
    fn latency_curve_is_monotone_in_working_set() {
        let c = cfg();
        let sweep = latency_sweep(&c, &[4 * 1024, 64 * 1024, 1024 * 1024, 8 * 1024 * 1024]);
        for w in sweep.windows(2) {
            assert!(
                w[1].1 >= w[0].1 * 0.95,
                "latency should not decrease with working set: {sweep:?}"
            );
        }
    }

    #[test]
    fn one_chip_read_bw_matches_paper() {
        let bw = read_bw_gbs(&cfg(), &[Lcpu::B0]);
        assert!((bw - 3.57).abs() < 0.4, "read BW {bw} GB/s vs paper 3.57");
    }

    #[test]
    fn two_chip_read_bw_matches_paper() {
        let bw = read_bw_gbs(&cfg(), &[Lcpu::B0, Lcpu::B2]);
        assert!((bw - 4.43).abs() < 0.5, "read BW {bw} GB/s vs paper 4.43");
    }

    #[test]
    fn write_bw_matches_paper() {
        let c = cfg();
        let one = write_bw_gbs(&c, &[Lcpu::B0]);
        let two = write_bw_gbs(&c, &[Lcpu::B0, Lcpu::B2]);
        assert!((one - 1.77).abs() < 0.3, "1-chip write BW {one} vs 1.77");
        assert!((two - 2.6).abs() < 0.4, "2-chip write BW {two} vs 2.6");
    }

    #[test]
    fn two_streams_on_one_chip_share_its_bus() {
        let c = cfg();
        let same_chip = read_bw_gbs(&c, &[Lcpu::B0, Lcpu::B1]);
        let two_chips = read_bw_gbs(&c, &[Lcpu::B0, Lcpu::B2]);
        assert!(
            two_chips > same_chip * 1.1,
            "spreading across chips must add bandwidth: {same_chip} vs {two_chips}"
        );
    }
}
