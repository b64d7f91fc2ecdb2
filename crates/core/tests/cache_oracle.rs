//! An oracle for the engine's data caches and DTLB that shares none of
//! their code.
//!
//! `differential` holds the fast engine to the reference engine, but both
//! run the same cache model (`cache.rs`, `tlb.rs`): a wrong LRU stamp or
//! set index would be wrong in both. Here a textbook model — one
//! most-recent-first list per set — replays thread 0's decoded memory ops
//! in program order, and the engine's `l1d_miss`, `l2_miss` and DTLB
//! misses must equal its counts exactly. The point is Serial with the
//! prefetcher off, so nothing but demand references touches the caches.
//!
//! What the model encodes about the machine: L1 is write-through and
//! allocates on every miss; the L2 stream is L1's misses plus every store,
//! and a store that hits L1 only updates L2's copy when L2 holds one; the
//! DTLB is one more set-associative LRU, over page numbers.
//!
//! Three L1s per point: the paper's 16 KB 8-way, 8 KB 2-way, and 8 KB
//! fully associative (128 ways in one set; a cache holds at most 255 ways,
//! so 16 KB fully associative, 256 ways, is out of reach).

use paxsim_core::configs::serial;
use paxsim_machine::config::{CacheGeometry, MachineConfig};
use paxsim_machine::op::Op;
use paxsim_machine::sim::{simulate, JobSpec};
use paxsim_nas::{Class, KernelId};
use paxsim_omp::schedule::Schedule;

/// A set-associative LRU cache of keys: one most-recent-first list per
/// set, the set chosen by the key's low bits.
struct Lru {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl Lru {
    fn new(geom: CacheGeometry) -> Self {
        Self {
            sets: vec![Vec::with_capacity(geom.ways); geom.bytes / (geom.ways * geom.line)],
            ways: geom.ways,
        }
    }

    /// Look `key` up, making it most recent on a hit; true on a hit. A
    /// miss inserts it when `allocate`, dropping the set's least recent.
    fn access(&mut self, key: u64, allocate: bool) -> bool {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(key % n) as usize];
        if let Some(i) = set.iter().position(|&k| k == key) {
            set[..=i].rotate_right(1);
            return true;
        }
        if allocate {
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, key);
        }
        false
    }
}

#[derive(Debug, Default, PartialEq, Eq)]
struct Misses {
    l1d: u64,
    l2: u64,
    dtlb: u64,
}

/// Replay thread 0's memory references, region by region, through the
/// textbook hierarchy of `cfg`.
fn model(cfg: &MachineConfig, trace: &paxsim_machine::trace::ProgramTrace) -> Misses {
    let (line, page) = (cfg.l1d.line as u64, cfg.page);
    let mut l1 = Lru::new(cfg.l1d);
    let mut l2 = Lru::new(cfg.l2);
    let mut dtlb = Lru::new(CacheGeometry::new(cfg.dtlb_entries, cfg.tlb_ways, 1));
    let mut m = Misses::default();
    for region in &trace.regions {
        for op in region.threads[0].iter() {
            let (addr, store) = match op {
                Op::Load { addr } | Op::LoadDep { addr } => (addr, false),
                Op::Store { addr } => (addr, true),
                _ => continue,
            };
            if !dtlb.access(addr / page, true) {
                m.dtlb += 1;
            }
            let l = addr / line;
            if l1.access(l, true) {
                if store {
                    l2.access(l, false);
                }
            } else {
                m.l1d += 1;
                if !l2.access(l, true) {
                    m.l2 += 1;
                }
            }
        }
    }
    m
}

/// Every L1 geometry × class T and S for `kernel`: the engine's counts
/// equal the model's.
fn engine_matches_the_model(kernel: KernelId) {
    for class in [Class::T, Class::S] {
        let trace = kernel.build(class, 1, Schedule::Static).trace;
        for l1d in [
            CacheGeometry::new(16 * 1024, 8, 64),
            CacheGeometry::new(8 * 1024, 2, 64),
            CacheGeometry::new(8 * 1024, 128, 64),
        ] {
            let cfg = MachineConfig {
                l1d,
                prefetch: false,
                ..MachineConfig::paxville_smp()
            };
            let out = simulate(
                &cfg,
                vec![JobSpec::pinned(trace.clone(), serial().contexts)],
            );
            let c = &out.jobs[0].counters;
            let engine = Misses {
                l1d: c.l1d_miss,
                l2: c.l2_miss,
                dtlb: c.dtlb_miss_load + c.dtlb_miss_store,
            };
            assert_eq!(
                engine,
                model(&cfg, &trace),
                "{kernel} class {class}, L1 {} B {}-way",
                l1d.bytes,
                l1d.ways
            );
        }
    }
}

#[test]
fn ep() {
    engine_matches_the_model(KernelId::Ep);
}

#[test]
fn is() {
    engine_matches_the_model(KernelId::Is);
}

#[test]
fn cg() {
    engine_matches_the_model(KernelId::Cg);
}

#[test]
fn mg() {
    engine_matches_the_model(KernelId::Mg);
}

#[test]
fn ft() {
    engine_matches_the_model(KernelId::Ft);
}

#[test]
fn lu() {
    engine_matches_the_model(KernelId::Lu);
}

#[test]
fn bt() {
    engine_matches_the_model(KernelId::Bt);
}

#[test]
fn sp() {
    engine_matches_the_model(KernelId::Sp);
}
