//! Machine parameters, with defaults calibrated to the Dell PowerEdge 2850
//! platform of the paper (Section 3): 2 × dual-core 2.8 GHz HT Xeon
//! "Paxville", 12 Kuop trace cache + 16 KB L1D per core, private 2 MB L2 per
//! core, 800 MHz front-side bus per chip, 4 GB dual-channel DDR2.
//!
//! Calibration targets (paper, LMbench):
//! * L1 latency 1.43 ns (≈ 4 cycles at 2.8 GHz)
//! * L2 latency ≈ 11.4 ns (≈ 32 cycles)
//! * main-memory latency 136.85 ns (≈ 383 cycles)
//! * read bandwidth 3.57 GB/s (one chip) / 4.43 GB/s (two chips)
//! * write bandwidth 1.77 GB/s (one chip) / 2.6 GB/s (two chips)

use serde::{Deserialize, Serialize};

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line: usize,
}

impl CacheGeometry {
    pub const fn new(bytes: usize, ways: usize, line: usize) -> Self {
        Self { bytes, ways, line }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.bytes / (self.ways * self.line)
    }

    /// What `SetAssoc::new` would panic on, if anything: the field at
    /// fault and why. Mirrors its asserts.
    pub fn check(&self) -> Result<(), (&'static str, String)> {
        if !(1..=255).contains(&self.ways) {
            return Err(("ways", format!("{} ways, not 1 to 255", self.ways)));
        }
        if !self.line.is_power_of_two() {
            return Err(("line", format!("{}, not a power of two", self.line)));
        }
        let sets = self
            .ways
            .checked_mul(self.line)
            .map_or(0, |way| self.bytes / way);
        if !sets.is_power_of_two() || sets as u64 > 1 << 32 {
            return Err((
                "bytes",
                format!("{sets} sets, not a power of two up to 2^32"),
            ));
        }
        Ok(())
    }
}

/// An optional chip-level shared L3 between the private L2s and the bus
/// (absent on the paper's Paxville Xeons; present on the Broadwell-style
/// hierarchies of the follow-up HPC-benchmark study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L3Config {
    /// Geometry of the shared L3.
    pub geom: CacheGeometry,
    /// L3 hit latency in cycles.
    pub lat: u64,
}

/// Full configuration of the simulated machine. Every latency is in cycles,
/// every service interval is in cycles-per-64-byte-line, all sizes in bytes
/// or entries. Fields are public so ablation studies can perturb them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Core clock in GHz; only used to convert cycles to wall time in reports.
    pub freq_ghz: f64,
    /// Number of physical processor chips.
    pub chips: usize,
    /// Cores per chip.
    pub cores_per_chip: usize,
    /// Hardware SMT contexts per core (2 with Hyper-Threading).
    pub contexts_per_core: usize,

    /// Sustained uop issue width per core (shared between SMT siblings).
    pub issue_width: u64,
    /// Ticks per FP uop through the core's single FP execution unit
    /// (shared between SMT siblings). 10 ticks = 1.2 FP uops/cycle,
    /// Netburst's sustained x87/SSE2 scalar rate.
    pub fp_tpu: u64,
    /// FP scheduler-queue depth in ticks: out-of-order execution lets a
    /// context run ahead of its queued FP work by this much, so short FP
    /// bursts overlap loads/branches; only a sustained FP backlog throttles
    /// the front end.
    pub fp_queue: u64,
    /// Maximum in-flight load misses per context before it must stall
    /// (the effective per-thread miss-level parallelism of the in-order-ish
    /// Netburst memory pipeline; modest, and not doubled when running
    /// solo — the scheduler window, not the fill buffers, is the limit).
    pub mlp: usize,
    /// Extra issue ticks per uop when the SMT sibling is active: the
    /// hard-partitioned uop queue/ROB reduce each core's combined
    /// sustained width below its solo width (12/`smt_tpu` uops per cycle
    /// combined).
    pub smt_tpu: u64,
    /// Write-buffer entries per core (outstanding store misses).
    pub write_buffer: usize,

    /// L1 data cache geometry (16 KB, 8-way, 64 B on Paxville).
    pub l1d: CacheGeometry,
    /// Private per-core L2 geometry (2 MB, 8-way, 64 B).
    pub l2: CacheGeometry,
    /// L1 hit latency in cycles (folded into the pipeline; informational).
    pub l1_lat: u64,
    /// L2 hit latency in cycles.
    pub l2_lat: u64,
    /// Optional chip-shared L3 between the private L2s and the bus.
    /// `None` reproduces the paper's Paxville hierarchy exactly.
    #[serde(default)]
    pub l3: Option<L3Config>,

    /// Trace-cache capacity in uops (12 Kuop on Netburst).
    pub tc_uops: u64,
    /// Decode/refill stall on a trace-cache miss, in cycles (the front end
    /// falls back to fetching and decoding from L2).
    pub tc_refill: u64,

    /// ITLB entries per core (shared by SMT siblings, ASID-tagged).
    pub itlb_entries: usize,
    /// DTLB entries per core.
    pub dtlb_entries: usize,
    /// TLB associativity.
    pub tlb_ways: usize,
    /// Page-walk stall in cycles.
    pub tlb_walk: u64,
    /// Page size in bytes.
    pub page: u64,

    /// log2(entries) of the shared gshare pattern-history table per core.
    pub bp_pht_bits: u32,
    /// Global-history length in bits (per context).
    pub bp_ghr_bits: u32,
    /// Pipeline-flush penalty for a mispredicted branch, in cycles
    /// (Netburst's 31-stage pipeline: ~25 cycles minimum).
    pub bp_penalty: u64,

    /// Fixed front-side-bus transit latency in cycles (request + snoop).
    pub fsb_lat: u64,
    /// FSB occupancy per 64 B read line in cycles (per-chip path limit;
    /// 50 cycles ≈ 3.58 GB/s at 2.8 GHz).
    pub fsb_read_cpl: u64,
    /// FSB occupancy per 64 B written line in cycles. A store stream pays
    /// this *plus* the write-allocate read, so the paper's measured
    /// 1.77 GB/s one-chip write bandwidth corresponds to
    /// `fsb_read_cpl + fsb_write_cpl` ≈ 101 cycles per line.
    pub fsb_write_cpl: u64,

    /// DRAM access latency in cycles beyond the FSB (so that an isolated
    /// read costs `l1_lat + l2_lat + fsb_lat + mem_lat` ≈ 383 cycles).
    pub mem_lat: u64,
    /// Memory-controller occupancy per read line (shared by both chips;
    /// 40 cycles ≈ 4.48 GB/s aggregate).
    pub mem_read_cpl: u64,
    /// Memory-controller occupancy per written line. With the allocate
    /// read included, two-chip write streams see
    /// `mem_read_cpl + mem_write_cpl` ≈ 69 cycles/line ≈ 2.6 GB/s.
    pub mem_write_cpl: u64,

    /// Hardware stream prefetcher enabled?
    pub prefetch: bool,
    /// Stream detectors per core.
    pub pf_streams: usize,
    /// Lines fetched ahead once a stream is established.
    pub pf_degree: usize,
    /// The prefetcher only issues when the FSB backlog is shallower than
    /// this many cycles (speculative traffic yields to demand traffic).
    pub pf_bus_headroom: u64,

    /// Cost of an OpenMP barrier rendezvous after the last thread arrives,
    /// in cycles (flag propagation through the cache hierarchy).
    pub barrier_lat: u64,
    /// Engine scheduling quantum in ticks; smaller values interleave
    /// contexts more finely (more accurate, slower).
    pub quantum: u64,
}

impl MachineConfig {
    /// What the engine's cache and TLB constructors would panic on, if
    /// anything: the field at fault (`l1d.ways`, `page`, …) and why.
    /// Mirrors the asserts of `SetAssoc::new` and `Tlb::new`.
    pub fn check_geometry(&self) -> Result<(), (String, String)> {
        let l3 = self.l3.map(|l3| ("l3.geom", l3.geom));
        for (name, geom) in [("l1d", self.l1d), ("l2", self.l2)].into_iter().chain(l3) {
            geom.check()
                .map_err(|(f, why)| (format!("{name}.{f}"), why))?;
        }
        for (name, entries) in [
            ("itlb_entries", self.itlb_entries),
            ("dtlb_entries", self.dtlb_entries),
        ] {
            // A TLB is a cache of one-byte lines, one per entry.
            let field = |f| if f == "ways" { "tlb_ways" } else { name };
            let geom = CacheGeometry::new(entries, self.tlb_ways, 1);
            geom.check()
                .map_err(|(f, why)| (field(f).to_string(), why))?;
            if !entries.is_multiple_of(self.tlb_ways) {
                let why = format!(
                    "{entries} entries do not divide into {} ways",
                    self.tlb_ways
                );
                return Err((name.to_string(), why));
            }
        }
        if !self.page.is_power_of_two() {
            return Err(("page".into(), format!("{}, not a power of two", self.page)));
        }
        Ok(())
    }

    /// The paper's platform: two dual-core Hyper-Threaded Paxville Xeons.
    pub fn paxville_smp() -> Self {
        Self {
            freq_ghz: 2.8,
            chips: 2,
            cores_per_chip: 2,
            contexts_per_core: 2,
            issue_width: 3,
            fp_tpu: 10,
            smt_tpu: 6,
            fp_queue: 120,
            mlp: 3,
            write_buffer: 8,
            l1d: CacheGeometry::new(16 * 1024, 8, 64),
            l2: CacheGeometry::new(2 * 1024 * 1024, 8, 64),
            l1_lat: 4,
            l2_lat: 28,
            l3: None,
            tc_uops: 12 * 1024,
            tc_refill: 24,
            itlb_entries: 64,
            dtlb_entries: 64,
            tlb_ways: 4,
            tlb_walk: 30,
            page: 4096,
            bp_pht_bits: 14,
            bp_ghr_bits: 12,
            bp_penalty: 25,
            fsb_lat: 64,
            fsb_read_cpl: 50,
            fsb_write_cpl: 51,
            mem_lat: 287,
            mem_read_cpl: 40,
            mem_write_cpl: 29,
            prefetch: true,
            pf_streams: 4,
            pf_degree: 8,
            pf_bus_headroom: 420,
            barrier_lat: 600,
            quantum: 8 * crate::TPC,
        }
    }

    /// A quad-core variant: one chip, four Hyper-Threaded Paxville-class
    /// cores behind a single front-side bus — same core microarchitecture,
    /// different topology, no engine edits required.
    pub fn quad_core_smp() -> Self {
        Self {
            chips: 1,
            cores_per_chip: 4,
            ..Self::paxville_smp()
        }
    }

    /// A Broadwell-style hierarchy: one chip, four cores, small private
    /// 256 KB L2s backed by a shared 8 MB L3 — the deeper L2/L3 shape the
    /// follow-up HPC-benchmark study models (PAPERS.md).
    pub fn broadwell_l3() -> Self {
        Self {
            chips: 1,
            cores_per_chip: 4,
            l2: CacheGeometry::new(256 * 1024, 8, 64),
            l3: Some(L3Config {
                geom: CacheGeometry::new(8 * 1024 * 1024, 16, 64),
                lat: 50,
            }),
            ..Self::paxville_smp()
        }
    }

    /// Total logical CPUs (hardware contexts) in the machine.
    pub fn logical_cpus(&self) -> usize {
        self.chips * self.cores_per_chip * self.contexts_per_core
    }

    /// Total cores in the machine.
    pub fn cores(&self) -> usize {
        self.chips * self.cores_per_chip
    }

    /// Isolated main-memory read latency in cycles (L1 + L2 lookups plus the
    /// bus round trip) — the quantity LMbench's pointer chase measures.
    pub fn memory_latency_cycles(&self) -> u64 {
        self.l1_lat + self.l2_lat + self.fsb_lat + self.mem_lat
    }

    /// Convert a cycle count to nanoseconds at the configured clock.
    pub fn cycles_to_ns(&self, c: f64) -> f64 {
        c / self.freq_ghz
    }

    /// Peak read bandwidth of a single chip in GB/s implied by the FSB
    /// service interval.
    pub fn chip_read_bw_gbs(&self) -> f64 {
        64.0 * self.freq_ghz / self.fsb_read_cpl as f64
    }

    /// Peak aggregate read bandwidth (both chips) in GB/s implied by the
    /// memory-controller service interval.
    pub fn aggregate_read_bw_gbs(&self) -> f64 {
        64.0 * self.freq_ghz / self.mem_read_cpl as f64
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paxville_smp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_checked_geometry_is_exactly_one_the_constructors_accept() {
        use crate::cache::SetAssoc;
        use crate::tlb::Tlb;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let builds = |f: &dyn Fn()| catch_unwind(AssertUnwindSafe(f)).is_ok();
        for bytes in [0, 32, 1000, 4096, 16 * 1024, 24 * 1024] {
            for ways in [0, 1, 2, 3, 8, 128, 255, 256] {
                for line in [0, 1, 48, 64] {
                    let geom = CacheGeometry::new(bytes, ways, line);
                    let ok = builds(&|| drop(SetAssoc::new(geom)));
                    assert_eq!(geom.check().is_ok(), ok, "{geom:?}");
                }
            }
        }
        for (entries, ways, page) in [
            (64, 4, 4096),
            (64, 0, 4096),
            (60, 4, 4096),
            (0, 4, 4096),
            (64, 4, 4097),
        ] {
            let cfg = MachineConfig {
                dtlb_entries: entries,
                tlb_ways: ways,
                page,
                ..MachineConfig::paxville_smp()
            };
            let ok = builds(&|| drop(Tlb::new(entries, ways, page)));
            assert_eq!(
                cfg.check_geometry().is_ok(),
                ok,
                "{entries} entries, {ways} ways, page {page}"
            );
        }
    }

    #[test]
    fn paxville_topology() {
        let c = MachineConfig::paxville_smp();
        assert_eq!(c.logical_cpus(), 8);
        assert_eq!(c.cores(), 4);
        assert_eq!(c.l1d.sets(), 32);
        assert_eq!(c.l2.sets(), 4096);
    }

    #[test]
    fn calibration_targets_match_paper() {
        let c = MachineConfig::paxville_smp();
        // L1 ≈ 1.43 ns
        let l1_ns = c.cycles_to_ns(c.l1_lat as f64);
        assert!((l1_ns - 1.43).abs() < 0.01, "L1 latency {l1_ns} ns");
        // memory ≈ 136.85 ns
        let mem_ns = c.cycles_to_ns(c.memory_latency_cycles() as f64);
        assert!((mem_ns - 136.85).abs() < 2.0, "memory latency {mem_ns} ns");
        // one-chip read BW ≈ 3.57 GB/s, two-chip ≈ 4.43 GB/s
        assert!((c.chip_read_bw_gbs() - 3.57).abs() < 0.05);
        assert!((c.aggregate_read_bw_gbs() - 4.43).abs() < 0.06);
    }

    #[test]
    fn geometry_sets() {
        let g = CacheGeometry::new(16 * 1024, 8, 64);
        assert_eq!(g.sets(), 32);
        let g = CacheGeometry::new(2 * 1024 * 1024, 8, 64);
        assert_eq!(g.sets(), 4096);
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = MachineConfig::paxville_smp();
        let s = serde_json::to_string(&c).unwrap();
        let d: MachineConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
    }

    #[test]
    fn dual_core_xeon_topology_roundtrips_unchanged() {
        // The paper's topology must survive serialization exactly,
        // including the derived Topology description.
        let c = MachineConfig::paxville_smp();
        let s = serde_json::to_string(&c).unwrap();
        let d: MachineConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(c, d);
        let t = crate::topology::Topology::of(&c);
        assert_eq!(t, crate::topology::Topology::of(&d));
        let ts = serde_json::to_string(&t).unwrap();
        assert_eq!(t, serde_json::from_str(&ts).unwrap());
    }

    #[test]
    fn l3_field_defaults_to_absent_for_old_configs() {
        // Configs serialized before the l3 field existed still load.
        let mut v = serde::Serialize::to_value(&MachineConfig::paxville_smp());
        if let serde::Value::Object(m) = &mut v {
            m.retain(|(k, _)| k != "l3");
        }
        let d: MachineConfig = serde_json::from_value(&v).unwrap();
        assert_eq!(d.l3, None);
        assert_eq!(d, MachineConfig::paxville_smp());
    }

    #[test]
    fn alternate_topologies() {
        let q = MachineConfig::quad_core_smp();
        assert_eq!(q.chips, 1);
        assert_eq!(q.cores(), 4);
        assert_eq!(q.logical_cpus(), 8);
        assert_eq!(q.l3, None);
        let b = MachineConfig::broadwell_l3();
        assert_eq!(b.cores(), 4);
        let l3 = b.l3.unwrap();
        assert_eq!(l3.geom.sets(), 8192);
        assert!(b.l2.bytes < MachineConfig::paxville_smp().l2.bytes);
    }
}
