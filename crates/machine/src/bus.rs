//! The front-side buses (one per chip) and the shared dual-channel memory
//! controller.
//!
//! Both are modeled as single-server queues with kind-dependent service
//! intervals (cycles per 64 B line), which reproduces the paper's measured
//! asymmetries: a single chip's path tops out at 3.57 GB/s reads /
//! 1.77 GB/s writes, while two chips together are limited by the memory
//! controller to ≈ 4.43 GB/s reads / 2.6 GB/s writes.

use crate::config::MachineConfig;
use crate::cycles;

/// Kind of bus transaction, for accounting and service-time selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// Demand line read (load/store-allocate/TC refill miss).
    DemandRead,
    /// Dirty line writeback.
    Write,
    /// Speculative prefetch read.
    Prefetch,
}

/// One chip's front-side bus: a FIFO server.
#[derive(Debug, Clone, Default)]
pub struct Fsb {
    /// Tick at which the bus finishes its last accepted transaction.
    pub next_free: u64,
}

impl Fsb {
    /// Current backlog (ticks of queued work) as seen at `now`.
    pub fn backlog(&self, now: u64) -> u64 {
        self.next_free.saturating_sub(now)
    }
}

/// The machine-wide memory controller: a FIFO server shared by both chips.
#[derive(Debug, Clone, Default)]
pub struct MemCtl {
    pub next_free: u64,
}

/// Issue one bus transaction at tick `now` through chip bus `fsb` and the
/// shared controller `mem`. Returns the tick at which the data is available
/// to the requester (for writes, the tick the transaction is accepted —
/// nothing waits on writeback completion).
pub fn transact(
    cfg: &MachineConfig,
    fsb: &mut Fsb,
    mem: &mut MemCtl,
    now: u64,
    kind: BusKind,
) -> u64 {
    let (fsb_cpl, mem_cpl) = match kind {
        BusKind::DemandRead | BusKind::Prefetch => (cfg.fsb_read_cpl, cfg.mem_read_cpl),
        BusKind::Write => (cfg.fsb_write_cpl, cfg.mem_write_cpl),
    };
    // Occupy the FSB.
    let t0 = now.max(fsb.next_free);
    fsb.next_free = t0 + cycles(fsb_cpl);
    // Request reaches the controller after the bus transit latency, then
    // occupies a controller slot.
    let t1 = (t0 + cycles(cfg.fsb_lat)).max(mem.next_free);
    mem.next_free = t1 + cycles(mem_cpl);
    match kind {
        BusKind::Write => t0 + cycles(fsb_cpl),
        _ => t1 + cycles(cfg.mem_lat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_cycles;

    fn cfg() -> MachineConfig {
        MachineConfig::paxville_smp()
    }

    #[test]
    fn isolated_read_latency_matches_config() {
        let c = cfg();
        let mut fsb = Fsb::default();
        let mut mem = MemCtl::default();
        let done = transact(&c, &mut fsb, &mut mem, 0, BusKind::DemandRead);
        assert_eq!(to_cycles(done), c.fsb_lat + c.mem_lat);
    }

    #[test]
    fn back_to_back_reads_rate_limited_by_fsb() {
        let c = cfg();
        let mut fsb = Fsb::default();
        let mut mem = MemCtl::default();
        let n = 1000u64;
        let mut last = 0;
        for _ in 0..n {
            last = transact(&c, &mut fsb, &mut mem, 0, BusKind::DemandRead);
        }
        // Steady-state spacing = fsb_read_cpl cycles/line → one chip's
        // bandwidth ≈ 3.57 GB/s.
        let cycles_total = to_cycles(last) as f64;
        let per_line = cycles_total / n as f64;
        assert!(
            (per_line - c.fsb_read_cpl as f64).abs() < 2.0,
            "per-line {per_line} vs {}",
            c.fsb_read_cpl
        );
    }

    #[test]
    fn two_chips_limited_by_memory_controller() {
        let c = cfg();
        let mut fsb0 = Fsb::default();
        let mut fsb1 = Fsb::default();
        let mut mem = MemCtl::default();
        let n = 1000u64;
        let mut last = 0u64;
        for _ in 0..n {
            last = last.max(transact(&c, &mut fsb0, &mut mem, 0, BusKind::DemandRead));
            last = last.max(transact(&c, &mut fsb1, &mut mem, 0, BusKind::DemandRead));
        }
        let per_line = to_cycles(last) as f64 / (2 * n) as f64;
        // Aggregate limited by mem_read_cpl (40) not 2× fsb (25).
        assert!(
            (per_line - c.mem_read_cpl as f64).abs() < 2.0,
            "per-line {per_line} vs {}",
            c.mem_read_cpl
        );
    }

    #[test]
    fn writes_slower_than_reads() {
        let c = cfg();
        let mut fsb = Fsb::default();
        let mut mem = MemCtl::default();
        let n = 500;
        for _ in 0..n {
            transact(&c, &mut fsb, &mut mem, 0, BusKind::Write);
        }
        let w_done = fsb.next_free;
        let mut fsb2 = Fsb::default();
        let mut mem2 = MemCtl::default();
        for _ in 0..n {
            transact(&c, &mut fsb2, &mut mem2, 0, BusKind::DemandRead);
        }
        assert!(w_done > fsb2.next_free, "write stream must be slower");
    }

    #[test]
    fn backlog_tracks_queue() {
        let c = cfg();
        let mut fsb = Fsb::default();
        let mut mem = MemCtl::default();
        assert_eq!(fsb.backlog(0), 0);
        transact(&c, &mut fsb, &mut mem, 0, BusKind::DemandRead);
        assert_eq!(fsb.backlog(0), cycles(c.fsb_read_cpl));
        assert_eq!(fsb.backlog(u64::MAX), 0);
    }

    #[test]
    fn queueing_delays_later_requests() {
        let c = cfg();
        let mut fsb = Fsb::default();
        let mut mem = MemCtl::default();
        let first = transact(&c, &mut fsb, &mut mem, 0, BusKind::DemandRead);
        let second = transact(&c, &mut fsb, &mut mem, 0, BusKind::DemandRead);
        assert!(second > first);
        assert_eq!(second - first, cycles(c.fsb_read_cpl));
    }
}
