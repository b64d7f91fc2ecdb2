//! Section 3 platform calibration: run the LMbench-style probes on the
//! simulator and compare against the numbers the paper measured on the
//! real PowerEdge 2850.

use paxsim_lmbench::{latency_ns, read_bw_gbs, write_bw_gbs};
use paxsim_machine::config::MachineConfig;
use paxsim_machine::topology::Lcpu;

use crate::pool;

/// One Section 3 quantity: what the paper measured, and the probe that
/// measures it on the simulator.
#[derive(Debug, Clone, Copy)]
pub struct Quantity {
    pub name: &'static str,
    pub unit: &'static str,
    /// The paper's value (see DESIGN.md §5 for the reconstruction of
    /// OCR-damaged digits).
    pub paper: f64,
    pub probe: fn(&MachineConfig) -> f64,
}

/// The paper's Section 3 numbers, in report order.
pub const SECTION3: [Quantity; 7] = [
    Quantity {
        name: "L1 latency",
        unit: "ns",
        paper: 1.43,
        probe: |cfg| latency_ns(cfg, 8 * 1024), // fits L1
    },
    Quantity {
        name: "L2 latency",
        unit: "ns",
        paper: 11.4,
        probe: |cfg| latency_ns(cfg, 256 * 1024), // fits L2, misses L1
    },
    Quantity {
        name: "Memory latency",
        unit: "ns",
        paper: 136.85,
        probe: |cfg| latency_ns(cfg, 16 * 1024 * 1024), // misses L2
    },
    Quantity {
        name: "Read BW, 1 chip",
        unit: "GB/s",
        paper: 3.57,
        probe: |cfg| read_bw_gbs(cfg, &[Lcpu::B0]),
    },
    Quantity {
        name: "Write BW, 1 chip",
        unit: "GB/s",
        paper: 1.77,
        probe: |cfg| write_bw_gbs(cfg, &[Lcpu::B0]),
    },
    Quantity {
        name: "Read BW, 2 chips",
        unit: "GB/s",
        paper: 4.43,
        probe: |cfg| read_bw_gbs(cfg, &[Lcpu::B0, Lcpu::B2]),
    },
    Quantity {
        name: "Write BW, 2 chips",
        unit: "GB/s",
        paper: 2.6,
        probe: |cfg| write_bw_gbs(cfg, &[Lcpu::B0, Lcpu::B2]),
    },
];

/// [`SECTION3`] indices, longest probe first (memory latency ≈ 150 ms on
/// one core, then the 2-chip and 1-chip streams; the two cached latencies
/// take a few ms), so the probe that finishes the pool's work is a short one.
const LONGEST_FIRST: [usize; 7] = [2, 6, 5, 4, 3, 1, 0];

/// One calibration check.
#[derive(Debug, Clone)]
pub struct CalibrationRow {
    pub name: &'static str,
    pub unit: &'static str,
    pub paper: f64,
    pub measured: f64,
}

impl CalibrationRow {
    pub fn rel_err(&self) -> f64 {
        (self.measured - self.paper).abs() / self.paper
    }
}

/// Full calibration report.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    pub rows: Vec<CalibrationRow>,
}

impl CalibrationReport {
    /// True when every row is within `tol` relative error.
    pub fn within(&self, tol: f64) -> bool {
        self.rows.iter().all(|r| r.rel_err() <= tol)
    }

    pub fn worst(&self) -> &CalibrationRow {
        self.rows
            .iter()
            .max_by(|a, b| a.rel_err().partial_cmp(&b.rel_err()).unwrap())
            .expect("non-empty report")
    }
}

/// Run all Section 3 probes on the pool and compare against the paper.
/// Each probe is its own simulation of its own trace, so running them
/// concurrently changes no value.
pub fn calibrate(cfg: &MachineConfig) -> CalibrationReport {
    let mut measured = [0.0; SECTION3.len()];
    let results = pool::map(&LONGEST_FIRST, |&i| (SECTION3[i].probe)(cfg));
    for (&i, m) in LONGEST_FIRST.iter().zip(results) {
        measured[i] = m;
    }
    let rows = SECTION3
        .iter()
        .zip(measured)
        .map(|(q, measured)| CalibrationRow {
            name: q.name,
            unit: q.unit,
            paper: q.paper,
            measured,
        })
        .collect();
    CalibrationReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paxville_calibrates_within_15_percent() {
        let report = calibrate(&MachineConfig::paxville_smp());
        assert!(
            report.within(0.15),
            "worst row: {:?} (rel err {:.1}%)",
            report.worst(),
            report.worst().rel_err() * 100.0
        );
    }

    #[test]
    fn detuned_machine_fails_calibration() {
        let mut cfg = MachineConfig::paxville_smp();
        cfg.mem_lat *= 3;
        let report = calibrate(&cfg);
        assert!(
            !report.within(0.15),
            "tripled memory latency must be caught"
        );
    }

    #[test]
    fn rows_cover_all_section3_numbers() {
        let report = calibrate(&MachineConfig::paxville_smp());
        assert_eq!(report.rows.len(), 7);
    }

    /// The pool changes when a probe runs, never what it measures: every
    /// row of a pooled calibration is bit for bit its probe run alone.
    #[test]
    fn pooled_rows_equal_each_probe_run_alone() {
        let cfg = MachineConfig::paxville_smp();
        let report = calibrate(&cfg);
        for (row, q) in report.rows.iter().zip(&SECTION3) {
            assert_eq!((row.name, row.unit, row.paper), (q.name, q.unit, q.paper));
            assert_eq!(
                row.measured.to_bits(),
                (q.probe)(&cfg).to_bits(),
                "{}: pooled {} vs alone",
                row.name,
                row.measured
            );
        }
    }
}
