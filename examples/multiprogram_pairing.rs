//! Multi-program pairing (§4.2/§4.3 in miniature): which benchmark makes
//! the best co-runner for the memory-hungry CG on the fully loaded
//! CMT-based SMP (HT on -8-2)?
//!
//! Reproduces the paper's observation that complementary (compute + memory)
//! pairs beat homogeneous pairs.
//!
//! ```sh
//! cargo run --release --example multiprogram_pairing
//! ```

use paxsim_core::prelude::*;
use paxsim_nas::{all_kernels, KernelId};
use paxsim_perfmon::table::Table;

fn main() {
    let opts = StudyOptions::quick(); // class T, quiet, single trial
    let workloads: Vec<(KernelId, KernelId)> = all_kernels()
        .into_iter()
        .map(|co| (KernelId::Cg, co))
        .collect();
    let study = run_multi_program(&opts, &TraceStore::new(), &workloads);

    let mut t = Table::new("CG paired with each co-runner on HT on -8-2").header([
        "Co-runner",
        "CG speedup",
        "co-runner speedup",
        "pair harmonic mean",
    ]);
    let mut best: Option<(KernelId, f64)> = None;
    for &(cg, co) in &workloads {
        let cell = study.cell((cg, co), "CMT-based SMP").unwrap();
        let s_cg = cell.sides[0].cell.speedup.mean;
        let s_co = cell.sides[1].cell.speedup.mean;
        let hmean = 2.0 / (1.0 / s_cg + 1.0 / s_co);
        t.row([
            co.to_string(),
            format!("{s_cg:.2}"),
            format!("{s_co:.2}"),
            format!("{hmean:.2}"),
        ]);
        if best.as_ref().is_none_or(|&(_, b)| hmean > b) {
            best = Some((co, hmean));
        }
    }
    println!("{t}");
    let (winner, hmean) = best.unwrap();
    println!("best co-runner for cg: {winner} (harmonic-mean speedup {hmean:.2})");
}
