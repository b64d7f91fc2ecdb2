//! # paxsim-core
//!
//! The experiment layer reproducing Grant & Afsahi, *"A Comprehensive
//! Analysis of OpenMP Applications on Dual-Core Intel Xeon SMPs"*
//! (IPDPS 2007) on the paxsim simulator stack:
//!
//! * [`configs`] — Table 1's eight hardware configurations and the §4
//!   comparison groups;
//! * [`calibrate`] — §3 platform characterization (LMbench probes) against
//!   the paper's measured latencies and bandwidths;
//! * [`single`] — §4.1 single-program study (Figures 2–3, Table 2);
//! * [`multi`] — §4.2 multi-program study (Figure 4);
//! * [`cross`] — §4.3 cross-product pair study (Figure 5);
//! * [`report`] — paper-style text tables/figures and JSON output.
//!
//! ```no_run
//! use paxsim_core::prelude::*;
//!
//! let opts = StudyOptions::paper(paxsim_nas::Class::S);
//! let store = TraceStore::new();
//! let study = run_single_program(&opts, &store);
//! println!("{}", table2_text(&study));
//! println!("{}", headlines_text(&headlines(&study)));
//! ```

pub mod advisor;
pub mod calibrate;
pub mod configs;
pub mod cross;
pub mod efficiency;
pub mod error;
pub mod faultinject;
pub mod hash;
pub mod inflight;
pub mod journal;
pub mod multi;
pub mod phases;
pub mod pool;
pub mod report;
pub mod resilient;
pub mod sentinel;
pub mod single;
pub mod store;
pub mod study;
pub mod tune;

pub mod prelude {
    pub use crate::calibrate::{calibrate, CalibrationReport, SECTION3};
    pub use crate::configs::{
        all_configs, config_by_name, parallel_configs, quad_core_configs, serial, HwConfig,
    };
    pub use crate::cross::{all_pairs, run_cross_product, CrossStudy};
    pub use crate::efficiency::{efficiency, efficiency_text, most_efficient_per_chip};
    pub use crate::error::{StudyError, StudyResult};
    pub use crate::hash::{content_hash, ConfigHash, ResolvedSpec, StudySpec};
    pub use crate::inflight::{Flight, Inflight};
    pub use crate::journal::Journal;
    pub use crate::multi::{paper_workloads, run_multi_program, MultiStudy};
    pub use crate::phases::{phase_profile, phases_text, PhaseProfile};
    pub use crate::pool::CellPolicy;
    pub use crate::report::{
        fig2_text, fig3_text, fig4_text, fig5_text, headlines, headlines_text, platform_text,
        resilience_text, table1_text, table2_text,
    };
    pub use crate::resilient::{
        run_cross_product_resilient, run_multi_program_resilient, run_single_program_resilient,
        Resilience, ResilienceOptions, Resilient,
    };
    pub use crate::sentinel::DriftSentinel;
    pub use crate::single::{run_single_program, run_single_program_on, SingleStudy};
    pub use crate::store::{TraceKey, TraceStore};
    pub use crate::study::{Cell, StudyOptions};
    pub use crate::tune::{
        nan_last_cmp, TuneAlgo, TunePlan, TuneRequest, TuneResult, TuneRound, TuneStats,
    };
}
