//! # paxsim-predict
//!
//! The analytical prediction tier: microsecond answers to "what would
//! configuration X do?" with declared — and continuously *measured* —
//! error bounds, sitting on top of the exact cycle engine and the serve
//! result cache.
//!
//! Two halves (PPT-Multicore-shaped, see PAPERS.md):
//!
//! * [`profile`] — one-pass **reuse-profile extraction** over the packed,
//!   interned traces of `machine::trace`: per interned region, an exact
//!   LRU stack-distance histogram (Olken's algorithm, power-of-two
//!   bucketed), the op mix (memory / FP / branch / uops), a stride
//!   classification and a cross-thread sharing summary, each interned
//!   region profiled once; a [`ProfileCache`] keeps profiles across
//!   programs.
//! * [`model`] — the **analytical machine model**: each thread's reuse
//!   CDF is mapped through the configured hierarchy (L1D/L2, optional
//!   shared L3; SMT co-residency halves a sibling's effective capacity
//!   and issue width) and composed with the calibrated latency/bandwidth
//!   constants of [`MachineConfig`](paxsim_machine::config::MachineConfig)
//!   into predicted miss rates, CPI, stall fraction and wall-clock
//!   cycles — a [`Predicted`] outcome carrying [`ErrorBounds`].
//!
//! The serve daemon exposes this tier behind the request `fidelity`
//! field; `core::sentinel`'s prediction auditor reruns a deterministic
//! sample of predictions on the cycle engine and quarantines any
//! (kernel, config, class) whose measured error exceeds the declared
//! bound (DESIGN.md §15).

pub mod model;
pub mod profile;

pub use model::{predict_program, predict_program_with, ErrorBounds, ModelParams, Predicted};
pub use profile::{
    profile_buf, profile_ops, profile_program, profile_region, ProfileCache, ProgramProfile,
    RegionProfile, ThreadProfile, REUSE_BUCKETS,
};
