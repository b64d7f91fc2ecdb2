//! Typed errors for the sweep path.
//!
//! A long multi-trial study (the paper's 8 configs × 6 apps × 10 trials,
//! plus the §4.3 cross-product) must survive a single bad cell: a trace
//! build that fails verification, a cell that panics, a journal record
//! that was truncated mid-write. Every failure mode the sweep
//! machinery can isolate is a [`StudyError`] variant, so drivers report
//! *which* cell failed and *why* instead of abandoning the whole study
//! with an opaque panic.

use std::fmt;

/// Result alias for the sweep path.
pub type StudyResult<T> = Result<T, StudyError>;

/// Everything that can go wrong with one cell of a study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyError {
    /// A trace build failed (kernel verification or an injected fault)
    /// after the store's bounded retry budget was exhausted.
    BuildFailed {
        kernel: String,
        class: String,
        nthreads: usize,
        attempts: u32,
        reason: String,
    },
    /// A sweep cell panicked (payload captured from the unwind).
    CellPanicked { index: usize, payload: String },
    /// A sweep cell finished but blew past its watchdog deadline.
    CellTimedOut {
        index: usize,
        elapsed_ms: u64,
        deadline_ms: u64,
    },
    /// Journal file I/O failed (`op` names the failing operation).
    JournalIo {
        path: String,
        op: &'static str,
        detail: String,
    },
    /// A journal record failed its CRC or did not parse.
    JournalCorrupt {
        path: String,
        line: usize,
        reason: String,
    },
    /// A simulation request named something that does not exist or is out
    /// of range (`field` says which part). The serve daemon maps this to
    /// a `bad-request` wire error; it must never panic on client input.
    BadSpec { field: String, detail: String },
    /// A value failed to serialize for a report or a cache/wire payload.
    Serialize { what: String, detail: String },
}

impl StudyError {
    /// Is retrying this cell worth it? Panics may be transient (an
    /// injected fault, a resource blip); a build that already exhausted
    /// the store's retry budget, a deadline overrun, or corrupt input
    /// will fail the same way again.
    pub fn transient(&self) -> bool {
        matches!(self, StudyError::CellPanicked { .. })
    }
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::BuildFailed {
                kernel,
                class,
                nthreads,
                attempts,
                reason,
            } => write!(
                f,
                "trace build failed: {kernel} class {class} with {nthreads} threads \
                 ({attempts} attempts): {reason}"
            ),
            StudyError::CellPanicked { index, payload } => {
                write!(f, "cell {index} panicked: {payload}")
            }
            StudyError::CellTimedOut {
                index,
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "cell {index} exceeded its watchdog deadline: {elapsed_ms} ms > {deadline_ms} ms"
            ),
            StudyError::JournalIo { path, op, detail } => {
                write!(f, "journal {op} failed for {path}: {detail}")
            }
            StudyError::JournalCorrupt { path, line, reason } => {
                write!(f, "journal {path} line {line} corrupt: {reason}")
            }
            StudyError::BadSpec { field, detail } => {
                write!(f, "bad request spec: {field}: {detail}")
            }
            StudyError::Serialize { what, detail } => {
                write!(f, "serializing {what} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for StudyError {}

/// Render a panic payload (from `catch_unwind`) as a string.
pub fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cell() {
        let e = StudyError::CellPanicked {
            index: 7,
            payload: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("cell 7"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn only_panics_are_transient() {
        assert!(StudyError::CellPanicked {
            index: 0,
            payload: String::new()
        }
        .transient());
        assert!(!StudyError::CellTimedOut {
            index: 0,
            elapsed_ms: 10,
            deadline_ms: 1
        }
        .transient());
        assert!(!StudyError::BuildFailed {
            kernel: "cg".into(),
            class: "T".into(),
            nthreads: 2,
            attempts: 3,
            reason: "verify".into()
        }
        .transient());
    }

    #[test]
    fn spec_and_serialize_errors_are_terminal_and_named() {
        let e = StudyError::BadSpec {
            field: "kernel".into(),
            detail: "unknown NAS benchmark `zz`".into(),
        };
        assert!(!e.transient(), "a bad spec will be bad again");
        assert!(e.to_string().contains("kernel"), "{e}");
        let e = StudyError::Serialize {
            what: "stats reply".into(),
            detail: "boom".into(),
        };
        assert!(!e.transient());
        assert!(e.to_string().contains("stats reply"), "{e}");
    }

    #[test]
    fn panic_payload_extraction() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_payload(boxed.as_ref()), "static str");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_payload(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_payload(boxed.as_ref()), "non-string panic payload");
    }
}
