//! Multi-trial statistics: summary moments and the five-number summary
//! behind the paper's Figure 5 box-and-whisker plot.

use serde::{Deserialize, Serialize};

/// Mean/min/max/stddev over a set of trial measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `samples`; panics on an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n,
            mean,
            std: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (the paper reports <1–5% between trials).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean.abs()
        }
    }
}

impl Summary {
    /// Half-width of an approximate 95 % confidence interval for the mean
    /// (normal approximation, adequate at the paper's n = 10 trials).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        1.96 * self.std / (self.n as f64).sqrt()
    }

    /// Do two summaries' 95 % confidence intervals overlap? The paper's
    /// "<~1–5 % variance between tests" justification in statistical form.
    pub fn overlaps(&self, other: &Summary) -> bool {
        (self.mean - other.mean).abs() <= self.ci95_half_width() + other.ci95_half_width()
    }
}

/// A [`Summary`] kept as samples arrive, in constant space (Welford's
/// update): what a long-lived process folds its measurements into instead
/// of keeping every sample for a [`Summary::of`] at read time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningSummary {
    n: usize,
    mean: f64,
    /// Sum of squared deviations from the running mean.
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningSummary {
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            (self.min, self.max) = (x, x);
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The summary of everything pushed so far; `None` before the first
    /// sample (as [`Summary::of`] refuses an empty slice).
    pub fn summary(&self) -> Option<Summary> {
        (self.n > 0).then(|| Summary {
            n: self.n,
            mean: self.mean,
            std: if self.n > 1 {
                (self.m2 / (self.n - 1) as f64).sqrt()
            } else {
                0.0
            },
            min: self.min,
            max: self.max,
        })
    }
}

/// Five-number summary: the box spans the interquartile range, the
/// whiskers reach the extremes (the paper's Figure 5 convention).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxWhisker {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Linear-interpolated quantile of *sorted* data (type-7, the common
/// spreadsheet/NumPy default).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl BoxWhisker {
    /// Compute from unsorted samples; panics on an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Self {
            n: s.len(),
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Whisker spread (max − min).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // Sample std of 1..4 = sqrt(5/3).
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.cv(), 0.0);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn running_summary_is_empty_until_the_first_sample() {
        let mut r = RunningSummary::default();
        assert_eq!(r.summary(), None);
        r.push(7.0);
        assert_eq!(r.summary(), Some(Summary::of(&[7.0])));
    }

    #[test]
    fn cv_is_relative() {
        let a = Summary::of(&[10.0, 11.0, 9.0]);
        let b = Summary::of(&[100.0, 110.0, 90.0]);
        assert!((a.cv() - b.cv()).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        let many = Summary::of(&[1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(many.ci95_half_width() < few.ci95_half_width());
        assert_eq!(Summary::of(&[5.0]).ci95_half_width(), 0.0);
    }

    #[test]
    fn overlap_detection() {
        let a = Summary::of(&[10.0, 10.1, 9.9, 10.05]);
        let b = Summary::of(&[10.02, 10.08, 9.95, 10.0]);
        assert!(a.overlaps(&b));
        let c = Summary::of(&[20.0, 20.1, 19.9, 20.05]);
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn boxwhisker_quartiles() {
        let b = BoxWhisker::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.iqr(), 2.0);
        assert_eq!(b.range(), 4.0);
    }

    #[test]
    fn boxwhisker_unsorted_input() {
        let b = BoxWhisker::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(b.median, 3.0);
    }

    #[test]
    fn boxwhisker_interpolates() {
        let b = BoxWhisker::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.median, 2.5);
        assert_eq!(b.q1, 1.75);
        assert_eq!(b.q3, 3.25);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_rejected() {
        let _ = Summary::of(&[]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Quartiles are ordered and bounded by the extremes.
            #[test]
            fn five_numbers_ordered(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
                let b = BoxWhisker::of(&samples);
                prop_assert!(b.min <= b.q1);
                prop_assert!(b.q1 <= b.median);
                prop_assert!(b.median <= b.q3);
                prop_assert!(b.q3 <= b.max);
            }

            /// The mean lies within [min, max]; std is non-negative.
            #[test]
            fn summary_sane(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
                let s = Summary::of(&samples);
                prop_assert!(s.mean >= s.min - 1e-9);
                prop_assert!(s.mean <= s.max + 1e-9);
                prop_assert!(s.std >= 0.0);
            }

            /// The running accumulator agrees with the batch summary.
            #[test]
            fn running_matches_batch(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
                let mut r = RunningSummary::default();
                samples.iter().for_each(|&x| r.push(x));
                let (a, b) = (r.summary().unwrap(), Summary::of(&samples));
                prop_assert_eq!((a.n, a.min, a.max), (b.n, b.min, b.max));
                prop_assert!((a.mean - b.mean).abs() <= 1e-9 * (1.0 + b.mean.abs()));
                prop_assert!((a.std - b.std).abs() <= 1e-9 * (1.0 + b.std));
            }

            /// Shifting all samples shifts mean/min/max but not std.
            #[test]
            fn summary_shift_invariance(samples in proptest::collection::vec(-1e3f64..1e3, 2..50), shift in -1e3f64..1e3) {
                let a = Summary::of(&samples);
                let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
                let b = Summary::of(&shifted);
                prop_assert!((b.mean - a.mean - shift).abs() < 1e-6);
                prop_assert!((b.std - a.std).abs() < 1e-6);
            }
        }
    }
}
