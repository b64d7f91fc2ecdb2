//! Section 4.3 — cross-product multi-program experiments.
//!
//! Every (unordered) pair of benchmarks runs concurrently on each fully
//! loaded configuration; per configuration, the distribution of
//! multiprogrammed speedups over all pairs is summarized as a
//! box-and-whisker (Figure 5).

use paxsim_nas::KernelId;
use paxsim_perfmon::stats::BoxWhisker;

use crate::configs::HwConfig;
use crate::error::StudyResult;
use crate::multi::{pair_configs, pair_sweep};
use crate::resilient::{plain, Ctx, ResilienceOptions, Resilient};
use crate::store::TraceStore;
use crate::study::StudyOptions;

/// One pair observation: both sides' speedups over their serial runs.
#[derive(Debug, Clone)]
pub struct PairPoint {
    pub pair: (KernelId, KernelId),
    pub config: String,
    pub speedups: [f64; 2],
}

/// Results of the cross-product study.
#[derive(Debug, Clone)]
pub struct CrossStudy {
    pub configs: Vec<HwConfig>,
    pub points: Vec<PairPoint>,
}

impl CrossStudy {
    /// All speedup samples observed on `config` (two per pair).
    pub fn samples(&self, config_name: &str) -> Vec<f64> {
        self.points
            .iter()
            .filter(|p| p.config == config_name)
            .flat_map(|p| p.speedups)
            .collect()
    }

    /// Figure 5: one box-and-whisker per configuration. A configuration
    /// with no samples (every pair cell of the sweep failed) is
    /// omitted rather than summarized from nothing.
    pub fn boxes(&self) -> Vec<(String, BoxWhisker)> {
        self.configs
            .iter()
            .map(|c| (c.name.clone(), self.samples(&c.name)))
            .filter(|(_, samples)| !samples.is_empty())
            .map(|(name, samples)| (name, BoxWhisker::of(&samples)))
            .collect()
    }

    /// The configuration with the highest median pair speedup.
    pub fn best_median(&self) -> (String, f64) {
        self.boxes()
            .into_iter()
            .map(|(n, b)| (n, b.median))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty study")
    }
}

/// All unordered pairs (including self-pairs) of `benches`.
pub fn all_pairs(benches: &[KernelId]) -> Vec<(KernelId, KernelId)> {
    let mut out = Vec::new();
    for (i, &a) in benches.iter().enumerate() {
        for &b in &benches[i..] {
            out.push((a, b));
        }
    }
    out
}

/// Run the full Section 4.3 study over `opts.benchmarks` on every fully
/// loaded (≥ 2 threads) configuration.
///
/// # Panics
///
/// On a failed cell, naming its journal key and error.
pub fn run_cross_product(opts: &StudyOptions, store: &TraceStore) -> CrossStudy {
    plain(sweep_cross_product(opts, store, &ResilienceOptions::none()))
}

/// The Section 4.3 sweep. Failed pair cells are dropped from the point
/// cloud (and reported); a configuration losing every point is omitted
/// from the Figure 5 boxes.
///
/// # Errors
///
/// Only an unusable journal path fails the call.
pub fn sweep_cross_product(
    opts: &StudyOptions,
    store: &TraceStore,
    ropts: &ResilienceOptions,
) -> StudyResult<Resilient<CrossStudy>> {
    let ctx = Ctx::new(opts, store, ropts)?;
    let configs = pair_configs();
    let pairs = all_pairs(&opts.benchmarks);

    // Every (config, pair) point is one pool item, config-major, so the
    // first configuration's whole row is sentinel-eligible: every pair,
    // hence every kernel, gets first-cell coverage. A cell fetches its
    // traces through the single-flight store only when it computes, so a
    // journaled cell builds none.
    let np = pairs.len();
    let cells = pair_sweep(&ctx, "cross", &opts.benchmarks, &pairs, &configs, &|i| {
        (i % np, i / np)
    });
    let points = cells
        .into_iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let cell = r.ok()?;
            Some(PairPoint {
                pair: pairs[i % np],
                config: configs[i / np].name.clone(),
                speedups: [
                    cell.sides[0].cell.speedup.mean,
                    cell.sides[1].cell.speedup.mean,
                ],
            })
        })
        .collect();
    Ok(ctx.finish(CrossStudy { configs, points }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_enumeration() {
        let p = all_pairs(&[KernelId::Cg, KernelId::Ft, KernelId::Ep]);
        assert_eq!(p.len(), 6); // 3 self + 3 cross
        assert!(p.contains(&(KernelId::Cg, KernelId::Cg)));
        assert!(p.contains(&(KernelId::Cg, KernelId::Ep)));
        assert!(!p.contains(&(KernelId::Ep, KernelId::Cg)), "unordered");
    }

    #[test]
    fn the_default_policy_agrees_with_none_bit_for_bit() {
        let opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Is]);
        let run = |ropts: &ResilienceOptions| {
            sweep_cross_product(&opts, &TraceStore::new(), ropts).unwrap()
        };
        let (checked, none) = (
            run(&ResilienceOptions::default()),
            run(&ResilienceOptions::none()),
        );
        assert!(checked.resilience.is_clean(), "{:?}", checked.resilience);
        assert!(checked.resilience.sentinel_checks > 0);
        assert_eq!(checked.study.points.len(), none.study.points.len());
        for (c, n) in checked.study.points.iter().zip(&none.study.points) {
            assert_eq!(c.pair, n.pair);
            assert_eq!(c.config, n.config);
            assert_eq!(c.speedups, n.speedups);
        }
    }

    #[test]
    fn a_fully_journaled_resume_builds_no_trace() {
        let opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Is]);
        let path = std::env::temp_dir().join("paxsim_cross_resume_unit.jsonl");
        let _ = std::fs::remove_file(&path);
        let ropts = ResilienceOptions::default().with_journal(&path);
        let first = sweep_cross_product(&opts, &TraceStore::new(), &ropts).unwrap();
        let store = TraceStore::new();
        let second = sweep_cross_product(&opts, &store, &ropts).unwrap();
        let cells = opts.benchmarks.len() + first.study.points.len();
        assert_eq!(second.resilience.resumed_cells, cells);
        assert_eq!(store.builds(), 0, "a full resume builds no traces");
        assert_eq!(first.study.points.len(), second.study.points.len());
        for (a, b) in first.study.points.iter().zip(&second.study.points) {
            assert_eq!(
                (a.pair, &a.config, a.speedups),
                (b.pair, &b.config, b.speedups)
            );
        }
    }

    #[test]
    fn cross_study_collects_two_samples_per_pair() {
        let opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Is]);
        let store = TraceStore::new();
        let s = run_cross_product(&opts, &store);
        // 3 pairs × 7 configs.
        assert_eq!(s.points.len(), 21);
        let samples = s.samples("HT off -4-2");
        assert_eq!(samples.len(), 6);
        assert!(samples.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn boxes_cover_every_config() {
        let opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep]);
        let store = TraceStore::new();
        let s = run_cross_product(&opts, &store);
        let boxes = s.boxes();
        assert_eq!(boxes.len(), 7);
        let (_, best) = s.best_median();
        assert!(best > 0.0);
    }
}
