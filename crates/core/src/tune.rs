//! Budgeted configuration autotuning: the search core behind `op=tune`.
//!
//! "Towards Autotuning of OpenMP Applications on Multicore Architectures"
//! motivates searching the scheduling-policy × chunk-size × thread-count ×
//! placement space instead of sweeping it exhaustively. This module owns
//! the *search*: a typed [`TuneRequest`] describes the grid and budget, a
//! flag-selectable algorithm ([`TuneAlgo::Halving`] successive halving or
//! [`TuneAlgo::HillClimb`]) walks it, and a [`TuneResult`] reports the
//! winner plus full provenance (per-round fidelity, candidates, prunes).
//!
//! The module is deliberately engine-agnostic: callers supply one
//! evaluator closure `(spec, fidelity) -> sides` and the search decides
//! *which* cells to score at *which* fidelity. The serve daemon plugs in
//! its exact/predicted tiers; tests plug in counting stubs.
//!
//! Three invariants matter:
//!
//! * **Deterministic trajectory.** Candidate seeding, round fidelities,
//!   pruning thresholds and tie-breaks are all pure functions of the
//!   normalized request, so two runs of the same request visit the same
//!   cells in the same order and render byte-identical results.
//! * **Memoized resume.** The budget is charged per unique (cell,
//!   fidelity) scoring, so any evaluator that returns the same sides for
//!   the same cell — computed or found in a store — renders a
//!   byte-identical [`TuneResult`].
//! * **NaN-safe ranking.** A degenerate cell (zero-cycle outcome,
//!   poisoned record) scores NaN and ranks *last* via [`nan_last_cmp`];
//!   it can never panic a comparator or win a round.

use std::collections::HashMap;

use paxsim_machine::config::MachineConfig;

use crate::configs::parallel_configs;
use crate::error::{StudyError, StudyResult};
use crate::hash::{content_hash, ConfigHash, Fidelity, StudySpec};
use crate::journal::SideRecord;
use serde::{Serialize, Value};

/// Candidate-count threshold at or below which successive halving stops
/// pruning on the predicted tier and promotes the survivors to the final
/// fidelity.
pub const PROMOTE_AT: usize = 4;

/// Hard ceiling on grid size (configs × schedules) for one tune request.
pub const MAX_GRID: usize = 4096;

/// Hard ceiling on the evaluation budget for one tune request.
pub const MAX_BUDGET: usize = 100_000;

/// Default evaluation budget when the request does not name one.
pub const DEFAULT_BUDGET: usize = 64;

/// Default pruning margin: survivors of a predicted round include every
/// candidate within this relative distance of the k-th best score. The
/// default matches the predictor's declared wall-clock error bound
/// (`ErrorBounds::default().wall` = 0.25), so a cell is only pruned when
/// the predicted gap exceeds what prediction error could explain.
pub const DEFAULT_MARGIN: f64 = 0.25;

/// Default schedule ladder when the request does not name schedules:
/// the paper's static baseline plus the chunked policies its §4 sweep
/// found interesting.
pub const DEFAULT_SCHEDULES: [&str; 5] =
    ["static", "static,4", "dynamic,2", "dynamic,8", "guided,4"];

/// Total order on scores with NaN ranked strictly last (below
/// `NEG_INFINITY`). Ascending by "goodness": `max_by(nan_last_cmp)`
/// never crowns a NaN, and `sort_by(|a, b| nan_last_cmp(b, a))` yields
/// best-first with NaNs sunk to the end.
pub fn nan_last_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

// ---------------------------------------------------------------------------
// Request / plan.
// ---------------------------------------------------------------------------

/// Search algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TuneAlgo {
    /// Successive halving: score every candidate cheap, keep the top
    /// half (plus margin), repeat, promote the final few to the exact
    /// engine. The default.
    #[default]
    Halving,
    /// Greedy hill climb from the first grid cell through ±1 config /
    /// ±1 schedule neighbors; cheaper on large grids, can miss distant
    /// optima.
    HillClimb,
}

impl TuneAlgo {
    /// Canonical wire spelling (`halving` / `hillclimb`).
    pub fn wire(self) -> &'static str {
        match self {
            TuneAlgo::Halving => "halving",
            TuneAlgo::HillClimb => "hillclimb",
        }
    }

    /// Parse a wire spelling, case-insensitive. `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "halving" => Some(TuneAlgo::Halving),
            "hillclimb" | "hill-climb" => Some(TuneAlgo::HillClimb),
            _ => None,
        }
    }
}

impl std::fmt::Display for TuneAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire())
    }
}

/// One autotuning request: the grid, the budget, and how to search it.
///
/// `fidelity` names the *final-rung* tier: `exact` (default) runs early
/// rounds on the analytical predictor and promotes survivors to the
/// cycle engine; `predicted` keeps every round on the predictor
/// (microsecond-class, declared error bounds). `fast` is rejected — a
/// cache-warmth-dependent tier would break the deterministic-trajectory
/// invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneRequest {
    /// NAS kernel name (`ep`, `cg`, …).
    pub kernel: String,
    /// Problem class tag (`T`, `S`, `W`).
    pub class: String,
    /// Independent trials per scored cell.
    pub trials: usize,
    /// Per-trial OS jitter amplitude in cycles.
    pub jitter: u64,
    /// Table 1 configuration names to search; empty means all seven
    /// parallel configurations.
    pub configs: Vec<String>,
    /// Schedule clauses to search; empty means [`DEFAULT_SCHEDULES`].
    pub schedules: Vec<String>,
    /// Maximum number of cell scorings the search may charge.
    pub budget: usize,
    /// Search algorithm.
    pub algo: TuneAlgo,
    /// Final-rung fidelity (`Exact` or `Predicted`).
    pub fidelity: Fidelity,
    /// Relative pruning margin for predicted rounds (see
    /// [`DEFAULT_MARGIN`]).
    pub margin: f64,
    /// The machine model (defaults to the paper's Paxville SMP).
    pub machine: MachineConfig,
}

impl TuneRequest {
    /// A default request: class T, one quiet trial, full parallel grid,
    /// default schedule ladder, halving to the exact engine.
    pub fn new(kernel: &str) -> Self {
        Self {
            kernel: kernel.to_string(),
            class: "T".to_string(),
            trials: 1,
            jitter: 0,
            configs: Vec::new(),
            schedules: Vec::new(),
            budget: DEFAULT_BUDGET,
            algo: TuneAlgo::default(),
            fidelity: Fidelity::Exact,
            margin: DEFAULT_MARGIN,
            machine: MachineConfig::paxville_smp(),
        }
    }

    /// Validate every field and expand the grid, returning the plan with
    /// canonical spellings (so aliases hash identically).
    ///
    /// # Errors
    ///
    /// [`StudyError::BadSpec`] naming the offending field.
    pub fn plan(&self) -> StudyResult<TunePlan> {
        let bad = |field: &'static str, detail: String| StudyError::BadSpec {
            field: field.to_string(),
            detail,
        };
        if self.budget == 0 {
            return Err(bad("budget", "budget must be >= 1".to_string()));
        }
        if self.budget > MAX_BUDGET {
            return Err(bad("budget", format!("budget must be <= {MAX_BUDGET}")));
        }
        if !(self.margin.is_finite() && (0.0..1.0).contains(&self.margin)) {
            return Err(bad("margin", "margin must be in [0, 1)".to_string()));
        }
        if self.fidelity == Fidelity::Fast {
            return Err(bad(
                "fidelity",
                "tune supports `exact` or `predicted` (fast is cache-warmth-dependent)".to_string(),
            ));
        }
        let config_names: Vec<String> = if self.configs.is_empty() {
            parallel_configs().into_iter().map(|c| c.name).collect()
        } else {
            self.configs.clone()
        };
        let schedule_names: Vec<String> = if self.schedules.is_empty() {
            DEFAULT_SCHEDULES.iter().map(|s| s.to_string()).collect()
        } else {
            self.schedules.clone()
        };
        // Normalize spellings through a probe resolve, then dedup
        // (first occurrence wins) so aliases can't alias grid cells.
        let mut configs: Vec<String> = Vec::new();
        for name in &config_names {
            let probe = StudySpec::new(&self.kernel, name)
                .with_class(&self.class)
                .with_trials(self.trials)
                .with_jitter(self.jitter);
            let canonical = probe.resolve()?.spec.config;
            if !configs.contains(&canonical) {
                configs.push(canonical);
            }
        }
        let mut schedules: Vec<String> = Vec::new();
        for clause in &schedule_names {
            let mut probe = StudySpec::new(&self.kernel, &configs[0])
                .with_class(&self.class)
                .with_trials(self.trials)
                .with_jitter(self.jitter);
            probe.schedule = clause.clone();
            let canonical = probe.resolve()?.spec.schedule;
            if !schedules.contains(&canonical) {
                schedules.push(canonical);
            }
        }
        if configs.len() * schedules.len() > MAX_GRID {
            return Err(bad(
                "configs",
                format!(
                    "grid of {} x {} cells exceeds the {MAX_GRID}-cell ceiling",
                    configs.len(),
                    schedules.len()
                ),
            ));
        }
        // Cells in config-major grid order; every spec pre-resolved so
        // the search itself can't hit a BadSpec mid-flight.
        let mut cells = Vec::with_capacity(configs.len() * schedules.len());
        let mut normalized = self.clone();
        for (ci, config) in configs.iter().enumerate() {
            for (si, schedule) in schedules.iter().enumerate() {
                let mut spec = StudySpec::new(&self.kernel, config)
                    .with_class(&self.class)
                    .with_trials(self.trials)
                    .with_jitter(self.jitter);
                spec.schedule = schedule.clone();
                spec.machine = self.machine.clone();
                let spec = spec.resolve()?.spec;
                if cells.is_empty() {
                    normalized.kernel = spec.kernel.clone();
                    normalized.class = spec.class.clone();
                }
                cells.push(TuneCell {
                    spec,
                    config_idx: ci,
                    schedule_idx: si,
                });
            }
        }
        normalized.configs = configs;
        normalized.schedules = schedules;
        Ok(TunePlan {
            request: normalized,
            cells,
        })
    }
}

impl Serialize for TuneRequest {
    /// Canonical value tree with an `"op": "tune"` marker grafted in, so
    /// tune hashes occupy a key space disjoint from every [`StudySpec`]
    /// hash (the same trick [`Fidelity`] uses for predicted results).
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("op".to_string(), Value::String("tune".to_string())),
            ("kernel".to_string(), Value::String(self.kernel.clone())),
            ("class".to_string(), Value::String(self.class.clone())),
            ("trials".to_string(), Value::UInt(self.trials as u64)),
            ("jitter".to_string(), Value::UInt(self.jitter)),
            (
                "configs".to_string(),
                Value::Array(
                    self.configs
                        .iter()
                        .map(|c| Value::String(c.clone()))
                        .collect(),
                ),
            ),
            (
                "schedules".to_string(),
                Value::Array(
                    self.schedules
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            ),
            ("budget".to_string(), Value::UInt(self.budget as u64)),
            (
                "algo".to_string(),
                Value::String(self.algo.wire().to_string()),
            ),
            (
                "fidelity".to_string(),
                Value::String(self.fidelity.wire().to_string()),
            ),
            ("margin".to_string(), Value::Float(self.margin)),
            ("machine".to_string(), self.machine.to_value()),
        ])
    }
}

/// One grid cell: the resolved spec plus its grid coordinates (used by
/// the hill climb's neighborhood).
#[derive(Debug, Clone)]
pub struct TuneCell {
    pub spec: StudySpec,
    pub config_idx: usize,
    pub schedule_idx: usize,
}

/// A validated request with its expanded, canonically-spelled grid.
#[derive(Debug, Clone)]
pub struct TunePlan {
    /// The request with every spelling canonical; hash this.
    pub request: TuneRequest,
    /// Grid cells in config-major order.
    pub cells: Vec<TuneCell>,
}

impl TunePlan {
    /// Content identity of this tune request.
    pub fn content_hash(&self) -> ConfigHash {
        content_hash(&self.request)
    }
}

// ---------------------------------------------------------------------------
// Result / provenance.
// ---------------------------------------------------------------------------

/// Provenance for one search round.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneRound {
    /// 1-based round number.
    pub round: usize,
    /// Fidelity every score in this round was produced at.
    pub fidelity: Fidelity,
    /// Candidates entering the round.
    pub candidates: usize,
    /// Budget charged this round (scores not already memoized in this
    /// search; see the resume invariant).
    pub evaluated: usize,
    /// Candidates dropped by this round (score pruning + budget drops).
    pub pruned: usize,
    /// Best cell seen so far at this round's close.
    pub best_config: String,
    pub best_schedule: String,
    pub best_speedup: f64,
}

impl Serialize for TuneRound {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("round".to_string(), Value::UInt(self.round as u64)),
            (
                "fidelity".to_string(),
                Value::String(self.fidelity.wire().to_string()),
            ),
            (
                "candidates".to_string(),
                Value::UInt(self.candidates as u64),
            ),
            ("evaluated".to_string(), Value::UInt(self.evaluated as u64)),
            ("pruned".to_string(), Value::UInt(self.pruned as u64)),
            (
                "best_config".to_string(),
                Value::String(self.best_config.clone()),
            ),
            (
                "best_schedule".to_string(),
                Value::String(self.best_schedule.clone()),
            ),
            ("best_speedup".to_string(), Value::Float(self.best_speedup)),
        ])
    }
}

/// The search verdict: winner, its speedup at the requested fidelity,
/// and the full search trajectory.
///
/// Deliberately contains *no* wall-clock or fresh-vs-replayed data: it
/// is a pure function of the normalized request and the cells' scores,
/// which is what makes cached and resumed replies byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Winning configuration / schedule (canonical spellings).
    pub best_config: String,
    pub best_schedule: String,
    /// Winner's speedup, measured at [`TuneResult::fidelity`].
    pub speedup: f64,
    /// Fidelity of the winning measurement (always the request's final
    /// fidelity: the winner is promoted even when the budget runs dry).
    pub fidelity: Fidelity,
    pub algo: TuneAlgo,
    /// Total grid cells (configs × schedules).
    pub grid: usize,
    /// Unique (cell, fidelity) scorings charged against the budget.
    pub evaluated: usize,
    pub budget: usize,
    pub budget_spent: usize,
    /// True when the search dropped candidates because the budget ran
    /// out (the winner is still promoted to the final fidelity).
    pub budget_exhausted: bool,
    pub rounds: Vec<TuneRound>,
}

impl Serialize for TuneResult {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "best_config".to_string(),
                Value::String(self.best_config.clone()),
            ),
            (
                "best_schedule".to_string(),
                Value::String(self.best_schedule.clone()),
            ),
            ("speedup".to_string(), Value::Float(self.speedup)),
            (
                "fidelity".to_string(),
                Value::String(self.fidelity.wire().to_string()),
            ),
            (
                "algo".to_string(),
                Value::String(self.algo.wire().to_string()),
            ),
            ("grid".to_string(), Value::UInt(self.grid as u64)),
            ("evaluated".to_string(), Value::UInt(self.evaluated as u64)),
            ("budget".to_string(), Value::UInt(self.budget as u64)),
            (
                "budget_spent".to_string(),
                Value::UInt(self.budget_spent as u64),
            ),
            (
                "budget_exhausted".to_string(),
                Value::Bool(self.budget_exhausted),
            ),
            (
                "rounds".to_string(),
                Value::Array(self.rounds.iter().map(|r| r.to_value()).collect()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// The search.
// ---------------------------------------------------------------------------

struct Searcher<'a, E> {
    plan: &'a TunePlan,
    eval: E,
    /// (cell index, fidelity) -> score; within-search memo.
    scores: HashMap<(usize, Fidelity), f64>,
    budget_spent: usize,
    rounds: Vec<TuneRound>,
    budget_exhausted: bool,
}

impl<'a, E, X> Searcher<'a, E>
where
    E: FnMut(&StudySpec, Fidelity) -> Result<Vec<SideRecord>, X>,
{
    fn new(plan: &'a TunePlan, eval: E) -> Self {
        Searcher {
            plan,
            eval,
            scores: HashMap::new(),
            budget_spent: 0,
            rounds: Vec::new(),
            budget_exhausted: false,
        }
    }

    fn budget_left(&self) -> bool {
        self.budget_spent < self.plan.request.budget
    }

    /// Score one cell at one fidelity, charging the budget for every
    /// unique (cell, fidelity) so the spend trajectory is deterministic.
    /// Returns `(score, charged)`.
    fn score(&mut self, idx: usize, fidelity: Fidelity) -> Result<(f64, bool), X> {
        if let Some(&s) = self.scores.get(&(idx, fidelity)) {
            return Ok((s, false));
        }
        let sides = (self.eval)(&self.plan.cells[idx].spec, fidelity)?;
        let score = sides.first().map(|s| s.speedup.mean).unwrap_or(f64::NAN);
        self.scores.insert((idx, fidelity), score);
        self.budget_spent += 1;
        Ok((score, true))
    }

    /// Score every candidate this round can afford; unaffordable ones
    /// count as budget drops. Returns `(scored, charged, dropped)` with
    /// `scored` best-first (NaN last, grid-order tie-break via stable
    /// sort).
    #[allow(clippy::type_complexity)]
    fn score_round(
        &mut self,
        candidates: &[usize],
        fidelity: Fidelity,
    ) -> Result<(Vec<(usize, f64)>, usize, usize), X> {
        let mut scored = Vec::with_capacity(candidates.len());
        let mut charged = 0;
        let mut dropped = 0;
        for &idx in candidates {
            if !self.scores.contains_key(&(idx, fidelity)) && !self.budget_left() {
                self.budget_exhausted = true;
                dropped += 1;
                continue;
            }
            let (score, fresh_charge) = self.score(idx, fidelity)?;
            if fresh_charge {
                charged += 1;
            }
            scored.push((idx, score));
        }
        scored.sort_by(|a, b| nan_last_cmp(b.1, a.1));
        Ok((scored, charged, dropped))
    }

    fn push_round(
        &mut self,
        fidelity: Fidelity,
        candidates: usize,
        evaluated: usize,
        pruned: usize,
        best: (usize, f64),
    ) {
        let cell = &self.plan.cells[best.0];
        self.rounds.push(TuneRound {
            round: self.rounds.len() + 1,
            fidelity,
            candidates,
            evaluated,
            pruned,
            best_config: cell.spec.config.clone(),
            best_schedule: cell.spec.schedule.clone(),
            best_speedup: best.1,
        });
    }

    /// Promote `idx` to the final fidelity (charging even past the
    /// budget: the budget bounds the *search*, but the winner is always
    /// measured at the requested tier) and assemble the result.
    fn finish(mut self, idx: usize) -> Result<TuneResult, X> {
        let final_fid = self.plan.request.fidelity;
        let already = self.scores.contains_key(&(idx, final_fid));
        let (speedup, charged) = self.score(idx, final_fid)?;
        if !already {
            self.push_round(final_fid, 1, usize::from(charged), 0, (idx, speedup));
        }
        let cell = &self.plan.cells[idx];
        Ok(TuneResult {
            best_config: cell.spec.config.clone(),
            best_schedule: cell.spec.schedule.clone(),
            speedup,
            fidelity: final_fid,
            algo: self.plan.request.algo,
            grid: self.plan.cells.len(),
            evaluated: self.scores.len(),
            budget: self.plan.request.budget,
            budget_spent: self.budget_spent,
            budget_exhausted: self.budget_exhausted,
            rounds: self.rounds,
        })
    }

    /// Best-scored cell across everything memoized, preferring
    /// final-fidelity scores; used when the budget dries up mid-search.
    fn best_anywhere(&self) -> usize {
        let final_fid = self.plan.request.fidelity;
        let pick = |fid: Fidelity| {
            self.scores
                .iter()
                .filter(|((_, f), _)| *f == fid)
                .max_by(|a, b| nan_last_cmp(*a.1, *b.1).then(b.0 .0.cmp(&a.0 .0)))
                .map(|((i, _), _)| *i)
        };
        pick(final_fid)
            .or_else(|| pick(Fidelity::Predicted))
            .unwrap_or(0)
    }

    fn run_halving(mut self) -> Result<TuneResult, X> {
        let final_fid = self.plan.request.fidelity;
        let margin = self.plan.request.margin;
        let mut candidates: Vec<usize> = (0..self.plan.cells.len()).collect();
        let mut force_final = false;
        loop {
            let fidelity =
                if final_fid == Fidelity::Exact && !force_final && candidates.len() > PROMOTE_AT {
                    Fidelity::Predicted
                } else {
                    final_fid
                };
            let entering = candidates.len();
            let (scored, charged, dropped) = self.score_round(&candidates, fidelity)?;
            let Some(&best) = scored.first() else {
                // Budget gone before this round scored anything.
                let idx = self.best_anywhere();
                return self.finish(idx);
            };
            if fidelity == final_fid {
                self.push_round(fidelity, entering, charged, dropped, best);
                return self.finish(best.0);
            }
            // Predicted pruning round: keep the top half plus everything
            // within `margin` of the k-th best (prediction error can't
            // justify dropping those), NaN scores always pruned.
            let non_nan: Vec<(usize, f64)> = scored
                .iter()
                .copied()
                .filter(|(_, s)| !s.is_nan())
                .collect();
            let keep_n = non_nan.len().div_ceil(2).max(1);
            let survivors: Vec<usize> = if non_nan.is_empty() {
                vec![best.0]
            } else if non_nan.len() <= keep_n {
                non_nan.iter().map(|(i, _)| *i).collect()
            } else {
                let threshold = non_nan[keep_n - 1].1 * (1.0 - margin);
                non_nan
                    .iter()
                    .filter(|(_, s)| *s >= threshold)
                    .map(|(i, _)| *i)
                    .collect()
            };
            let mut survivors: Vec<usize> = survivors;
            survivors.sort_unstable();
            let pruned = entering - survivors.len();
            self.push_round(fidelity, entering, charged, pruned, best);
            // No pruning progress (margin kept everyone) or few enough
            // left: escalate to the final fidelity next round. This is
            // what guarantees termination.
            if survivors.len() >= scored.len() || survivors.len() <= PROMOTE_AT {
                force_final = true;
            }
            candidates = survivors;
        }
    }

    fn run_hillclimb(mut self) -> Result<TuneResult, X> {
        let final_fid = self.plan.request.fidelity;
        let work_fid = if final_fid == Fidelity::Exact {
            Fidelity::Predicted
        } else {
            final_fid
        };
        let n_sched = self.plan.request.schedules.len();
        let n_cfg = self.plan.request.configs.len();
        let cell_at = |ci: usize, si: usize| ci * n_sched + si;
        // Deterministic seed: the first grid cell.
        let mut cur = 0usize;
        let (mut cur_score, charged) = self.score(cur, work_fid)?;
        self.push_round(work_fid, 1, usize::from(charged), 0, (cur, cur_score));
        loop {
            let cell = &self.plan.cells[cur];
            let (ci, si) = (cell.config_idx, cell.schedule_idx);
            let mut neighbors: Vec<usize> = Vec::with_capacity(4);
            if ci > 0 {
                neighbors.push(cell_at(ci - 1, si));
            }
            if ci + 1 < n_cfg {
                neighbors.push(cell_at(ci + 1, si));
            }
            if si > 0 {
                neighbors.push(cell_at(ci, si - 1));
            }
            if si + 1 < n_sched {
                neighbors.push(cell_at(ci, si + 1));
            }
            let (scored, charged, dropped) = self.score_round(&neighbors, work_fid)?;
            let entering = neighbors.len();
            let step_best = scored.first().copied();
            match step_best {
                Some((idx, score)) if nan_last_cmp(score, cur_score).is_gt() => {
                    self.push_round(work_fid, entering, charged, dropped, (idx, score));
                    cur = idx;
                    cur_score = score;
                    if dropped > 0 {
                        // Out of budget: stand on the best known cell.
                        return self.finish(cur);
                    }
                }
                _ => {
                    // Local optimum (or nothing affordable): done.
                    self.push_round(work_fid, entering, charged, dropped, (cur, cur_score));
                    return self.finish(cur);
                }
            }
        }
    }
}

/// Run the search described by `plan`, scoring cells with `eval`.
/// Returns the deterministic [`TuneResult`], or the first error `eval`
/// returns.
pub fn run<E, X>(plan: &TunePlan, eval: E) -> Result<TuneResult, X>
where
    E: FnMut(&StudySpec, Fidelity) -> Result<Vec<SideRecord>, X>,
{
    let searcher = Searcher::new(plan, eval);
    match plan.request.algo {
        TuneAlgo::Halving => searcher.run_halving(),
        TuneAlgo::HillClimb => searcher.run_hillclimb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxsim_perfmon::stats::Summary;
    use std::cell::{Cell, RefCell};

    /// Scored cells by content hash: the store a resumed search finds
    /// its predecessor's work in.
    type Memo = RefCell<HashMap<ConfigHash, Vec<SideRecord>>>;

    /// Deterministic synthetic landscape: speedup grows with thread
    /// count and mildly prefers later schedules, with a small penalty at
    /// predicted fidelity so the tiers disagree slightly but not enough
    /// to flip the ranking.
    fn landscape(spec: &StudySpec, fidelity: Fidelity) -> f64 {
        let cfg = crate::configs::config_by_name(&spec.config).unwrap();
        let sched_bonus = spec.schedule.len() as f64 * 0.01;
        let base = cfg.threads as f64 + sched_bonus;
        match fidelity {
            Fidelity::Exact => base,
            _ => base * 0.97,
        }
    }

    fn side(score: f64) -> Vec<SideRecord> {
        vec![SideRecord {
            bench: "ep".into(),
            cycles: Summary::of(&[100.0]),
            speedup: Summary {
                n: 1,
                mean: score,
                std: 0.0,
                min: score,
                max: score,
            },
            counters: Default::default(),
        }]
    }

    /// An evaluator over [`landscape`] that never fails.
    fn scored(spec: &StudySpec, fidelity: Fidelity) -> Result<Vec<SideRecord>, ()> {
        Ok(side(landscape(spec, fidelity)))
    }

    /// Score through `memo`: a stored cell is found (and counted in
    /// `found`), any other computed and stored.
    fn memoized(
        memo: &Memo,
        found: &Cell<usize>,
        spec: &StudySpec,
        fid: Fidelity,
    ) -> Vec<SideRecord> {
        let key = spec.content_hash_with_fidelity(fid);
        if let Some(sides) = memo.borrow().get(&key) {
            found.set(found.get() + 1);
            return sides.clone();
        }
        let sides = side(landscape(spec, fid));
        memo.borrow_mut().insert(key, sides.clone());
        sides
    }

    /// A replay that only looks cells up in `memo`, failing on the first
    /// one it lacks.
    fn peek(memo: &Memo) -> impl FnMut(&StudySpec, Fidelity) -> Result<Vec<SideRecord>, ()> + '_ {
        |spec, fid| {
            memo.borrow()
                .get(&spec.content_hash_with_fidelity(fid))
                .cloned()
                .ok_or(())
        }
    }

    fn small_request() -> TuneRequest {
        let mut req = TuneRequest::new("ep");
        req.configs = vec!["CMP".into(), "CMT".into(), "SMP".into()];
        req.schedules = vec!["static".into(), "dynamic,2".into()];
        req
    }

    #[test]
    fn nan_ranks_last_everywhere() {
        let mut v = [1.0, f64::NAN, 3.0, 2.0, f64::NAN];
        v.sort_by(|a, b| nan_last_cmp(*b, *a));
        assert_eq!(&v[..3], &[3.0, 2.0, 1.0]);
        assert!(v[3].is_nan() && v[4].is_nan());
        let best = [f64::NAN, 2.0, f64::NAN]
            .into_iter()
            .max_by(|a, b| nan_last_cmp(*a, *b))
            .unwrap();
        assert_eq!(best, 2.0);
    }

    #[test]
    fn plan_normalizes_and_dedups_aliases() {
        let mut req = TuneRequest::new("EP");
        req.configs = vec!["cmp".into(), "HT off -2-1".into(), "CMT".into()];
        req.schedules = vec!["STATIC".into(), "static".into()];
        let plan = req.plan().unwrap();
        // "cmp" and "HT off -2-1" are the same Table 1 row.
        assert_eq!(plan.request.configs, vec!["HT off -2-1", "HT on -4-1"]);
        assert_eq!(plan.request.schedules, vec!["static"]);
        assert_eq!(plan.request.kernel, "ep");
        assert_eq!(plan.cells.len(), 2);
    }

    #[test]
    fn plan_rejects_bad_fields() {
        let mut req = TuneRequest::new("ep");
        req.budget = 0;
        assert!(matches!(req.plan(), Err(StudyError::BadSpec { field, .. }) if field == "budget"));
        let mut req = TuneRequest::new("ep");
        req.fidelity = Fidelity::Fast;
        assert!(
            matches!(req.plan(), Err(StudyError::BadSpec { field, .. }) if field == "fidelity")
        );
        let mut req = TuneRequest::new("ep");
        req.margin = 1.5;
        assert!(matches!(req.plan(), Err(StudyError::BadSpec { field, .. }) if field == "margin"));
        let mut req = TuneRequest::new("ep");
        req.configs = vec!["warp-drive".into()];
        assert!(matches!(req.plan(), Err(StudyError::BadSpec { field, .. }) if field == "config"));
    }

    #[test]
    fn tune_hash_disjoint_from_spec_hash() {
        let plan = small_request().plan().unwrap();
        let spec_hash = plan.cells[0].spec.content_hash();
        assert_ne!(plan.content_hash(), spec_hash);
    }

    #[test]
    fn halving_finds_exhaustive_best() {
        let plan = small_request().plan().unwrap();
        let result = run(&plan, scored).unwrap();
        // Exhaustive argmax over the same landscape at exact fidelity.
        let best = plan
            .cells
            .iter()
            .max_by(|a, b| {
                nan_last_cmp(
                    landscape(&a.spec, Fidelity::Exact),
                    landscape(&b.spec, Fidelity::Exact),
                )
            })
            .unwrap();
        assert_eq!(result.best_config, best.spec.config);
        assert_eq!(result.best_schedule, best.spec.schedule);
        assert_eq!(result.fidelity, Fidelity::Exact);
        assert!(!result.budget_exhausted);
        assert!(result.budget_spent <= result.budget);
        // Early rounds predicted, final round exact.
        assert_eq!(result.rounds.first().unwrap().fidelity, Fidelity::Predicted);
        assert_eq!(result.rounds.last().unwrap().fidelity, Fidelity::Exact);
    }

    #[test]
    fn hillclimb_reaches_the_monotone_optimum() {
        let mut req = small_request();
        req.algo = TuneAlgo::HillClimb;
        let plan = req.plan().unwrap();
        let result = run(&plan, scored).unwrap();
        // The landscape is monotone in threads and schedule index, so
        // the climb from cell 0 must reach the global optimum.
        let best = plan
            .cells
            .iter()
            .max_by(|a, b| {
                nan_last_cmp(
                    landscape(&a.spec, Fidelity::Exact),
                    landscape(&b.spec, Fidelity::Exact),
                )
            })
            .unwrap();
        assert_eq!(result.best_config, best.spec.config);
        assert_eq!(result.best_schedule, best.spec.schedule);
        assert_eq!(result.algo, TuneAlgo::HillClimb);
    }

    #[test]
    fn nan_cell_never_wins_and_never_panics() {
        let plan = small_request().plan().unwrap();
        // The highest-thread config would win, but it scores NaN
        // (degenerate outcome) — the search must survive and crown the
        // best finite cell.
        let result = run(&plan, |spec, fid| {
            if spec.config.contains("-2-2") {
                Ok::<_, ()>(side(f64::NAN))
            } else {
                scored(spec, fid)
            }
        })
        .unwrap();
        assert_ne!(result.best_config, "HT off -2-2");
        assert!(result.speedup.is_finite());
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        let mut req = small_request();
        req.budget = 3;
        let plan = req.plan().unwrap();
        let result = run(&plan, scored).unwrap();
        assert!(result.budget_exhausted);
        // The winner is still promoted to exact even past the budget.
        assert_eq!(result.fidelity, Fidelity::Exact);
        assert!(result.speedup.is_finite());
    }

    #[test]
    fn predicted_final_fidelity_never_calls_exact() {
        let mut req = small_request();
        req.fidelity = Fidelity::Predicted;
        let plan = req.plan().unwrap();
        let exact_calls = RefCell::new(0usize);
        let result = run(&plan, |spec, fid| {
            if fid == Fidelity::Exact {
                *exact_calls.borrow_mut() += 1;
            }
            scored(spec, fid)
        })
        .unwrap();
        assert_eq!(*exact_calls.borrow(), 0);
        assert_eq!(result.fidelity, Fidelity::Predicted);
    }

    #[test]
    fn resume_replays_stored_cells_and_is_byte_identical() {
        let plan = small_request().plan().unwrap();
        let reference = run(&plan, scored).unwrap();

        // Interrupted run: the evaluator dies after 3 cells, with every
        // completed cell already stored (the mid-search kill).
        let (memo, found, calls) = (Memo::default(), Cell::new(0), Cell::new(0));
        let err = run(&plan, |spec, fid| {
            calls.set(calls.get() + 1);
            if calls.get() > 3 {
                return Err("injected tune abort");
            }
            Ok(memoized(&memo, &found, spec, fid))
        })
        .unwrap_err();
        assert_eq!(err, "injected tune abort");
        assert_eq!(
            run(&plan, peek(&memo)),
            Err(()),
            "a partial store replays nothing"
        );

        // Resume over the same store: every stored cell is found, not
        // recomputed, and the result is byte-identical to the
        // uninterrupted run.
        let resumed = run(&plan, |spec, fid| {
            Ok::<_, ()>(memoized(&memo, &found, spec, fid))
        })
        .unwrap();
        assert_eq!(found.get(), 3, "all stored cells found");
        assert_eq!(
            memo.borrow().len(),
            resumed.evaluated,
            "every scoring stored once"
        );
        assert_eq!(resumed, reference);
        assert_eq!(
            serde_json::to_string(&resumed.to_value()).unwrap(),
            serde_json::to_string(&reference.to_value()).unwrap(),
            "rendered results byte-identical across resume"
        );
    }

    #[test]
    fn completed_run_replays_everything_and_spends_identically() {
        let plan = small_request().plan().unwrap();
        let (memo, found) = (Memo::default(), Cell::new(0));
        let first = run(&plan, |spec, fid| {
            Ok::<_, ()>(memoized(&memo, &found, spec, fid))
        })
        .unwrap();
        assert_eq!(found.get(), 0);
        // A peek-only replay of a finished search evaluates nothing.
        let second = run(&plan, peek(&memo)).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.budget_spent, second.budget_spent);
    }

    #[test]
    fn algo_and_fidelity_wire_roundtrip() {
        assert_eq!(TuneAlgo::parse("halving"), Some(TuneAlgo::Halving));
        assert_eq!(TuneAlgo::parse("HillClimb"), Some(TuneAlgo::HillClimb));
        assert_eq!(TuneAlgo::parse("hill-climb"), Some(TuneAlgo::HillClimb));
        assert_eq!(TuneAlgo::parse("anneal"), None);
        assert_eq!(TuneAlgo::Halving.to_string(), "halving");
    }
}
