//! The execution engine: replays per-thread operation streams against the
//! shared hardware structures in near-causal order.
//!
//! The machine is a graph of hardware structures wired at construction
//! from the data-driven [`Topology`](crate::topology::Topology) description (see
//! [`Machine::build`]): hardware contexts feed cores, cores feed an
//! optional chip-shared L3, chips feed their front-side bus, buses feed
//! the shared memory controller. Every structure except the contexts is
//! *quiescent* — it never initiates work — so the event queue holds only
//! the contexts and simulated time advances directly from one context
//! event to the next ([`crate::component::EventScheduler`]), skipping
//! every cycle in which nothing happens.
//!
//! Each hardware context owns a local clock (in ticks). The engine always
//! advances the *least-advanced* runnable context by a small quantum, so
//! accesses to shared resources (issue ports, caches, predictor, buses)
//! arrive in approximately global time order while the whole simulation
//! stays a single deterministic sequential loop.
//!
//! Timing model per operation:
//!
//! * every uop reserves issue bandwidth on its core's shared issue server —
//!   when both SMT siblings are runnable they split the width, when one is
//!   stalled the other gets all of it (the essence of Hyper-Threading);
//! * independent loads overlap up to `mlp` outstanding misses, dependent
//!   loads serialize on the data;
//! * stores retire through a per-context write buffer (write-through L1,
//!   write-allocate L2);
//! * branch mispredicts flush the pipeline; trace-cache misses stall the
//!   front end; TLB misses pay a page walk;
//! * region ends are OpenMP barriers: early threads accumulate
//!   synchronization wait until the last arrives.

use std::cell::Cell;
use std::sync::Arc;

use crate::branch::Gshare;
use crate::bus::{transact, BusKind, Fsb, MemCtl};
use crate::cache::{Lookup, SetAssoc};
use crate::component::EventScheduler;
use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::cycles;
use crate::memo::{self, CoreSnap, MachineSnap, Memo, MemoStats};
use crate::op::{tag_address, unpack_at, Op, RUN_CAP};
use crate::prefetch::StreamPrefetcher;
use crate::sim::JobSpec;
use crate::tlb::Tlb;
use crate::topology::{Lcpu, Topology, Unit};
use crate::trace::Cursor;
use crate::trace_cache::TraceCache;
use crate::TPC;

/// Base of the simulated code segment; far above any data-arena address.
const CODE_BASE: u64 = 0x7f00_0000_0000;
/// Max uops issued per engine iteration, so long `Flops` runs interleave
/// fairly with the SMT sibling.
const FLOPS_CHUNK: u32 = 24;

/// Sentinel for "no line cached" in the repeated-reference filter.
const NO_LINE: u64 = u64::MAX;

/// Shared resources of one core.
struct CoreRes {
    issue_next_free: u64,
    fp_next_free: u64,
    l1d: SetAssoc,
    l2: SetAssoc,
    tc: TraceCache,
    itlb: Tlb,
    dtlb: Tlb,
    bp: Gshare,
    pf: StreamPrefetcher,
    /// Repeated-reference filter: the line of this core's most recent data
    /// reference, its L1 `ready_at`, and whether that reference was a store.
    /// A back-to-back reference to the same line is provably still an L1 and
    /// DTLB hit (nothing else touched either structure on this core), so
    /// the full lookup is skipped. Cleared when a remote store invalidates
    /// the line. The filter is per-core because L1/DTLB are shared by the
    /// SMT siblings.
    last_line: u64,
    last_ready: u64,
    last_was_store: bool,
}

impl CoreRes {
    fn new(cfg: &MachineConfig) -> Self {
        Self {
            issue_next_free: 0,
            fp_next_free: 0,
            l1d: SetAssoc::new(cfg.l1d),
            l2: SetAssoc::new(cfg.l2),
            tc: TraceCache::new(cfg.tc_uops),
            itlb: Tlb::new(cfg.itlb_entries, cfg.tlb_ways, cfg.page),
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.tlb_ways, cfg.page),
            bp: Gshare::new(cfg.bp_pht_bits, cfg.bp_ghr_bits),
            pf: StreamPrefetcher::new(cfg.pf_streams, cfg.pf_degree),
            last_line: NO_LINE,
            last_ready: 0,
            last_was_store: false,
        }
    }
}

/// The component graph of the simulated machine, sized and wired from the
/// [`Topology`] description — the paper's dual-core Xeon SMP, a quad-core
/// variant, and an L3-backed hierarchy are all just different descriptions
/// fed to the same engine.
struct Machine {
    cores: Vec<CoreRes>,
    /// One shared L3 per chip when the topology has one (empty otherwise).
    l3s: Vec<SetAssoc>,
    fsbs: Vec<Fsb>,
    mem: MemCtl,
}

impl Machine {
    /// Instantiate the components named by the topology's wiring. Every
    /// non-root unit appears exactly once as a wire source (enforced by
    /// the topology proptests), so counting sources sizes each tier.
    fn build(cfg: &MachineConfig, topo: Topology) -> Self {
        BUILT.set(BUILT.get() + 1);
        let (mut ncores, mut nl3, mut nfsb) = (0usize, 0usize, 0usize);
        for w in topo.wiring() {
            match w.from {
                Unit::Core { .. } => ncores += 1,
                Unit::L3 { .. } => nl3 += 1,
                Unit::Fsb { .. } => nfsb += 1,
                Unit::Ctx(_) | Unit::MemCtl => {}
            }
        }
        debug_assert_eq!(ncores, topo.cores());
        debug_assert_eq!(nfsb, topo.chips);
        Self {
            cores: (0..ncores).map(|_| CoreRes::new(cfg)).collect(),
            l3s: (0..nl3)
                .map(|_| SetAssoc::new(cfg.l3.expect("L3 wired but not configured").geom))
                .collect(),
            fsbs: (0..nfsb).map(|_| Fsb::default()).collect(),
            mem: MemCtl::default(),
        }
    }
}

thread_local! {
    static BUILT: Cell<u64> = const { Cell::new(0) };
}

/// Machines built so far by `simulate*` calls on this thread: a replayed
/// run builds none, so the difference across a call tells a replay from a
/// simulation (`machine.sim.machines_built`, and the tests that assert it).
#[doc(hidden)]
pub fn machines_built() -> u64 {
    BUILT.get()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Run,
    Barrier,
    Done,
}

/// How long `step_ctx` may keep a context before yielding to the scheduler.
///
/// The reference engine re-evaluates its linear scan after every quantum;
/// the fast engine exploits the fact that the scan provably re-picks the
/// same context for as long as its `(clock, index)` stays lexicographically
/// below every other runnable context's — so it lets `step_ctx` burn
/// through all of those back-to-back quanta in one call. No other context
/// steps in between, hence no shared structure is touched in a different
/// order and the replay stays bit-identical.
///
/// The reference scheduler's observable structure is its *quantum blocks*:
/// a dispatched context runs the ops whose start clock falls in
/// `[grant, grant + quantum)`, where each new grant is the context's clock
/// at the first op that overran the previous block — a walk that depends
/// only on the context's own op stream, never on scheduling. Blocks of
/// different contexts execute in lexicographic `(grant, index)` order.
/// Everything the fast engine does (quantum extension, run-ahead) preserves
/// exactly this block decomposition and block order for every op that can
/// touch shared state.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sched {
    /// One quantum, then return (the reference engine's granularity). Also
    /// selects the reference (filter-free) memory path.
    Quantum,
    /// Keep taking quanta while `(ctx.t, ci)` stays below this bound — the
    /// next-best heap entry. A stale bound only makes the context yield
    /// early, which the heap loop handles like any other quantum end.
    Until(u64, usize),
    /// Sole runnable context: nothing else can be scheduled before its
    /// region ends, so run to the region boundary without yielding.
    Sole,
}

/// Why `step_ctx` returned.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StepEnd {
    /// The context reached its region-end barrier (caller runs arrival
    /// bookkeeping).
    Arrived,
    /// The context must yield; re-enqueue it under this scheduler key (the
    /// grant clock of its pending quantum block).
    Yield(u64),
}

/// One hardware context's execution state.
struct Ctx {
    t: u64,
    /// The scheduler key this context was last enqueued under (its pending
    /// quantum block's grant clock — equal to `t` except when yielded
    /// mid-block at a gated memory op under run-ahead). Popped entries not
    /// matching this exact key are stale.
    key: u64,
    job: usize,
    thread: usize,
    lcpu: Lcpu,
    /// Index of this context's core in `Machine::cores` (topology-derived).
    core_idx: usize,
    /// Chip index, for bus and L3 selection.
    chip: usize,
    region: usize,
    /// Index of the context's next op in the segment its reader (in
    /// `JobState::readers`) is at.
    idx: usize,
    /// Remaining uops of a partially issued `Flops` op (0 = none pending).
    pending_uops: u32,
    /// Completion ticks of in-flight independent load misses.
    outstanding: Vec<u64>,
    /// Completion ticks of in-flight store-allocate misses (write buffer).
    wb: Vec<u64>,
    phase: Phase,
}

struct JobState {
    trace: Arc<crate::trace::ProgramTrace>,
    asid: u8,
    seed: u64,
    jitter: u64,
    start: u64,
    finish: u64,
    arrived: usize,
    counters: Counters,
    ctx_ids: Vec<usize>,
    /// Where each thread reads its buffer's words: apart from `Ctx`, so a
    /// running context borrows its segment from here beside `&mut Ctx`.
    /// Empty until a context first runs, so a replayed run allocates none.
    readers: Vec<Reader>,
    /// Barrier-release tick of each completed region, in order.
    region_ends: Vec<u64>,
}

/// Deterministic per-(job, region, thread) jitter in ticks, modeling OS
/// scheduling noise between trials.
fn jitter_ticks(seed: u64, region: usize, thread: usize, max_cycles: u64) -> u64 {
    if max_cycles == 0 {
        return 0;
    }
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((region as u64) << 32)
        .wrapping_add(thread as u64 + 1);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    cycles(x % (max_cycles + 1))
}

/// Result of a full simulation, before being shaped into the public API.
pub(crate) struct EngineOutcome {
    pub job_finishes: Vec<u64>,
    pub job_starts: Vec<u64>,
    pub job_counters: Vec<Counters>,
    pub job_region_ends: Vec<Vec<u64>>,
    pub memo: MemoStats,
    pub sched: crate::component::SchedStats,
}

/// Run the optimized engine: discrete-event context scheduling (quiescent
/// structures are skipped entirely), the repeated-reference fast path, and
/// run-ahead execution of core-local work when the SMT sibling is gone,
/// and region replay from `memo` when given one. Produces counters
/// bit-identical to [`run_reference`] (asserted by `paxsim-core`'s
/// differential tests).
pub(crate) fn run(cfg: &MachineConfig, specs: &[JobSpec], memo: Option<&Memo>) -> EngineOutcome {
    run_impl(cfg, specs, true, memo)
}

/// Run the seed-shaped reference engine: linear least-local-time scan and
/// full DTLB/L1/L2 lookups on every reference. Kept as the oracle for the
/// fast path and as the baseline for the throughput benchmark.
pub(crate) fn run_reference(cfg: &MachineConfig, specs: &[JobSpec]) -> EngineOutcome {
    run_impl(cfg, specs, false, None)
}

fn run_impl(
    cfg: &MachineConfig,
    specs: &[JobSpec],
    fast: bool,
    memo: Option<&Memo>,
) -> EngineOutcome {
    // Region memoization applies to a single job whose whole team starts
    // every region at one common clock, which is what makes a region's
    // evolution a pure function of (trace, machine state) up to a time
    // translation: a quiet (jitter-free) job, or — under jitter — a job of
    // one context, whose start offset nothing else on the machine sees.
    let aligned = |s: &JobSpec| s.jitter_cycles == 0 || s.placement.len() == 1;
    // An edge pins its region, and only a run presenting that region
    // pointer again can hit it. A trace nobody else holds, none of whose
    // regions repeats or is held elsewhere, can never be presented again:
    // recording its edges would only pin them. (Read before `JobState`
    // takes its own reference to the trace.)
    let repeatable = |s: &JobSpec| {
        Arc::strong_count(&s.trace) > 1 || s.trace.regions.iter().any(|r| Arc::strong_count(r) > 1)
    };
    let memo =
        memo.filter(|_| fast && specs.len() == 1 && aligned(&specs[0]) && repeatable(&specs[0]));
    let topo = Topology::of(cfg);
    let mut ctxs: Vec<Ctx> = Vec::new();
    let mut jobs: Vec<JobState> = Vec::new();
    let mut pf_buf: Vec<u64> = Vec::new();

    for (ji, spec) in specs.iter().enumerate() {
        let start = cycles(spec.start_delay_cycles);
        let mut ctx_ids = Vec::new();
        for (th, &lcpu) in spec.placement.iter().enumerate() {
            let t0 = start + jitter_ticks(spec.seed, 0, th, spec.jitter_cycles);
            ctx_ids.push(ctxs.len());
            ctxs.push(Ctx {
                t: t0,
                key: t0,
                job: ji,
                thread: th,
                lcpu,
                core_idx: topo.core_index(lcpu),
                chip: lcpu.chip as usize,
                region: 0,
                idx: 0,
                pending_uops: 0,
                outstanding: Vec::with_capacity(cfg.mlp + 1),
                wb: Vec::with_capacity(cfg.write_buffer + 1),
                phase: if spec.trace.regions.is_empty() {
                    Phase::Done
                } else {
                    Phase::Run
                },
            });
        }
        jobs.push(JobState {
            trace: spec.trace.clone(),
            asid: (ji + 1) as u8,
            seed: spec.seed,
            jitter: spec.jitter_cycles,
            start,
            finish: start,
            arrived: 0,
            counters: Counters::default(),
            ctx_ids,
            readers: Vec::new(),
            region_ends: Vec::with_capacity(spec.trace.regions.len()),
        });
    }

    // Map hardware context slots to engine contexts, then resolve each
    // context's SMT sibling (if the topology has one and it is populated)
    // once: phases only ever move forward, so the per-dispatch questions
    // ("is the sibling running?", "is it gone?") need just the index.
    let mut ctx_at: Vec<Option<usize>> = vec![None; topo.logical_cpus()];
    for (i, c) in ctxs.iter().enumerate() {
        ctx_at[topo.index(c.lcpu)] = Some(i);
    }
    let sib_at: Vec<Option<usize>> = ctxs
        .iter()
        .map(|c| topo.sibling(c.lcpu).and_then(|s| ctx_at[topo.index(s)]))
        .collect();

    let tpu = TPC / cfg.issue_width; // ticks per uop
    let mut memo_stats = MemoStats::default();
    let mut evq = EventScheduler::new();
    // Arm the per-region profiling collector (side channel: it only reads
    // values the engine already computed, never feeds back into timing).
    // The switch is read once per run; the hot loop sees a plain bool.
    let profiling = paxsim_obs::enabled();
    if profiling {
        let starts: Vec<u64> = jobs.iter().map(|j| j.start).collect();
        crate::profile::begin(&starts);
    }
    if let Some(memo) = memo {
        run_memoized(
            memo,
            cfg,
            topo,
            tpu,
            &sib_at,
            &mut ctxs,
            &mut jobs,
            &mut pf_buf,
            &mut memo_stats,
            &mut evq,
            profiling,
        );
    } else if fast {
        let mut m = Machine::build(cfg, topo);
        for ji in 0..jobs.len() {
            enqueue_team(ji, &mut ctxs, &jobs, &mut evq);
        }
        run_events(
            cfg,
            tpu,
            &sib_at,
            &mut ctxs,
            &mut m,
            &mut jobs,
            &mut pf_buf,
            &mut evq,
            profiling,
            false,
        );
    } else {
        let mut m = Machine::build(cfg, topo);
        loop {
            // Pick the least-advanced runnable context (deterministic
            // tie-break on index).
            let mut best: Option<usize> = None;
            for (i, c) in ctxs.iter().enumerate() {
                if c.phase == Phase::Run && best.is_none_or(|b| c.t < ctxs[b].t) {
                    best = Some(i);
                }
            }
            let Some(ci) = best else {
                break; // every context is Done (barriers release eagerly)
            };

            // Netburst statically partitions the load fill buffers and store
            // buffers between SMT siblings: a context with a *running*
            // sibling works with half the miss-level parallelism it gets
            // solo.
            let sibling_active = sib_at[ci].is_some_and(|s| ctxs[s].phase == Phase::Run);

            let end = step_ctx(
                cfg,
                tpu,
                sibling_active,
                false,
                Sched::Quantum,
                ci,
                ctxs[ci].t,
                &mut ctxs[ci],
                &mut m,
                &mut jobs,
                &mut pf_buf,
            );

            if end == StepEnd::Arrived {
                handle_arrival(cfg, ci, &mut ctxs, &mut jobs, profiling);
            }
        }
    }

    if profiling {
        crate::profile::finish();
    }

    EngineOutcome {
        job_finishes: jobs.iter().map(|j| j.finish).collect(),
        job_starts: jobs.iter().map(|j| j.start).collect(),
        job_counters: jobs.iter().map(|j| j.counters).collect(),
        job_region_ends: jobs.into_iter().map(|j| j.region_ends).collect(),
        memo: memo_stats,
        sched: evq.stats(),
    }
}

/// Fast-path driver with region-boundary memoization (a single quiet job,
/// or a single one-context job under jitter — see the gate in `run_impl`).
///
/// Every boundary probes `memo` (see `crate::memo`) for an earlier
/// execution — by this run or any before it on that memo — of the same
/// interned region from the same canonical machine state, and on a hit
/// replays the recorded deltas instead of re-simulating (the `memo` module
/// argues why that is exact). Two facts keep snapshots off the
/// steady-state path:
///
/// * **Chaining** — a hit leaves the machine in the edge's `post` class at
///   the release clock, and a recorded miss just computed `canon(machine)`
///   as its post-state. `canon` is idempotent, so that interned snapshot
///   *is* the next boundary's pre-state: `snapshot()` runs once per miss,
///   never per hit. The first boundary chains from the *pristine* snapshot
///   its run context pins (`Memo::run_context`): a machine nothing ran on
///   has every offset at 0 and every structure empty whatever the clock
///   and whoever is placed on it.
/// * **Ageing** — a jittered context starts its next region some ticks
///   after the release, and nothing else runs meanwhile (it is the only
///   context), so the pre-state there is `post` aged by that offset
///   (`Memo::aged`): the same pointer when the offset is 0 or `post` has
///   nothing in flight, otherwise offsets rewritten and one hash — still no
///   `snapshot()` and no look at the machine.
/// * **No machine until a miss** — a hit does not write the machine back,
///   and until a probe misses there is no machine to write to: it is built
///   at the first boundary whose region must be simulated and `restore`d
///   from that boundary's pre-state, exactly as a machine left behind by
///   earlier hits is. A fully replayed run never allocates one. (Nothing
///   reads machine state after the final region.)
#[allow(clippy::too_many_arguments)]
fn run_memoized(
    memo: &Memo,
    cfg: &MachineConfig,
    topo: Topology,
    tpu: u64,
    sib_at: &[Option<usize>],
    ctxs: &mut [Ctx],
    jobs: &mut [JobState],
    pf_buf: &mut Vec<u64>,
    stats: &mut MemoStats,
    evq: &mut EventScheduler,
    profiling: bool,
) {
    // Which contexts run a region is as evolution-relevant as the machine
    // state they start in, so the placement is part of every edge's key.
    let placement: Vec<Lcpu> = jobs[0].ctx_ids.iter().map(|&i| ctxs[i].lcpu).collect();
    // The concrete machine, once a region had to be simulated. A run
    // context seen for the first time builds it to take its pristine
    // snapshot, and this run — which is about to miss — keeps it.
    let mut m: Option<Machine> = None;
    let (run, pristine) = memo.run_context(cfg, &placement, || {
        snapshot(m.insert(Machine::build(cfg, topo)), 0)
    });
    // canon(machine) at the last release (or of the pristine machine).
    let mut cur = pristine;
    // Is the concrete machine at this boundary (false after a lazy hit)?
    let mut live = false;
    let lead = jobs[0].ctx_ids[0];
    while ctxs[lead].phase == Phase::Run {
        let r = ctxs[lead].region;
        let base = ctxs[lead].t;
        debug_assert!(
            jobs[0].ctx_ids.iter().all(|&i| ctxs[i].t == base
                && ctxs[i].idx == 0
                && jobs[0]
                    .readers
                    .get(ctxs[i].thread)
                    .is_none_or(|r| r.cursor == Cursor::default())
                && ctxs[i].phase == Phase::Run),
            "the team must start every region aligned"
        );
        stats.regions += 1;
        stats.probes += 1;
        // Before the first release the machine is pristine since clock 0;
        // nothing is in flight on it, so it ages to itself.
        let released = jobs[0].region_ends.last().copied().unwrap_or(0);
        let pre = memo.aged(cur, base - released);
        let key = memo::Key {
            run,
            region: Arc::as_ptr(&jobs[0].trace.regions[r]) as *const () as usize,
            pre: Arc::as_ptr(&pre) as usize,
            abs_base: (base < cfg.fp_queue).then_some(base),
        };
        if let Some((post, dt, dcounters)) = memo.probe(&key) {
            stats.hits += 1;
            let release = base + dt;
            // One scheduler event that jumps the whole region: the replay
            // is the ultimate quiescent skip.
            evq.jump(release);
            jobs[0].counters.add(&dcounters);
            for ctx in ctxs.iter_mut() {
                ctx.t = release; // arrived on time: no sync wait beyond Δcounters
            }
            release_team(0, ctxs, jobs, release, profiling, true);
            cur = post;
            live = false;
            continue;
        }
        let m = m.get_or_insert_with(|| Machine::build(cfg, topo));
        if !live {
            restore(m, &pre.state, base);
            live = true;
        }
        let counters_before = jobs[0].counters;
        evq.clear_queue();
        enqueue_team(0, ctxs, jobs, evq);
        run_events(
            cfg, tpu, sib_at, ctxs, m, jobs, pf_buf, evq, profiling, true,
        );
        // Not `ctxs[lead].t`: that already carries the next region's jitter.
        let release = *jobs[0].region_ends.last().expect("the region just ended");
        let post = memo.intern(snapshot(m, release));
        cur = Arc::clone(&post);
        let dcounters = jobs[0].counters.delta(&counters_before);
        let region = &jobs[0].trace.regions[r];
        memo.record(key, region, pre, post, release - base, dcounters);
    }
}

/// Enqueue job `ji`'s runnable contexts at their current clocks.
fn enqueue_team(ji: usize, ctxs: &mut [Ctx], jobs: &[JobState], evq: &mut EventScheduler) {
    for &i in &jobs[ji].ctx_ids {
        if ctxs[i].phase == Phase::Run {
            ctxs[i].key = ctxs[i].t;
            evq.push(ctxs[i].key, i);
        }
    }
}

/// Discrete-event scheduling: drain the lazy min-heap queue keyed by
/// (scheduler key, context index), where the key is the grant clock of the
/// context's pending quantum block (equal to its local clock except for a
/// run-ahead context parked at a gated memory op). Lexicographic `(key, i)`
/// ordering reproduces the reference scan's deterministic block order
/// (lowest grant, then lowest index). Entries are not removed when a
/// context blocks or advances; a popped entry is *validated* against the
/// context's current key and skipped when stale. Keys strictly increase per
/// context, so a stale entry can never masquerade as current.
///
/// With `one_region` (the memoizing driver, which rebuilds the queue at
/// every boundary) it returns at the first barrier release instead of
/// re-enqueueing the team. That is bit-identical to running on: stale
/// entries only cause validation skips or early yields — neither touches
/// machine state — so the sequence of state-mutating quanta (always the
/// lexicographically least `(key, index)` runnable context) is the same.
#[allow(clippy::too_many_arguments)]
fn run_events(
    cfg: &MachineConfig,
    tpu: u64,
    sib_at: &[Option<usize>],
    ctxs: &mut [Ctx],
    m: &mut Machine,
    jobs: &mut [JobState],
    pf_buf: &mut Vec<u64>,
    evq: &mut EventScheduler,
    profiling: bool,
    one_region: bool,
) {
    while let Some((t, ci)) = evq.pop() {
        if ctxs[ci].phase != Phase::Run || ctxs[ci].key != t {
            continue; // stale entry
        }
        evq.dispatched(t);
        let sib = sib_at[ci];
        let sibling_active = sib.is_some_and(|s| ctxs[s].phase == Phase::Run);
        // With the sibling gone for good (never mapped, or terminally
        // Done), every non-memory op touches only this core's private
        // state — such work may run ahead of the scheduler bound.
        let run_ahead = sib.is_none_or(|s| ctxs[s].phase == Phase::Done);
        // While this context runs, no other context's phase or clock
        // can change, so the yield bound is computed once per dispatch.
        let sched = match evq.peek() {
            None => Sched::Sole,
            Some((t2, i2)) => Sched::Until(t2, i2),
        };
        match step_ctx(
            cfg,
            tpu,
            sibling_active,
            run_ahead,
            sched,
            ci,
            t,
            &mut ctxs[ci],
            m,
            jobs,
            pf_buf,
        ) {
            StepEnd::Arrived => {
                if handle_arrival(cfg, ci, ctxs, jobs, profiling) {
                    if one_region {
                        return;
                    }
                    // Barrier released: re-enqueue the whole team at its
                    // post-barrier clocks.
                    enqueue_team(ctxs[ci].job, ctxs, jobs, evq);
                }
            }
            StepEnd::Yield(key) => {
                ctxs[ci].key = key;
                evq.push(key, ci);
            }
        }
    }
}

/// Capture the canonical replay-relevant machine state at boundary clock
/// `base`. Absolute ticks become offsets (`saturating_sub(base)`): any tick
/// at or before the boundary is behaviorally "free now" everywhere the
/// engine consumes it (always via `max`/`>` against a clock ≥ `base`), so
/// clamping to 0 merges states that cannot be distinguished by any replay.
fn snapshot(m: &Machine, base: u64) -> MachineSnap {
    MachineSnap {
        cores: m
            .cores
            .iter()
            .map(|c| CoreSnap {
                issue_off: c.issue_next_free.saturating_sub(base),
                fp_off: c.fp_next_free.saturating_sub(base),
                l1d: c.l1d.canon(base),
                l2: c.l2.canon(base),
                tc: c.tc.canon(),
                itlb: c.itlb.canon(base),
                dtlb: c.dtlb.canon(base),
                bp: c.bp.canon(),
                pf: c.pf.canon(),
                last_line: c.last_line,
                last_ready_off: c.last_ready.saturating_sub(base),
                last_was_store: c.last_was_store,
            })
            .collect(),
        l3s: m.l3s.iter().map(|l| l.canon(base)).collect(),
        fsb_offs: m
            .fsbs
            .iter()
            .map(|f| f.next_free.saturating_sub(base))
            .collect(),
        mem_off: m.mem.next_free.saturating_sub(base),
    }
}

/// Install the canonical state `snap` re-anchored at boundary clock `base`.
fn restore(m: &mut Machine, snap: &MachineSnap, base: u64) {
    for (c, s) in m.cores.iter_mut().zip(&snap.cores) {
        c.issue_next_free = base + s.issue_off;
        c.fp_next_free = base + s.fp_off;
        c.l1d.restore(&s.l1d, base);
        c.l2.restore(&s.l2, base);
        c.tc.restore(&s.tc);
        c.itlb.restore(&s.itlb, base);
        c.dtlb.restore(&s.dtlb, base);
        c.bp.restore(&s.bp);
        c.pf.restore(&s.pf);
        c.last_line = s.last_line;
        c.last_ready = base + s.last_ready_off;
        c.last_was_store = s.last_was_store;
    }
    for (l, s) in m.l3s.iter_mut().zip(&snap.l3s) {
        l.restore(s, base);
    }
    for (f, &off) in m.fsbs.iter_mut().zip(&snap.fsb_offs) {
        f.next_free = base + off;
    }
    m.mem.next_free = base + snap.mem_off;
}

/// Advance context `ci` for as long as `sched` allows (at least one op).
/// `key` is the scheduler key this dispatch was popped under — the grant
/// clock of the context's current quantum block.
///
/// With `run_ahead` set (fast engine, SMT sibling gone for good — never
/// mapped, or terminally `Done`), the context may keep executing past the
/// scheduler bound: FP work, branches and block fetches touch only this
/// core's private structures plus commutative counter additions, so other
/// contexts cannot observe them happening "early". Two things keep the
/// replay bit-identical to the reference while running ahead:
///
/// * the quantum *grant walk* (each block's grant clock is the context's
///   clock at the first op overrunning the previous block) is maintained
///   faithfully — it depends only on the op stream, and it decides which
///   block every future op belongs to;
/// * *memory* ops are gated: they touch cross-core state (coherence
///   snoops, the bus, the memory controller), and the reference executes
///   them inside their quantum block, blocks ordered by `(grant, index)`.
///   A memory op reached inside a block granted beyond the scheduler bound
///   (an *unauthorized* block) makes the context yield with its block's
///   grant clock as the scheduler key; when the heap re-dispatches that
///   key it is the global `(grant, index)` minimum, which is exactly the
///   reference's turn for this block.
#[allow(clippy::too_many_arguments)]
fn step_ctx(
    cfg: &MachineConfig,
    tpu: u64,
    sibling_active: bool,
    run_ahead: bool,
    sched: Sched,
    ci: usize,
    key: u64,
    ctx: &mut Ctx,
    m: &mut Machine,
    jobs: &mut [JobState],
    pf_buf: &mut Vec<u64>,
) -> StepEnd {
    let job = &mut jobs[ctx.job];
    let asid = job.asid;
    let ctr = &mut job.counters;
    // Disjoint field borrows: the trace is read-only while counters mutate.
    // The packed words are replayed directly from `seg`, the segment the
    // reader is at — a literal stretch of the stored words, or a run it
    // expanded — and `rest`, its words from the next op on (always an op
    // boundary — `unpack_at` returns the next one), held here rather than
    // behind `ctx`. Where `rest` starts goes back into `ctx` on return.
    let buf = &job.trace.regions[ctx.region].threads[ctx.thread];
    let (stored, base) = (buf.words(), buf.base());
    if job.readers.is_empty() {
        job.readers.resize_with(job.ctx_ids.len(), Reader::default);
    }
    let reader = &mut job.readers[ctx.thread];
    let mut seg = reader.segment(stored);
    let mut rest = &seg[ctx.idx..];
    let core_idx = ctx.core_idx;
    let slot = ctx.lcpu.ctx as usize;
    let fast = sched != Sched::Quantum;
    // Current quantum block: grant clock, end, and whether the scheduler
    // authorized it (a dispatch always authorizes the block it resumes —
    // its key was the global minimum).
    let mut grant = key;
    let mut authorized = true;
    let mut limit = if sched == Sched::Sole {
        u64::MAX // quantum boundaries are unobservable with nothing to yield to
    } else {
        grant + cfg.quantum
    };
    // Store buffers are hard-partitioned under SMT; the load
    // miss-level-parallelism limit is per-thread (scheduler-window bound)
    // and does not grow when running solo. The shared front end issues
    // slightly below 2× half-width when both contexts run (partitioning
    // tax).
    let mlp = cfg.mlp;
    let wb_cap = if sibling_active {
        cfg.write_buffer
    } else {
        cfg.write_buffer * 2
    };
    let tpu = if sibling_active { cfg.smt_tpu } else { tpu };

    let yielded = loop {
        let step = if rest.is_empty() {
            None
        } else {
            unpack_at(rest, base, 0)
        };
        let Some((op, len)) = step else {
            // The segment ended, or a run word starts `rest`.
            let at = seg.len() - rest.len();
            match reader.refill(at, stored) {
                Some(next) => (seg, rest) = (next, next),
                None => {
                    (seg, rest) = (&[], &[]);
                    break None;
                }
            }
            continue;
        };
        if ctx.t >= limit {
            // Quantum block boundary: grant the walk's next block.
            match sched {
                // Still below the next-best runnable context: the scheduler
                // would re-pick this context, so take the next quantum here.
                Sched::Until(t2, i2) if ctx.t < t2 || (ctx.t == t2 && ci < i2) => {
                    grant = ctx.t;
                    limit = grant + cfg.quantum;
                    authorized = true;
                }
                _ if run_ahead => {
                    // Beyond the scheduler bound, but invisible work may
                    // proceed: grant the block unauthorized.
                    grant = ctx.t;
                    limit = grant + cfg.quantum;
                    authorized = false;
                }
                _ => break Some(ctx.t),
            }
        }
        if !authorized && matches!(op, Op::Load { .. } | Op::LoadDep { .. } | Op::Store { .. }) {
            // A memory op inside an unauthorized block: park until the
            // scheduler reaches this block's merge position.
            break Some(grant);
        }
        match op {
            Op::Flops { n } => {
                if ctx.pending_uops == 0 {
                    ctx.pending_uops = n;
                }
                // FP work flows through the core's single FP unit, shared
                // by the SMT siblings (its rate, not the 3-wide issue,
                // bounds FP-dense code). The out-of-order window lets the
                // context run ahead of the FP backlog by `fp_queue` ticks;
                // only a sustained backlog throttles it.
                //
                // All chunks of the op that fit in this quantum replay in
                // one tight loop rather than re-dispatching through the op
                // match per chunk; each chunk still checks the quantum
                // limit first, exactly as the per-iteration path did.
                let core = &mut m.cores[core_idx];
                while ctx.pending_uops > 0 && ctx.t < limit {
                    let chunk = ctx.pending_uops.min(FLOPS_CHUNK);
                    let start = ctx.t.max(core.fp_next_free);
                    let cost = chunk as u64 * cfg.fp_tpu;
                    core.fp_next_free = start + cost;
                    let dispatch = chunk as u64 * tpu;
                    let visible =
                        (start + cost - cfg.fp_queue.min(start + cost)).max(ctx.t + dispatch);
                    ctr.ticks_issue += visible - ctx.t;
                    ctx.t = visible;
                    ctr.instructions += chunk as u64;
                    ctx.pending_uops -= chunk;
                }
                if ctx.pending_uops == 0 {
                    rest = &rest[len..];
                }
                continue;
            }
            Op::Load { addr } => {
                mem_ref(
                    cfg,
                    tpu,
                    mlp,
                    wb_cap,
                    fast,
                    ctx,
                    m,
                    ctr,
                    asid,
                    addr,
                    MemRef::Load,
                    pf_buf,
                );
            }
            Op::LoadDep { addr } => {
                mem_ref(
                    cfg,
                    tpu,
                    mlp,
                    wb_cap,
                    fast,
                    ctx,
                    m,
                    ctr,
                    asid,
                    addr,
                    MemRef::LoadDep,
                    pf_buf,
                );
            }
            Op::Store { addr } => {
                mem_ref(
                    cfg,
                    tpu,
                    mlp,
                    wb_cap,
                    fast,
                    ctx,
                    m,
                    ctr,
                    asid,
                    addr,
                    MemRef::Store,
                    pf_buf,
                );
            }
            Op::Branch { site, taken } => {
                let core = &mut m.cores[core_idx];
                issue(ctx, core, ctr, tpu);
                ctr.instructions += 1;
                ctr.branches += 1;
                let key = ((asid as u64) << 32) | site as u64;
                if !core.bp.execute(slot, key, taken) {
                    ctr.branch_mispredict += 1;
                    let p = cycles(cfg.bp_penalty);
                    ctx.t += p;
                    ctr.ticks_stall_branch += p;
                }
            }
            Op::Block { bb, uops, body } => {
                let core = &mut m.cores[core_idx];
                ctr.tc_access += 1;
                ctr.itlb_access += 1;
                let code_addr = tag_address(asid, CODE_BASE + (bb as u64) * 64);
                if !core.itlb.access(code_addr) {
                    ctr.itlb_miss += 1;
                    let p = cycles(cfg.tlb_walk);
                    ctx.t += p;
                    ctr.ticks_stall_tlb += p;
                }
                let key = ((asid as u64) << 32) | bb as u64;
                if !core.tc.access(key, uops.max(body) as u32) {
                    ctr.tc_miss += 1;
                    let p = cycles(cfg.tc_refill);
                    ctx.t += p;
                    ctr.ticks_stall_tc += p;
                }
                issue(ctx, core, ctr, uops as u64 * tpu);
                ctr.instructions += uops as u64;
            }
        }
        rest = &rest[len..];
    };
    ctx.idx = seg.len() - rest.len();
    if let Some(key) = yielded {
        return StepEnd::Yield(key);
    }

    if !authorized {
        // The region's final ops ran inside an unauthorized run-ahead
        // block. Arrival is globally visible — the barrier may release
        // teammates and flip this context's phase, both of which other
        // contexts observe through `sibling_active` — so it must happen
        // at the reference's merge position for that block, not at this
        // (earlier) dispatch. Park at the block's grant; the re-dispatch
        // finds the op stream exhausted and performs the drain + arrival.
        return StepEnd::Yield(grant);
    }

    // Region complete: drain in-flight memory operations before the barrier.
    if let Some(&max_out) = ctx.outstanding.iter().max() {
        if max_out > ctx.t {
            ctr.ticks_stall_mem += max_out - ctx.t;
            ctx.t = max_out;
        }
    }
    ctx.outstanding.clear();
    if let Some(&max_wb) = ctx.wb.iter().max() {
        if max_wb > ctx.t {
            ctr.ticks_stall_wb += max_wb - ctx.t;
            ctx.t = max_wb;
        }
    }
    ctx.wb.clear();
    StepEnd::Arrived
}

/// A context's [`Cursor`] and the buffer it expands runs into: empty until
/// the first run.
#[derive(Default)]
struct Reader {
    cursor: Cursor,
    x: Box<[u32]>,
}

impl Reader {
    #[inline(always)]
    fn segment<'a>(&'a self, stored: &'a [u32]) -> &'a [u32] {
        self.cursor.segment(stored, &self.x)
    }

    /// The segment after index `i` of this one ([`Cursor::refill`]), or
    /// `None` at the end of `stored`. Out of line, so the loop keeps only
    /// the segment and its index in registers.
    #[cold]
    #[inline(never)]
    fn refill<'a>(&'a mut self, i: usize, stored: &'a [u32]) -> Option<&'a [u32]> {
        if self.x.is_empty() {
            self.x = vec![0; RUN_CAP].into_boxed_slice();
        }
        self.cursor
            .refill(i, stored, &mut self.x)
            .then(|| self.cursor.segment(stored, &self.x))
    }
}

/// Reserve `cost` ticks of the core's shared issue bandwidth.
#[inline]
fn issue(ctx: &mut Ctx, core: &mut CoreRes, ctr: &mut Counters, cost: u64) {
    let start = ctx.t.max(core.issue_next_free);
    ctr.ticks_stall_issue += start - ctx.t;
    core.issue_next_free = start + cost;
    ctx.t = start + cost;
    ctr.ticks_issue += cost;
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MemRef {
    Load,
    LoadDep,
    Store,
}

/// Execute one memory reference through DTLB → L1 → L2 (→ shared L3, when
/// the topology has one) → bus.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn mem_ref(
    cfg: &MachineConfig,
    tpu: u64,
    mlp: usize,
    wb_cap: usize,
    fast: bool,
    ctx: &mut Ctx,
    m: &mut Machine,
    ctr: &mut Counters,
    asid: u8,
    addr: u64,
    kind: MemRef,
    pf_buf: &mut Vec<u64>,
) {
    let core_idx = ctx.core_idx;
    let chip = ctx.chip;
    let core = &mut m.cores[core_idx];
    issue(ctx, core, ctr, tpu);
    ctr.instructions += 1;
    let a = tag_address(asid, addr);
    let line = core.l1d.line_of(a);
    let is_store = kind == MemRef::Store;

    ctr.dtlb_access += 1;
    ctr.l1d_access += 1;

    // Repeated-reference fast path: the previous data reference on this
    // core touched the same line, and nothing has invalidated it since, so
    // the line is still resident and most-recently-used in both the DTLB
    // (same line ⇒ same page) and L1 — skipping the re-stamp preserves
    // every relative LRU ordering, hence the future hit/miss/evict sequence.
    // A store after a load must additionally keep L2's copy dirty: that is
    // the full path's single side effect beyond the no-op re-stamps (its
    // L1-hit store arm), so the filter performs exactly that access —
    // counter-free, like the full path — and stays exact.
    let ready = if fast && line == core.last_line {
        if is_store && !core.last_was_store {
            let _ = core.l2.access(line, true);
        }
        core.last_was_store = is_store;
        core.last_ready
    } else {
        // Data TLB.
        if !core.dtlb.access(a) {
            match kind {
                MemRef::Store => ctr.dtlb_miss_store += 1,
                _ => ctr.dtlb_miss_load += 1,
            }
            let p = cycles(cfg.tlb_walk);
            ctx.t += p;
            ctr.ticks_stall_tlb += p;
        }

        // L1 data cache (write-through: stores never dirty L1).
        let mut took_l1_miss = false;
        let ready = match core.l1d.access(line, false) {
            Lookup::Hit { ready_at } => {
                if kind == MemRef::Store {
                    // Write-through: keep L2's copy dirty when present. This
                    // is bookkeeping, not a demand reference, so no counters.
                    let _ = core.l2.access(line, true);
                }
                ready_at
            }
            Lookup::Miss => {
                took_l1_miss = true;
                ctr.l1d_miss += 1;
                ctr.l2_access += 1;
                let ready = match core.l2.access(line, is_store) {
                    Lookup::Hit { ready_at } => {
                        // Consuming a still-in-flight prefetched line keeps
                        // the stream trained so the frontier advances
                        // without waiting for a demand miss.
                        if cfg.prefetch && ready_at > ctx.t {
                            prefetch_after_miss(
                                cfg,
                                core,
                                &mut m.l3s,
                                chip,
                                &mut m.fsbs[chip],
                                &mut m.mem,
                                ctr,
                                line,
                                ctx.t,
                                pf_buf,
                            );
                        }
                        (ctx.t + cycles(cfg.l2_lat)).max(ready_at)
                    }
                    Lookup::Miss => {
                        ctr.l2_miss += 1;
                        // The fill comes from the chip-shared L3 when the
                        // topology has one, otherwise straight off the bus.
                        let done = match cfg.l3 {
                            Some(l3cfg) => {
                                let l3 = &mut m.l3s[chip];
                                ctr.l3_access += 1;
                                match l3.access(line, false) {
                                    Lookup::Hit { ready_at } => {
                                        (ctx.t + cycles(l3cfg.lat)).max(ready_at)
                                    }
                                    Lookup::Miss => {
                                        ctr.l3_miss += 1;
                                        ctr.bus_demand_read += 1;
                                        let done = transact(
                                            cfg,
                                            &mut m.fsbs[chip],
                                            &mut m.mem,
                                            ctx.t,
                                            BusKind::DemandRead,
                                        );
                                        if let Some(ev) = l3.install(line, false, done) {
                                            if ev.dirty {
                                                ctr.bus_write += 1;
                                                transact(
                                                    cfg,
                                                    &mut m.fsbs[chip],
                                                    &mut m.mem,
                                                    ctx.t,
                                                    BusKind::Write,
                                                );
                                            }
                                        }
                                        done
                                    }
                                }
                            }
                            None => {
                                ctr.bus_demand_read += 1;
                                transact(
                                    cfg,
                                    &mut m.fsbs[chip],
                                    &mut m.mem,
                                    ctx.t,
                                    BusKind::DemandRead,
                                )
                            }
                        };
                        if let Some(ev) = core.l2.install(line, is_store, done) {
                            if ev.dirty {
                                evict_dirty_l2(
                                    cfg,
                                    &mut m.l3s,
                                    chip,
                                    &mut m.fsbs[chip],
                                    &mut m.mem,
                                    ctr,
                                    ev.line,
                                    ctx.t,
                                );
                            }
                        }
                        // Let the stream prefetcher chase this miss.
                        if cfg.prefetch {
                            prefetch_after_miss(
                                cfg,
                                core,
                                &mut m.l3s,
                                chip,
                                &mut m.fsbs[chip],
                                &mut m.mem,
                                ctr,
                                line,
                                ctx.t,
                                pf_buf,
                            );
                        }
                        done
                    }
                };
                core.l1d.install(line, false, ready);
                ready
            }
        };

        // MESI-style ownership: a store that had to allocate (missed L1)
        // may have sharers on other cores — invalidate them and account the
        // snoop.
        if is_store && took_l1_miss {
            for (oi, other) in m.cores.iter_mut().enumerate() {
                if oi == core_idx {
                    continue;
                }
                let in_l1 = other.l1d.invalidate(line).is_some();
                let l2_state = other.l2.invalidate(line);
                if in_l1 || l2_state.is_some() {
                    ctr.coherence_invalidations += 1;
                    if l2_state == Some(true) {
                        // The remote dirty copy is written back on the snoop.
                        ctr.bus_write += 1;
                        transact(cfg, &mut m.fsbs[chip], &mut m.mem, ctx.t, BusKind::Write);
                    }
                }
                if other.last_line == line {
                    // The remote core's filter entry just lost its line.
                    other.last_line = NO_LINE;
                }
            }
            // Other chips' shared L3s may also hold the line; a dirty
            // remote copy is written back through that chip's own bus.
            for (oc, l3) in m.l3s.iter_mut().enumerate() {
                if oc == chip {
                    continue;
                }
                if let Some(dirty) = l3.invalidate(line) {
                    ctr.coherence_invalidations += 1;
                    if dirty {
                        ctr.bus_write += 1;
                        transact(cfg, &mut m.fsbs[oc], &mut m.mem, ctx.t, BusKind::Write);
                    }
                }
            }
        }

        let core = &mut m.cores[core_idx];
        core.last_line = line;
        core.last_ready = ready;
        core.last_was_store = is_store;
        ready
    };

    match kind {
        MemRef::LoadDep => {
            // Serialize on the data. Even an L1 hit costs the load-to-use
            // latency on the critical path.
            let avail = ready.max(ctx.t + cycles(cfg.l1_lat));
            if avail > ctx.t {
                let wait = avail - ctx.t;
                if ready > ctx.t + cycles(cfg.l1_lat) {
                    ctr.ticks_stall_mem += wait;
                } else {
                    // Pure pipeline latency: execution time, not a stall.
                    ctr.ticks_issue += wait;
                }
                ctx.t = avail;
            }
        }
        MemRef::Load => {
            if ready > ctx.t {
                ctx.outstanding.push(ready);
                retire(&mut ctx.outstanding, ctx.t);
                if ctx.outstanding.len() > mlp {
                    let min = pop_min(&mut ctx.outstanding);
                    if min > ctx.t {
                        ctr.ticks_stall_mem += min - ctx.t;
                        ctx.t = min;
                    }
                    retire(&mut ctx.outstanding, ctx.t);
                }
            }
        }
        MemRef::Store => {
            if ready > ctx.t {
                ctx.wb.push(ready);
                retire(&mut ctx.wb, ctx.t);
                if ctx.wb.len() > wb_cap {
                    let min = pop_min(&mut ctx.wb);
                    if min > ctx.t {
                        ctr.ticks_stall_wb += min - ctx.t;
                        ctx.t = min;
                    }
                    retire(&mut ctx.wb, ctx.t);
                }
            }
        }
    }
}

/// Retire a dirty private-L2 victim: into the chip's shared L3 when the
/// topology has one (non-inclusive, victim-style — only an L3 victim's
/// dirty eviction then reaches the bus), otherwise straight onto the bus.
#[allow(clippy::too_many_arguments)]
fn evict_dirty_l2(
    cfg: &MachineConfig,
    l3s: &mut [SetAssoc],
    chip: usize,
    fsb: &mut Fsb,
    mem: &mut MemCtl,
    ctr: &mut Counters,
    line: u64,
    now: u64,
) {
    match l3s.get_mut(chip) {
        Some(l3) => {
            if let Some(l3ev) = l3.install(line, true, now) {
                if l3ev.dirty {
                    ctr.bus_write += 1;
                    transact(cfg, fsb, mem, now, BusKind::Write);
                }
            }
        }
        None => {
            ctr.bus_write += 1;
            transact(cfg, fsb, mem, now, BusKind::Write);
        }
    }
}

/// Drop all completions at or before `now`.
#[inline]
fn retire(v: &mut Vec<u64>, now: u64) {
    v.retain(|&c| c > now);
}

#[inline]
fn pop_min(v: &mut Vec<u64>) -> u64 {
    let (i, &min) = v
        .iter()
        .enumerate()
        .min_by_key(|(_, &c)| c)
        .expect("pop_min on empty vec");
    v.swap_remove(i);
    min
}

/// Issue speculative prefetches for an established stream, but only while
/// the chip's bus has headroom.
#[allow(clippy::too_many_arguments)]
fn prefetch_after_miss(
    cfg: &MachineConfig,
    core: &mut CoreRes,
    l3s: &mut [SetAssoc],
    chip: usize,
    fsb: &mut Fsb,
    mem: &mut MemCtl,
    ctr: &mut Counters,
    line: u64,
    now: u64,
    pf_buf: &mut Vec<u64>,
) {
    pf_buf.clear();
    core.pf.on_demand_miss(line, pf_buf);
    for &pline in pf_buf.iter() {
        if fsb.backlog(now) > cycles(cfg.pf_bus_headroom) {
            break; // speculative traffic yields to demand traffic
        }
        if core.l2.contains(pline) {
            continue;
        }
        ctr.bus_prefetch += 1;
        let done = transact(cfg, fsb, mem, now, BusKind::Prefetch);
        if let Some(ev) = core.l2.install(pline, false, done) {
            if ev.dirty {
                evict_dirty_l2(cfg, l3s, chip, fsb, mem, ctr, ev.line, now);
            }
        }
    }
}

/// A context reached its region-end barrier. Returns `true` when it was the
/// last arriver and the whole team was released (or finished).
fn handle_arrival(
    cfg: &MachineConfig,
    ci: usize,
    ctxs: &mut [Ctx],
    jobs: &mut [JobState],
    profiling: bool,
) -> bool {
    let ji = ctxs[ci].job;
    ctxs[ci].phase = Phase::Barrier;
    jobs[ji].arrived += 1;
    let n = jobs[ji].trace.nthreads;
    if jobs[ji].arrived < n {
        return false;
    }
    // Last arriver: release everyone.
    jobs[ji].arrived = 0;
    let arrivals_max = jobs[ji].ctx_ids.iter().map(|&i| ctxs[i].t).max().unwrap();
    let release = if n > 1 {
        arrivals_max + cycles(cfg.barrier_lat)
    } else {
        arrivals_max
    };
    release_team(ji, ctxs, jobs, release, profiling, false);
    true
}

/// Move job `ji`'s team through the barrier of its current region at clock
/// `release` (a simulated arrival, or a region replayed from the memo
/// table): book the region, charge each context its wait, start the next
/// region or finish the job.
fn release_team(
    ji: usize,
    ctxs: &mut [Ctx],
    jobs: &mut [JobState],
    release: u64,
    profiling: bool,
    memo_replay: bool,
) {
    let job = &mut jobs[ji];
    job.region_ends.push(release);
    let next_region = ctxs[job.ctx_ids[0]].region + 1;
    let done = next_region >= job.trace.regions.len();
    for &i in &job.ctx_ids {
        job.counters.ticks_sync += release - ctxs[i].t;
        ctxs[i].t = release;
        if done {
            ctxs[i].phase = Phase::Done;
        } else {
            ctxs[i].phase = Phase::Run;
            ctxs[i].region = next_region;
            if let Some(reader) = job.readers.get_mut(ctxs[i].thread) {
                reader.cursor = Cursor::default();
            }
            ctxs[i].idx = 0;
            ctxs[i].pending_uops = 0;
            ctxs[i].t += jitter_ticks(job.seed, next_region, ctxs[i].thread, job.jitter);
        }
    }
    if done {
        job.finish = release;
    }
    if profiling {
        let region = &job.trace.regions[next_region - 1];
        crate::profile::on_region(
            ji,
            Arc::as_ptr(region) as *const () as usize,
            &region.label,
            release,
            &job.counters,
            memo_replay,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for seed in [0u64, 1, 99] {
            for r in 0..4 {
                for th in 0..4 {
                    let a = jitter_ticks(seed, r, th, 100);
                    let b = jitter_ticks(seed, r, th, 100);
                    assert_eq!(a, b);
                    assert!(a <= cycles(100));
                }
            }
        }
        assert_eq!(jitter_ticks(5, 1, 1, 0), 0);
    }

    #[test]
    fn jitter_varies_with_seed() {
        let vals: std::collections::HashSet<u64> =
            (0..32).map(|s| jitter_ticks(s, 1, 1, 1000)).collect();
        assert!(vals.len() > 16, "seeds should spread: {}", vals.len());
    }

    #[test]
    fn pop_min_and_retire() {
        let mut v = vec![30, 10, 20];
        assert_eq!(pop_min(&mut v), 10);
        assert_eq!(v.len(), 2);
        retire(&mut v, 25);
        assert_eq!(v, vec![30]);
    }

    /// The machine after context A0 ran `ops` as one region from clock 0,
    /// and the clock it arrived at the barrier.
    fn warmed(cfg: &MachineConfig, ops: Vec<Op>) -> (Machine, u64) {
        let mut m = Machine::build(cfg, Topology::of(cfg));
        let trace =
            crate::trace::ProgramTrace::single_region("warm", vec![ops.into_iter().collect()]);
        let mut jobs = [JobState {
            trace: Arc::new(trace),
            asid: 1,
            seed: 0,
            jitter: 0,
            start: 0,
            finish: 0,
            arrived: 0,
            counters: Counters::default(),
            ctx_ids: vec![0],
            readers: Vec::new(),
            region_ends: Vec::new(),
        }];
        let mut ctx = Ctx {
            t: 0,
            key: 0,
            job: 0,
            thread: 0,
            lcpu: Lcpu::A0,
            core_idx: Topology::of(cfg).core_index(Lcpu::A0),
            chip: 0,
            region: 0,
            idx: 0,
            pending_uops: 0,
            outstanding: Vec::new(),
            wb: Vec::new(),
            phase: Phase::Run,
        };
        let tpu = TPC / cfg.issue_width;
        let (sched, pf_buf) = (Sched::Sole, &mut Vec::new());
        let end = step_ctx(
            cfg, tpu, false, true, sched, 0, 0, &mut ctx, &mut m, &mut jobs, pf_buf,
        );
        assert!(end == StepEnd::Arrived);
        (m, ctx.t)
    }

    /// The meter — what the byte budget is held to — charges what the
    /// snapshots hold: never less, and within a tenth, with a chunk two
    /// snapshots share counted once. The trace is CG-shaped (streamed
    /// matrix rows, gathered vector entries, a result store per row) at
    /// class T scale; the real kernel lives downstream of this crate.
    #[test]
    fn metered_snapshot_bytes_cover_the_bytes_held() {
        let mut ops = Vec::new();
        for row in 0..1_400u64 {
            ops.push(Op::Block {
                bb: 7,
                uops: 3,
                body: 0,
            });
            for nz in 0..8 {
                ops.push(Op::Load {
                    addr: 0x10_0000 + (row * 8 + nz) * 8,
                });
                let col = (row * 37 + nz * 211) % 1_400;
                ops.push(Op::LoadDep {
                    addr: 0x80_0000 + col * 8,
                });
                ops.push(Op::Flops { n: 2 });
            }
            ops.push(Op::Store {
                addr: 0xc0_0000 + row * 8,
            });
            ops.push(Op::Branch {
                site: 7,
                taken: row != 1_399,
            });
        }
        let cfg = MachineConfig::paxville_smp();
        // The same run, and the same run with one more line stored: the
        // two machines differ in one set of each cache.
        let mut longer = ops.clone();
        longer.push(Op::Store { addr: 0xf0_0000 });
        let memo = Memo::default();
        let snaps = [ops, longer].map(|ops| {
            let (m, now) = warmed(&cfg, ops);
            memo.intern(snapshot(&m, now))
        });
        let l2 = |i: usize| &snaps[i].state.cores[0].l2;
        assert!(l2(0).heap_bytes(&mut HashSet::new()) > 8 * 1_024, "warmed");
        let held = |snaps: &[Arc<memo::Snap>]| {
            let mut seen = HashSet::new();
            let bytes = snaps.iter().map(|s| s.state.heap_bytes(&mut seen));
            bytes.sum::<usize>()
        };
        for pair in [&snaps[..1], &snaps[1..], &snaps[..]] {
            let (held, metered) = (held(pair), memo::metered(pair));
            assert!(
                held <= metered && metered * 10 <= held * 11,
                "metered {metered} B, held {held} B"
            );
        }
        // Each shared chunk once: the second snapshot adds its own few
        // changed chunks, not another copy of all of them.
        let (one, both) = (memo::metered(&snaps[..1]), memo::metered(&snaps));
        assert!(both < one + one / 5, "{one} B alone, {both} B together");
        assert_ne!(l2(0), l2(1));
    }

    mod properties {
        use super::*;
        use crate::config::CacheGeometry;
        use proptest::prelude::*;

        /// Loads in short ascending runs (so the prefetcher leaves fills in
        /// flight), stores, dependent loads, FP bursts and branches.
        fn arb_op() -> impl Strategy<Value = Op> {
            let line = |l: u64| 0x4_0000 + l * 64;
            prop_oneof![
                (0u64..512).prop_map(move |l| Op::Load { addr: line(l) }),
                (0u64..512).prop_map(move |l| Op::LoadDep { addr: line(l) }),
                (0u64..512).prop_map(move |l| Op::Store { addr: line(l) }),
                (1u32..200).prop_map(|n| Op::Flops { n }),
                (0u32..8, proptest::bool::ANY).prop_map(|(site, taken)| Op::Branch { site, taken }),
                (0u32..16).prop_map(|bb| Op::Block {
                    bb,
                    uops: 4,
                    body: 0
                }),
            ]
        }

        fn small_machine() -> MachineConfig {
            MachineConfig {
                l1d: CacheGeometry::new(1024, 2, 64),
                l2: CacheGeometry::new(8 * 1024, 4, 64),
                ..MachineConfig::paxville_smp()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// The lemma single-context jittered replay rests on: ageing a
            /// canonical state by `j` is taking it `j` ticks later.
            #[test]
            fn aged_snapshot_is_the_snapshot_taken_later(
                runs in proptest::collection::vec((arb_op(), 1u64..6), 1..120),
                dt in 0u64..200,
                j in prop_oneof![0u64..300, 0u64..3_000, 0u64..40_000],
            ) {
                // Each drawn memory op becomes a short ascending run.
                let ops = runs.into_iter().flat_map(|(op, n)| (0..n).map(move |k| match op {
                    Op::Load { addr } => Op::Load { addr: addr + k * 64 },
                    other => other,
                })).collect();
                let cfg = small_machine();
                let (m, now) = warmed(&cfg, ops);
                let t = now + dt;
                let young = snapshot(&m, t);
                prop_assert_eq!(&young.aged(j), &snapshot(&m, t + j));
                prop_assert_eq!(&young.aged(0), &young);
                // A settled state is its own aged image, and the interner
                // hands back the pointer it already holds for it.
                let memo = Memo::default();
                let settled = memo.intern(young.aged(u64::MAX));
                prop_assert!(settled.state.settled());
                prop_assert_eq!(&settled.state.aged(j), &settled.state);
                prop_assert!(Arc::ptr_eq(&memo.aged(settled.clone(), j), &settled));
                let young = memo.intern(young);
                prop_assert!(Arc::ptr_eq(&memo.aged(young.clone(), 0), &young));
                let later = memo.intern(snapshot(&m, t + j));
                prop_assert!(Arc::ptr_eq(&memo.aged(young, j), &later));
            }
        }
    }

    /// The pristine machine has one canonical state: whatever the boundary
    /// clock, and whoever is placed on it — so every placement of a config
    /// chains its first region from one pinned pointer.
    #[test]
    fn pristine_snapshot_is_one_pointer_at_any_base_for_any_placement() {
        use Lcpu as L;
        let memo = Memo::default();
        for cfg in [MachineConfig::paxville_smp(), MachineConfig::broadwell_l3()] {
            let pristine =
                |base| memo.intern(snapshot(&Machine::build(&cfg, Topology::of(&cfg)), base));
            let at0 = pristine(0);
            assert!(at0.state.settled());
            assert!(Arc::ptr_eq(&pristine(1), &at0));
            assert!(Arc::ptr_eq(&pristine(1_000_000_000), &at0));
        }
        // Table 1, Serial to HT on -8-2.
        let table1: [&[Lcpu]; 8] = [
            &[L::B0],
            &[L::A0, L::A1],
            &[L::B0, L::B1],
            &[L::A0, L::A1, L::A2, L::A3],
            &[L::B0, L::B2],
            &[L::A0, L::A1, L::A4, L::A5],
            &[L::B0, L::B1, L::B2, L::B3],
            &L::all(),
        ];
        let cfg = MachineConfig::paxville_smp();
        let fresh = || snapshot(&Machine::build(&cfg, Topology::of(&cfg)), 0);
        let pinned = table1.map(|placement| memo.run_context(&cfg, placement, fresh).1);
        assert!(pinned.iter().all(|p| Arc::ptr_eq(p, &pinned[0])));
        assert!(Arc::ptr_eq(&pinned[0], &memo.intern(fresh())));
    }

    #[test]
    fn machine_builds_from_topology_wiring() {
        let m = Machine::build(
            &MachineConfig::paxville_smp(),
            Topology::of(&MachineConfig::paxville_smp()),
        );
        assert_eq!(m.cores.len(), 4);
        assert_eq!(m.fsbs.len(), 2);
        assert!(m.l3s.is_empty());
        let b = MachineConfig::broadwell_l3();
        let m = Machine::build(&b, Topology::of(&b));
        assert_eq!(m.cores.len(), 4);
        assert_eq!(m.fsbs.len(), 1);
        assert_eq!(m.l3s.len(), 1);
    }
}
