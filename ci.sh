#!/usr/bin/env bash
# Tier-1 gate: build, full test suite, lints, the engine identity tests
# by name, the daemon smokes, and paxbench's
# golden fingerprints. It holds no committed performance number: a
# performance claim is a paired parent-vs-change paxbench run (benchmark/).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

# The suite above ran these tests too; here they run again by name, and
# exactly COUNT must have run, so a rename or a filter cannot silently drop
# one. Usage: must_run COUNT CARGO-TEST-ARGS -- FILTER...
must_run() {
    local count=$1 out
    shift
    out=$(cargo test -q "$@" 2>&1) || {
        echo "$out"
        exit 1
    }
    echo "$out" | grep -q "test result: ok. $count passed" || {
        echo "${*: -1} did not run $count tests:"
        echo "$out"
        exit 1
    }
    echo "${*: -1}: $count passed"
}

# One test by its exact name. Usage: by_name TEST CARGO-TEST-ARGS...
by_name() {
    local name=$1
    shift
    must_run 1 "$@" -- --exact "$name"
}

echo "== content-hash golden digests (run by name) =="
# The pinned ConfigHash digests key every journal on disk.
by_name hash::tests::golden_digests_are_pinned -p paxsim-core --lib

echo "== trace identity and build memory: class T goldens, the codec's edges, the streaming encoder, the 5x5 factorization (run by name) =="
# Every kernel's class T trace (digest of the decoded ops, regions,
# interned regions, packed bytes, verdict) as recorded before the build
# path was optimized, the words shrank to four bytes and threads came to
# share equal words (packed bytes re-recorded, downward only), and its kept
# arrays canonical: no two hold equal words, no two regions of one label
# hold the same arrays at the same bases, as interning by identity
# requires; the codec round
# trip where inline and wide forms meet, and where runs stand for strided
# stretches of words; the streaming run encoder storing the same words
# however its input is chunked; a CG class S build whose heap never
# passes twice the words it keeps (plus 4 MiB), its own binary's
# allocator counting; an address at the ASID byte
# refused by the codec in this (non-debug-gated) test and, through
# TraceStore, as a typed BuildFailed; the factored 5x5 solve bit for bit
# against the one-shot elimination.
by_name class_t_traces_did_not_move -p paxsim-nas --test trace_goldens
by_name op::tests::properties::codec_edges_roundtrip -p paxsim-machine --lib
by_name trace::tests::properties::runs_roundtrip -p paxsim-machine --lib
by_name trace::tests::properties::chunked_pushes_encode_as_one_push -p paxsim-machine --lib
by_name a_cg_build_peaks_within_twice_what_it_keeps -p paxsim-nas --test build_memory
by_name op::tests::an_address_at_the_asid_byte_is_refused_in_every_build -p paxsim-machine --lib
by_name store::tests::an_address_at_the_asid_byte_fails_the_build_typed -p paxsim-core --lib
by_name cfd::tests::properties::lu5_solve_is_the_one_shot_elimination_bit_for_bit -p paxsim-nas --lib

echo "== pooled calibration, what the memo and a trace store once, linear string parse (run by name) =="
# Every row of the pooled calibrate() bit for bit its probe run alone; a
# run whose trace nobody else holds leaves nothing pinned in the region
# memo; snapshots share every cache chunk a region left alone, an aged
# image all of its source's, and the meter counts a shared chunk once; a
# packed cache canon restores to a cache that behaves as the original at
# any geometry and tag range, the width edge included, and costs at most
# two bytes a line, a predictor canon a quarter byte a counter; an
# eviction burst drops exactly the least recently used edges; threads that
# emit equal words hold one array; a 250 KB string parses in well under a
# second, and the vendored parser (outside the workspace run) decodes
# across its plain runs' edges.
by_name calibrate::tests::pooled_rows_equal_each_probe_run_alone -p paxsim-core --lib
by_name a_run_nobody_can_repeat_pins_nothing -p paxsim-machine --test memo
by_name cache::tests::canons_share_every_chunk_but_the_touched_sets -p paxsim-machine --lib
by_name cache::tests::an_aged_canon_shares_all_its_source_chunks -p paxsim-machine --lib
by_name engine::tests::metered_snapshot_bytes_cover_the_bytes_held -p paxsim-machine --lib
by_name cache::tests::properties::packed_canon_roundtrips -p paxsim-machine --lib
by_name cache::tests::properties::a_power_of_two_range_roundtrips -p paxsim-machine --lib
by_name cache::tests::a_warmed_canon_costs_at_most_two_bytes_a_line -p paxsim-machine --lib
by_name memo::tests::an_eviction_burst_drops_exactly_the_least_recently_used_edges -p paxsim-machine --lib
by_name team::tests::threads_with_equal_words_at_different_bases_hold_one_array -p paxsim-omp --lib
by_name protocol::tests::a_long_string_parses_in_linear_time -p paxsim-serve --lib
by_name tests::strings_decode_across_run_edges -p serde_json --lib

echo "== one driver per study (run by name) =="
# Each study has one sweep; the plain entry points run it under the empty
# policy. A failed cell panics the plain study with the build failure;
# the default policy (sentinel on) and the empty one agree bit for bit on
# every study; both pair studies resume from a torn journal and repair
# drift to the clean numbers; a peer's machine override with a geometry
# the cache or TLB constructors would panic on is refused at parse time.
by_name single::tests::a_failed_build_panics_the_plain_study -p paxsim-core --lib
by_name single::tests::the_default_policy_agrees_with_none_bit_for_bit -p paxsim-core --lib
by_name multi::tests::the_default_policy_agrees_with_none_bit_for_bit -p paxsim-core --lib
by_name cross::tests::the_default_policy_agrees_with_none_bit_for_bit -p paxsim-core --lib
by_name a_pair_study_resumes_from_a_truncated_journal_byte_identically -p paxsim-core --test resilience
by_name pair_study_drift_is_repaired_bit_identically -p paxsim-core --test resilience
by_name protocol::tests::a_machine_override_refuses_a_geometry_the_caches_would_panic_on -p paxsim-serve --lib

echo "== the caches against a textbook model (all eight kernels) =="
# l1d_miss, l2_miss and DTLB misses of every kernel at classes T and S,
# three L1 geometries, on Serial without the prefetcher, equal a model
# that shares no code with cache.rs or tlb.rs; one test per kernel.
must_run 8 -p paxsim-core --release --test cache_oracle

echo "== engine identity vs the reference (run by name) =="
# The four tests of `differential` that pin the fast engine to the
# reference — all Table 1 configs jittered and quiet, every kernel on one
# context under jitter, the multiprogrammed pairs — are the four whose
# names contain `reference`, and all four must have run. Each holds the
# fast engine with the process-default memo, consulted at every boundary,
# and with no memo, the plain fast path, to one reference run.
must_run 4 -p paxsim-core --release --test differential -- reference

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== service.rs size gate (non-test code lines) =="
# The miss pipeline is written once (module doc of service.rs); this file
# grew 1 075 -> 2 340 lines over three PRs with nobody looking. Count what
# is neither blank, comment nor test, under the `cargo fmt` checked above,
# and fail above the number the last PR to shrink it landed at. A PR that
# needs more room raises the ceiling in the same diff and says why.
SERVICE_CEILING=1110
SERVICE_LINES=$(sed '/^#\[cfg(test)\]/,$d' crates/serve/src/service.rs | grep -vc '^\s*\(//.*\)\?$')
echo "crates/serve/src/service.rs: ${SERVICE_LINES} non-test code lines (ceiling ${SERVICE_CEILING})"
[ "$SERVICE_LINES" -le "$SERVICE_CEILING" ] || {
    echo "service.rs regrew past its ceiling: fold the new code into the one miss pipeline, or raise SERVICE_CEILING and say why"
    exit 1
}

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== predicted-fidelity error gate (CG/EP/MG p95 <= 25%) =="
# The analytical model's p95 relative wall-cycle error across the
# calibration kernels must stay within the declared bound; the test
# fails if calibration drifts.
cargo test -q -p paxsim-predict --release --test fidelity_gate

echo "== two daemons, two fault plans, one process (run by name) =="
# Fault plans are values: a faulted and a clean daemon side by side, the
# first firing exactly its budget, the second nothing, same reply bytes.
by_name two_daemons_with_different_plans_share_a_process -p paxsim-serve --test chaos

echo "== SIGKILL-mid-sweep resume smoke =="
# Kill a journaled study partway through, resume it, and require the
# resumed report to be byte-identical to an uninterrupted run's.
cargo build --release -q --example resilient_study -p paxsim-core
RESIL_BIN=target/release/examples/resilient_study
RESIL_TMP=$(mktemp -d)
trap 'rm -rf "$RESIL_TMP"' EXIT
"$RESIL_BIN" "$RESIL_TMP/ref.jsonl" "$RESIL_TMP/ref.report"
"$RESIL_BIN" "$RESIL_TMP/kill.jsonl" "$RESIL_TMP/kill.report" & RESIL_PID=$!
sleep 1
kill -9 "$RESIL_PID" 2>/dev/null || true
wait "$RESIL_PID" 2>/dev/null || true
"$RESIL_BIN" "$RESIL_TMP/kill.jsonl" "$RESIL_TMP/kill.report"
cmp "$RESIL_TMP/ref.report" "$RESIL_TMP/kill.report"
echo "resumed report is byte-identical to the uninterrupted run"

echo "== a malformed PAXSIM_FAULTS is refused =="
# A typo in a fault plan stops the binary that reads it (exit 2, naming
# the fault) instead of letting it run clean. Usage: refuses_bad_plan CMD...
refuses_bad_plan() {
    local out code
    set +e
    out=$(PAXSIM_FAULTS="explode:now" timeout 20 "$@" 2>&1)
    code=$?
    set -e
    { [ "$code" -eq 2 ] && echo "$out" | grep -q "explode:now"; } || {
        echo "$1 under PAXSIM_FAULTS=explode:now exited $code, want 2 naming the fault: $out"
        exit 1
    }
    echo "$1 refused it: $out"
}
refuses_bad_plan "$RESIL_BIN" "$RESIL_TMP/bad.jsonl" "$RESIL_TMP/bad.report"
refuses_bad_plan target/release/paxsim-serve --unix "$RESIL_TMP/bad.sock" --cache "$RESIL_TMP/bad_cache"

echo "== serve daemon smoke (miss → hit, SIGTERM drain) =="
SERVE_TMP=$(mktemp -d)
SERVE_PID=""
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$RESIL_TMP" "$SERVE_TMP"' EXIT
SERVE_SOCK="$SERVE_TMP/serve.sock"
target/release/paxsim-serve --unix "$SERVE_SOCK" --cache "$SERVE_TMP/cache" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] || { echo "daemon never bound its socket"; exit 1; }
CLI=target/release/paxsim-cli
MISS=$("$CLI" --unix "$SERVE_SOCK" simulate --kernel ep --config CMP)
HIT=$("$CLI" --unix "$SERVE_SOCK" simulate --kernel ep --config CMP)
[ "$MISS" = "$HIT" ] || {
    echo "cache hit is not byte-identical to the miss:"
    echo "  miss: $MISS"
    echo "  hit:  $HIT"
    exit 1
}
STATS=$("$CLI" --unix "$SERVE_SOCK" stats)
echo "$STATS" | grep -q '"mem_hits":1' || {
    echo "hit counter did not increment: $STATS"
    exit 1
}
# Predicted-tier smoke: a fidelity=predicted round trip answers from the
# analytical model (reply carries fidelity + error_bounds), repeats
# byte-identical from its own cache key space, and leaves the default
# exact reply untouched byte for byte.
PRED1=$("$CLI" --unix "$SERVE_SOCK" simulate --kernel ep --config CMP --fidelity predicted)
PRED2=$("$CLI" --unix "$SERVE_SOCK" simulate --kernel ep --config CMP --fidelity predicted)
[ "$PRED1" = "$PRED2" ] || {
    echo "predicted hit is not byte-identical to the predicted miss:"
    echo "  miss: $PRED1"
    echo "  hit:  $PRED2"
    exit 1
}
echo "$PRED1" | grep -q '"fidelity":"predicted"' || {
    echo "predicted reply missing fidelity field: $PRED1"
    exit 1
}
echo "$PRED1" | grep -q '"error_bounds"' || {
    echo "predicted reply missing error_bounds: $PRED1"
    exit 1
}
EXACT_AGAIN=$("$CLI" --unix "$SERVE_SOCK" simulate --kernel ep --config CMP)
[ "$EXACT_AGAIN" = "$HIT" ] || {
    echo "predicted traffic perturbed the exact reply:"
    echo "  before: $HIT"
    echo "  after:  $EXACT_AGAIN"
    exit 1
}
STATS=$("$CLI" --unix "$SERVE_SOCK" stats)
echo "$STATS" | grep -q '"predict":{"served":1' || {
    echo "predicted tier not reported in stats: $STATS"
    exit 1
}
echo "predict smoke passed: byte-identical predicted hit, exact tier untouched"
# Autotune smoke: a budgeted op=tune over a tiny grid must return the
# same winner (with the same score) as an exhaustive sweep of that grid
# through the exact tier, and an identical repeat must replay
# byte-identical over the result cache.
TUNE_REPLY=$("$CLI" --unix "$SERVE_SOCK" tune --kernel ep --configs "CMP;CMT" --schedules static --budget 8)
TUNE_AGAIN=$("$CLI" --unix "$SERVE_SOCK" tune --kernel ep --configs "CMP;CMT" --schedules static --budget 8)
[ "$TUNE_REPLY" = "$TUNE_AGAIN" ] || {
    echo "finished tune did not replay byte-identical:"
    echo "  first:  $TUNE_REPLY"
    echo "  second: $TUNE_AGAIN"
    exit 1
}
# The result cache is the daemon's only store: its shards are all it writes.
STRAY=$(ls "$SERVE_TMP/cache" | grep -v '^shard-[0-9]*\.jsonl$' || true)
[ -z "$STRAY" ] || { echo "cache directory holds more than shards: $STRAY"; exit 1; }
# The normalized request echoes the grid's canonical config names in
# request order, so the sweep labels come straight from the reply.
CANON_CMP=$(printf '%s' "$TUNE_REPLY" | sed -n 's/.*"configs":\["\([^"]*\)","\([^"]*\)"\].*/\1/p')
CANON_CMT=$(printf '%s' "$TUNE_REPLY" | sed -n 's/.*"configs":\["\([^"]*\)","\([^"]*\)"\].*/\2/p')
BEST=$(printf '%s' "$TUNE_REPLY" | sed -n 's/.*"best_config":"\([^"]*\)".*/\1/p')
BEST_SPEEDUP=$(printf '%s' "$TUNE_REPLY" | sed -n 's/.*"speedup":\([0-9.eE+-]*\).*/\1/p')
SWEEP_CMP=$("$CLI" --unix "$SERVE_SOCK" simulate --kernel ep --config CMP \
    | sed -n 's/.*"speedup":{[^}]*"mean":\([0-9.eE+-]*\).*/\1/p')
SWEEP_CMT=$("$CLI" --unix "$SERVE_SOCK" simulate --kernel ep --config CMT \
    | sed -n 's/.*"speedup":{[^}]*"mean":\([0-9.eE+-]*\).*/\1/p')
awk -v cmp="$SWEEP_CMP" -v cmt="$SWEEP_CMT" \
    -v ncmp="$CANON_CMP" -v ncmt="$CANON_CMT" \
    -v best="$BEST" -v score="$BEST_SPEEDUP" 'BEGIN {
    want = (cmp + 0 >= cmt + 0) ? ncmp : ncmt
    wantscore = (cmp + 0 >= cmt + 0) ? cmp : cmt
    if (best != want) {
        printf "tune winner %s does not match exhaustive sweep winner %s (CMP %.4f, CMT %.4f)\n", best, want, cmp, cmt
        exit 1
    }
    if (score + 0 != wantscore + 0) {
        printf "tune score %.6f does not match sweep score %.6f\n", score, wantscore
        exit 1
    }
    printf "tune smoke passed: budgeted search picked %s (speedup %.2f), matching the exhaustive sweep\n", best, score
}'
# Observability smoke: the daemon runs obs-on by default; a metrics
# scrape must be Prometheus exposition text with a healthy series count,
# and the request counter must be monotonic across scrapes. The same
# line goes out three times between them: a miss, the hit that lets the
# line into the resolve memo, and a hit answered out of it.
SCRAPE1=$("$CLI" --unix "$SERVE_SOCK" metrics)
for _ in 1 2 3; do
    "$CLI" --unix "$SERVE_SOCK" simulate --kernel cg --config CMP > /dev/null
done
SCRAPE2=$("$CLI" --unix "$SERVE_SOCK" metrics)
SERIES=$(printf '%s\n' "$SCRAPE2" | grep -cv '^#')
[ "$SERIES" -ge 20 ] || {
    echo "metrics scrape too thin ($SERIES series):"
    printf '%s\n' "$SCRAPE2"
    exit 1
}
REQ1=$(printf '%s\n' "$SCRAPE1" | awk '$1 == "paxsim_serve_requests_total" { print $2 }')
REQ2=$(printf '%s\n' "$SCRAPE2" | awk '$1 == "paxsim_serve_requests_total" { print $2 }')
{ [ -n "$REQ1" ] && [ -n "$REQ2" ] && [ "$REQ2" -gt "$REQ1" ]; } || {
    echo "paxsim_serve_requests_total not monotonic: '$REQ1' -> '$REQ2'"
    exit 1
}
MEMO_HITS1=$(printf '%s\n' "$SCRAPE1" | awk '$1 == "paxsim_serve_resolve_memo_hits_total" { print $2 + 0 }')
MEMO_HITS2=$(printf '%s\n' "$SCRAPE2" | awk '$1 == "paxsim_serve_resolve_memo_hits_total" { print $2 + 0 }')
[ "${MEMO_HITS2:-0}" -gt "${MEMO_HITS1:-0}" ] || {
    echo "a line asked three times was never answered out of the resolve memo: paxsim_serve_resolve_memo_hits_total '$MEMO_HITS1' -> '$MEMO_HITS2'"
    exit 1
}
# The engine's memo table is sampled at scrape time: the CG request above
# recorded region edges, and their snapshots weigh something.
EDGES=$(printf '%s\n' "$SCRAPE2" | awk '$1 == "paxsim_machine_memo_edges" { print $2 + 0 }')
MEMO_BYTES=$(printf '%s\n' "$SCRAPE2" | awk '$1 == "paxsim_machine_memo_bytes" { print $2 + 0 }')
{ [ "${EDGES:-0}" -gt 0 ] && [ "${MEMO_BYTES:-0}" -gt 0 ]; } || {
    echo "memo gauges missing from the scrape: edges '$EDGES' bytes '$MEMO_BYTES'"
    exit 1
}
# The reactor counts its own wakeups (it has no tick: every one of them
# is a socket event, a completion, or a drain).
WAKEUPS=$(printf '%s\n' "$SCRAPE2" | awk '$1 == "paxsim_serve_reactor_wakeups_total" { print $2 + 0 }')
[ "${WAKEUPS:-0}" -gt 0 ] || {
    echo "paxsim_serve_reactor_wakeups_total missing from the scrape"
    exit 1
}
# A run the memo table answers in full builds no machine. The same point
# again with a second trial under a never-seen jitter is a new request
# whose quiet trial and quiet baseline the CG request above already
# recorded, so machines built must fall strictly behind runs.
"$CLI" --unix "$SERVE_SOCK" simulate --kernel cg --config CMP --trials 2 --jitter 1777 > /dev/null
SCRAPE3=$("$CLI" --unix "$SERVE_SOCK" metrics)
RUNS=$(printf '%s\n' "$SCRAPE3" | awk '$1 == "paxsim_machine_sim_runs_total" { print $2 + 0 }')
BUILT=$(printf '%s\n' "$SCRAPE3" | awk '$1 == "paxsim_machine_sim_machines_built_total" { print $2 + 0 }')
{ [ -n "$RUNS" ] && [ -n "$BUILT" ] && [ "$BUILT" -gt 0 ] && [ "$BUILT" -lt "$RUNS" ]; } || {
    echo "replayed runs still build machines: '$BUILT' built over '$RUNS' runs"
    exit 1
}
echo "obs smoke passed: $SERIES series, requests_total $REQ1 -> $REQ2, resolve memo hits ${MEMO_HITS1:-0} -> $MEMO_HITS2, memo $EDGES edges / $MEMO_BYTES B, $WAKEUPS reactor wakeups, $BUILT machines built over $RUNS runs"
# SIGTERM must drain gracefully: exit 0, socket file removed.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
[ ! -e "$SERVE_SOCK" ] || { echo "socket file not removed on drain"; exit 1; }
echo "serve smoke passed: byte-identical hit, counted, clean SIGTERM drain"

echo "== serve load smoke (reactor + batching + sharded cache, quick) =="
# The load generator self-asserts the scaling invariants — batch merging
# actually happened, per-shard hits + misses add up to requests +
# baseline fetches, more than one shard is populated, and the graceful
# drain flushed and joined everything — and exits nonzero on any
# violation. Quick mode shrinks the run; either way it writes no file.
target/release/paxsim-loadgen --quick

echo "== serve chaos smoke (connection kills + worker panics, quick) =="
# Phase 3 of the load generator: a fault plan kills connections and
# panics workers while self-healing clients reconnect and resend. The
# soak self-asserts zero hung requests, every request eventually ok, the
# conservation law by the server's own simulate count, and a clean drain.
target/release/paxsim-loadgen --quick --chaos

echo "== serve under PAXSIM_FAULTS (worker panic + journal write failure) =="
# The daemon's plan from the environment: the first worker job panics
# (retried transparently) and the
# first journal append fails (the put degrades to the memory tier). The
# miss -> hit pair must still be byte-identical, op=health must report
# the degradation, and SIGTERM must drain cleanly.
CHAOS_SOCK="$SERVE_TMP/chaos.sock"
PAXSIM_FAULTS="serve-worker-panic:1:1,journal-fail:1,tune-abort:2:1" \
    target/release/paxsim-serve --unix "$CHAOS_SOCK" --cache "$SERVE_TMP/chaos_cache" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$CHAOS_SOCK" ] && break; sleep 0.1; done
[ -S "$CHAOS_SOCK" ] || { echo "chaos daemon never bound its socket"; exit 1; }
FAULT_MISS=$("$CLI" --unix "$CHAOS_SOCK" simulate --kernel ep --config CMP)
FAULT_HIT=$("$CLI" --unix "$CHAOS_SOCK" simulate --kernel ep --config CMP)
[ "$FAULT_MISS" = "$FAULT_HIT" ] || {
    echo "hit under injected faults is not byte-identical to the miss:"
    echo "  miss: $FAULT_MISS"
    echo "  hit:  $FAULT_HIT"
    exit 1
}
HEALTH=$("$CLI" --unix "$CHAOS_SOCK" health)
echo "$HEALTH" | grep -q '"status":"ready"' || { echo "health not ready: $HEALTH"; exit 1; }
echo "$HEALTH" | grep -q '"put_failures":1' || {
    echo "degraded journal put not reported in health: $HEALTH"
    exit 1
}
# Tune resume under the same fault plan: the tune-abort kills the search
# on its second evaluation — after the first cell is cached — so the
# first request fails typed, and the retry resumes from the result cache
# and must render byte-for-byte what the clean daemon rendered for the
# identical request above.
set +e
TUNE_KILLED=$("$CLI" --unix "$CHAOS_SOCK" tune --kernel ep --configs "CMP;CMT" --schedules static --budget 8)
TUNE_KILLED_CODE=$?
set -e
[ "$TUNE_KILLED_CODE" -eq 1 ] || {
    echo "aborted tune must exit 1, got $TUNE_KILLED_CODE: $TUNE_KILLED"
    exit 1
}
echo "$TUNE_KILLED" | grep -q '"error":"panic"' || {
    echo "aborted tune must fail typed: $TUNE_KILLED"
    exit 1
}
TUNE_RESUMED=$("$CLI" --unix "$CHAOS_SOCK" tune --kernel ep --configs "CMP;CMT" --schedules static --budget 8)
[ "$TUNE_RESUMED" = "$TUNE_REPLY" ] || {
    echo "resumed tune is not byte-identical to the clean daemon's:"
    echo "  clean:   $TUNE_REPLY"
    echo "  resumed: $TUNE_RESUMED"
    exit 1
}
STATS=$("$CLI" --unix "$CHAOS_SOCK" stats)
echo "$STATS" | grep -q '"resumes":1' || {
    echo "tune resume not counted in stats: $STATS"
    exit 1
}
echo "tune resume smoke passed: typed failure, cache replay, byte-identical result"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
echo "fault-plan serve smoke passed: byte-identical under faults, degradation reported"

echo "== cli typed transport failure (connection refused, no panic) =="
# A client pointed at a dead socket must exit with the typed transport
# code (2) and a named diagnostic — never a panic, never a hang.
set +e
REFUSED_OUT=$("$CLI" --unix "$SERVE_TMP/nonexistent.sock" --retries 0 stats 2>&1)
REFUSED_CODE=$?
set -e
[ "$REFUSED_CODE" -eq 2 ] || {
    echo "expected typed exit 2 on connection refused, got $REFUSED_CODE: $REFUSED_OUT"
    exit 1
}
echo "$REFUSED_OUT" | grep -q "connect failed" || {
    echo "missing typed connect diagnostic: $REFUSED_OUT"
    exit 1
}
echo "cli transport failure is typed: exit 2, '$REFUSED_OUT'"

echo "== SIGKILL-mid-write journal torture (crash-safe recovery) =="
# Append records as fast as the journal allows, SIGKILL the writer mid
# append, reopen: at most the one in-flight record may be torn and the
# survivors must form a bit-exact contiguous prefix.
cargo build --release -q --example journal_torture -p paxsim-core
TORTURE_BIN=target/release/examples/journal_torture
"$TORTURE_BIN" write "$SERVE_TMP/torture.jsonl" & TORTURE_PID=$!
sleep 1
kill -9 "$TORTURE_PID" 2>/dev/null || true
wait "$TORTURE_PID" 2>/dev/null || true
"$TORTURE_BIN" check "$SERVE_TMP/torture.jsonl"

echo "== differential drift check on the quad-core topology =="
# The engine is data-driven over Topology; run the non-Table-1 quad-core
# (and L3-backed) differential suite once so a topology-conditional bug
# can't hide behind the dual-core default.
cargo test -q -p paxsim-core --release --test topology_differential

echo "== differential drift check with observability hooks live =="
# The whole-engine differential suite again, but with the obs layer (and
# its per-region profiling hooks) enabled from process start: the fast
# and reference engines must stay bit-identical with instrumentation on.
PAXSIM_OBS=1 cargo test -q -p paxsim-core --release --test differential
PAXSIM_OBS=1 cargo test -q -p paxsim-core --release --test obs_determinism

echo "== paxbench golden fingerprints (all five workloads, quick) =="
# Every SimOutcome, study digest and grid reply the benchmark produces is
# compared with benchmark/golden/goldens.tsv; a mismatch exits nonzero.
(cd benchmark && cargo run --release --offline --quiet -- all --quick)

echo "== retired harness names stay retired =="
# paxbench is the only performance harness. The two it replaced, their
# data files and their environment variable must not come back, and
# neither may a process-wide fault plan or the lock that serialized it,
# nor the region memo's process-wide budget hook and off switch, the trace
# content matcher that kept arrays made redundant, the daemon's stores
# beside the result cache, criterion, the second copy of each study
# driver, or the crate that held two binaries (history
# in CHANGES.md / ROADMAP.md, and benchmark/'s own prose, excepted). The
# one-letter brackets keep this line from matching itself.
if git grep -nE 'BENCH_[e]ngine|BENCH_[s]erve|engine_[t]hroughput|PAXSIM_BENCH_[Q]UICK|with_[p]lan|TEST_[L]OCK|init_from_[e]nv|set_budget_for_[t]ests|PAXSIM_DISABLE_[M]EMO|decodes_[t]o|criterion_[m]ain|tune\.[j]sonl|tune_[c]ache|TuneStat[s]|migrate_[l]egacy|run_[s]ingle_program_resilient|run_[m]ulti_program_resilient|run_[c]ross_product_resilient|paxsim-[b]ench' \
    -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark'; then
    echo "a retired benchmark name reappeared (see above)"
    exit 1
fi

echo "ci.sh: all gates passed"
