#!/usr/bin/env bash
# Tier-1 gate: build, the full test suite, lints, the contracts the suite
# holds run again by name, and paxbench's golden fingerprints. It holds no
# committed performance number: a performance claim is a paired
# parent-vs-change paxbench run (benchmark/).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

# The suite above ran these tests too; here they run again by name, and
# exactly COUNT must have run, so a rename or a filter cannot silently drop
# one. Usage: must_run COUNT CARGO-TEST-ARGS [-- FILTER...]; libtest takes
# several `--exact` names at once, and COUNT is then how many there are.
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

echo "== trace identity and build memory (run by name) =="
# Every kernel's class T trace as recorded before the build path was
# optimized, its kept arrays canonical; the codec's edges and runs; the
# streaming encoder however its input is chunked; a CG class S build's heap
# within twice what it keeps; an address at the ASID byte refused by the
# codec and, through TraceStore, as a typed BuildFailed; the factored 5x5
# solve bit for bit against the one-shot elimination.
by_name class_t_traces_did_not_move -p paxsim-nas --test trace_goldens
by_name op::tests::properties::codec_edges_roundtrip -p paxsim-machine --lib
by_name trace::tests::properties::runs_roundtrip -p paxsim-machine --lib
by_name trace::tests::properties::chunked_pushes_encode_as_one_push -p paxsim-machine --lib
by_name a_cg_build_peaks_within_twice_what_it_keeps -p paxsim-nas --test build_memory
by_name op::tests::an_address_at_the_asid_byte_is_refused_in_every_build -p paxsim-machine --lib
by_name store::tests::an_address_at_the_asid_byte_fails_the_build_typed -p paxsim-core --lib
by_name cfd::tests::properties::lu5_solve_is_the_one_shot_elimination_bit_for_bit -p paxsim-nas --lib

echo "== recycled cache arrays, a machine bounded in bytes (run by name) =="
# A simulate after the first allocates no cache arrays; machines of two
# geometries on two threads match the reference and keep the spare list
# under its cap; a dropped cache leaves its arrays zero; a machine over
# the byte bound is refused typed before a worker allocates it.
by_name a_simulate_after_the_first_allocates_no_cache_arrays -p paxsim-machine --test machine_reuse
by_name two_threads_alternating_geometries_match_the_reference -p paxsim-machine --test machine_reuse
by_name cache::tests::properties::a_recycled_cache_is_a_new_one -p paxsim-machine --lib
by_name service::tests::a_machine_over_the_byte_bound_is_refused_before_any_worker_allocates_it -p paxsim-serve --lib

echo "== pooled calibration, the memo's snapshots, linear string parse (run by name) =="
# Pooled calibrate() rows bit for bit their probe runs alone; an
# unrepeatable run pins nothing in the memo; snapshots and aged images
# share untouched cache chunks, counted once; packed canons roundtrip at
# any geometry within two bytes a line; an eviction burst drops exactly the
# least recently used edges; equal thread words share one array; a 250 KB
# string parses in linear time, and the vendored parser (outside the
# workspace run) decodes across its plain runs' edges.
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

echo "== one driver per study, and studies that survive SIGKILL (run by name) =="
# A failed cell panics the plain study; the default policy and the empty
# one agree bit for bit; the pair studies resume from a torn journal and
# repair drift; a full cross resume builds no trace; a bad machine
# override is refused at parse time. A study SIGKILLed at its 40th
# journaled cell resumes byte-identically; a journal writer SIGKILLed
# mid-append keeps a lossless prefix; a malformed PAXSIM_FAULTS exits 2.
by_name single::tests::a_failed_build_panics_the_plain_study -p paxsim-core --lib
by_name single::tests::the_default_policy_agrees_with_none_bit_for_bit -p paxsim-core --lib
by_name multi::tests::the_default_policy_agrees_with_none_bit_for_bit -p paxsim-core --lib
by_name cross::tests::the_default_policy_agrees_with_none_bit_for_bit -p paxsim-core --lib
by_name cross::tests::a_fully_journaled_resume_builds_no_trace -p paxsim-core --lib
by_name a_pair_study_resumes_from_a_truncated_journal_byte_identically -p paxsim-core --test resilience
by_name pair_study_drift_is_repaired_bit_identically -p paxsim-core --test resilience
by_name protocol::tests::a_machine_override_refuses_a_geometry_the_caches_would_panic_on -p paxsim-serve --lib
must_run 3 -p paxsim-core --test resilience -- --exact a_sigkilled_study_resumes_byte_identically \
    a_journal_sigkilled_mid_append_keeps_a_lossless_prefix a_malformed_fault_plan_exits_2_naming_the_fault

echo "== the caches against a textbook model (all eight kernels) =="
# l1d_miss, l2_miss and DTLB misses of every kernel at classes T and S,
# three L1 geometries, on Serial without the prefetcher, equal a model
# that shares no code with cache.rs or tlb.rs; one test per kernel.
must_run 8 -p paxsim-core --release --test cache_oracle

echo "== engine identity vs the reference, obs off and on (run by name) =="
# The four checks whose names contain `reference` pin the fast engine, with
# the process-default memo and with none, to one reference run: all Table 1
# configs jittered and quiet, every kernel on one context, the pairs. obs_on
# runs all eight, and the recording check, with the obs layer live.
must_run 4 -p paxsim-core --release --test differential -- reference
must_run 9 -p paxsim-core --release --test obs_on

echo "== the daemon: real binaries, load phases, fault plans (run by name) =="
# Every contract of the real binaries, faulted or not (daemon); the load
# phases and chaos soak (load); two daemons with different plans in one
# process; service.rs under its ceiling of non-test code lines.
must_run 4 -p paxsim-serve --test daemon
must_run 1 -p paxsim-serve --test load
by_name two_daemons_with_different_plans_share_a_process -p paxsim-serve --test chaos
by_name service::tests::service_rs_stays_under_its_ceiling -p paxsim-serve --lib

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== paxbench golden fingerprints (all five workloads, quick) =="
# Every SimOutcome, study digest and grid reply the benchmark produces is
# compared with benchmark/golden/goldens.tsv; a mismatch exits nonzero.
(cd benchmark && cargo run --release --offline --quiet -- all --quick)

echo "== retired names stay retired =="
# The two performance harnesses paxbench replaced, their data files and
# environment variable, the process-wide fault plan and its lock, the
# memo's budget hook and off switch, the trace content matcher, the
# stores beside the result cache, criterion, the second copy of each
# study driver, the two-binary crate, the load generator, the torture
# example and the span ring's size variable (history in CHANGES.md /
# ROADMAP.md, and benchmark/'s own prose, excepted). The one-letter
# brackets keep this line from matching itself.
if git grep -nE 'BENCH_[e]ngine|BENCH_[s]erve|engine_[t]hroughput|PAXSIM_BENCH_[Q]UICK|with_[p]lan|TEST_[L]OCK|init_from_[e]nv|set_budget_for_[t]ests|PAXSIM_DISABLE_[M]EMO|decodes_[t]o|criterion_[m]ain|tune\.[j]sonl|tune_[c]ache|TuneStat[s]|migrate_[l]egacy|run_[s]ingle_program_resilient|run_[m]ulti_program_resilient|run_[c]ross_product_resilient|paxsim-[b]ench|paxsim-[l]oadgen|journal_[t]orture|PAXSIM_OBS_SPAN_[C]AP' \
    -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark'; then
    echo "a retired name reappeared (see above)"
    exit 1
fi

echo "ci.sh: all gates passed"
