#!/usr/bin/env sh
# Local CI: formatting, lints, tests. Run from the workspace root. The
# workspace has no external dependencies, so every step runs offline.
set -eu

# Runs `cargo test -q ARGS` and fails unless at least one test passed:
# cargo exits 0 when a name filter matches no test, so a renamed or
# deleted test would otherwise drop out of a suite without a trace.
named_test() {
    out=$(cargo test -q "$@" 2>&1) || {
        printf '%s\n' "$out"
        return 1
    }
    printf '%s\n' "$out"
    if ! printf '%s\n' "$out" | grep -Eq 'test result: ok\. [1-9][0-9]* passed'; then
        echo "no test ran for: cargo test -q $*" >&2
        return 1
    fi
}

echo "== zero-dependency guard =="
# every package is a path package: resolution must succeed offline
# against the committed lock file, which names no registry or git source
cargo metadata --offline --locked --format-version 1 >/dev/null
if grep -q '^source = ' Cargo.lock; then
    echo "Cargo.lock names an external package source" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy, per-crate (hot-path crates) =="
for crate in vqi-graph vqi-core catapult tattoo midas vqi-modular bench; do
    cargo clippy -p "$crate" --all-targets -- -D warnings
done

echo "== clippy unwrap/expect audit (pipeline crates; advisory warnings) =="
# the robustness layer routes stage failures through VqiError instead of
# unwinding, so new unwrap()/expect() in pipeline code deserves a look —
# advisory (-W) because the kernels legitimately expect() on invariants
for crate in catapult tattoo midas vqi-modular; do
    cargo clippy -p "$crate" -- -W clippy::unwrap_used -W clippy::expect_used
done

echo "== cargo build --release && cargo test =="
cargo build --release --workspace -q
cargo test --workspace -q

echo "== benchmark harness (builds perfbench against the workspace API) =="
# the harness drives vqi-serve and the pipelines through their public
# APIs, so an API change that breaks it fails here, not in a bench run
python3 perfbench/run.py --test

echo "== consistency tests (incremental greedy vs reference) =="
named_test -p vqi-core bitset
# the shared selection engine against its full-recompute reference,
# over both coverage universes (graph positions and edge ids)
named_test -p vqi-core incremental_greedy_matches_reference

echo "== kernel consistency tests (indexed/bounded kernels vs naive) =="
named_test -p vqi-graph indexed_matching_is_answer_identical_to_naive
# an unsound fingerprint filter silently drops query answers
named_test -p vqi-graph fingerprint_feasibility_is_necessary
named_test -p vqi-graph bounded_fold_is_bit_identical_to_exact_fold
named_test -p vqi-core bound_and_skip_changes_no_selection
# the shared collection query sweep (fingerprint-filtered, indexed)
# against a plain VF2 scan, with the service's and the wildcard options
# (the test sweeps caps 1/2/4 itself), `vqi search` against a per-graph
# scan, untouched slots keeping their index across an update, the select
# cache telling apart collections whose graphs share fingerprints, and
# one compiled pattern plan reused across targets matching fresh searches
named_test -p vqi-cli search_matches_a_plain_scan
for threads in 1 4; do
    echo "-- VQI_NUM_THREADS=$threads"
    VQI_NUM_THREADS=$threads named_test -p vqi-core filtered_indexed_query_is_bit_identical_to_a_plain_scan
    VQI_NUM_THREADS=$threads named_test -p vqi-serve update_keeps_the_index_of_every_untouched_slot
    VQI_NUM_THREADS=$threads named_test -p vqi-serve select_cache_tells_fingerprint_twins_apart
    VQI_NUM_THREADS=$threads named_test -p vqi-graph one_plan_reused_across_targets_equals_fresh_searches
done

echo "== thread-count invariance (parallel kernels vs sequential references) =="
# the whole suite must produce bit-identical selections at any worker
# count, so run the consistency tests twice with pinned defaults; the
# occurrence-driven subtree miner is checked against its
# generate-and-test oracle, the shared swap refiner against its
# per-pair reference loop (over bounded and exact candidates) and its
# held pair similarities against the plain set score (each pair
# computed once per call), the lazy
# greedy (exact coverage searched only where a bound can still win)
# against the eager loop over exact coverage, TATTOO's closed-form
# coverage bounds against the capped and uncapped searches they must
# contain, and the network maintainer's Major batches (same reports and
# searches at caps 1 and 4, fewer searches than inexact bounds), at
# both counts
for threads in 1 4; do
    echo "-- VQI_NUM_THREADS=$threads"
    VQI_NUM_THREADS=$threads named_test -p vqi-graph parallel_counts_match_reference_across_thread_counts
    VQI_NUM_THREADS=$threads named_test -p vqi-graph --test properties exact_census_matches_esu_oracle_on_both_backends_across_caps
    VQI_NUM_THREADS=$threads named_test -p vqi-graph --test properties census_maintainer_sequence_matches_esu_oracle
    VQI_NUM_THREADS=$threads named_test -p vqi-graph parallel_supports_and_trussness_match_reference_across_thread_counts
    VQI_NUM_THREADS=$threads named_test -p vqi-graph batch_canonicalization_matches_sequential_across_thread_counts
    VQI_NUM_THREADS=$threads named_test -p vqi-mining occurrence_miner_matches_generate_and_test_oracle
    VQI_NUM_THREADS=$threads named_test -p vqi-core refiner_matches_the_reference_swap_loop
    VQI_NUM_THREADS=$threads named_test -p vqi-core held_similarities_score_bit_identically_and_compute_each_pair_once
    VQI_NUM_THREADS=$threads named_test -p vqi-core lazy_greedy_equals_the_eager_loop
    VQI_NUM_THREADS=$threads named_test -p tattoo coverage_bounds_contain_every_embedding
    VQI_NUM_THREADS=$threads named_test -p tattoo maintainer_swaps_resolve_only_candidates_that_can_win
    VQI_NUM_THREADS=$threads named_test -p catapult selection_is_identical_across_thread_counts
    VQI_NUM_THREADS=$threads named_test -p tattoo selection_is_identical_across_thread_counts
    VQI_NUM_THREADS=$threads named_test -p midas maintenance_is_identical_across_thread_counts
    VQI_NUM_THREADS=$threads named_test -p vqi-modular selection_is_identical_across_thread_counts
done

echo "== incremental consistency suite (delta kernels vs from-scratch) =="
# the incremental maintainers must be bit-identical to a fresh peel /
# census after every batch, at any worker count: property tests sweep
# 12 seeds x insert/delete/mixed batches internally and pin caps 1/2/4,
# and 12 seeds of scripted edge cases (a pair removed and re-added,
# triangles removed together, a triangle closed by inserts only,
# appended nodes, hub endpoints) pin caps 1/4; the consumers (tattoo network maintainer, MIDAS cached
# census) re-verify against their own from-scratch paths, and the
# standalone truss and census maintainers, replayed as the churn
# benchmark replays them, must land on the network maintainer's region
# sizes, distribution and trussness after every batch; the in-place graph
# edit plus the patched index must equal a rebuild plus a fresh index
# build (16 seeds of edge-case batches), and the network maintainer its
# old rebuild path; the closed-form star coverage must equal an
# uncapped VF2 enumeration (12 hub-heavy seeds, some of which the capped
# search truncates, plus a star wider than the bounds' u8 tallies, which
# must not be flagged exact), `edge_coverage_bitsets` the plain capped
# search on a small network, and the network maintainer's per-batch
# coverage patch a from-scratch `edge_coverage_bitsets` after every batch (12
# seeds of minor and major batches with node appends, hub endpoints and
# a wildcard label entering the network); MIDAS's FCT index must
# hand out the exact VF2 feature vector of every live graph after every
# batch (12 seeds, with removals, tombstones and a skipped FCT stage)
for threads in 1 4; do
    echo "-- VQI_NUM_THREADS=$threads"
    VQI_NUM_THREADS=$threads named_test -p vqi-graph maintainer_matches_fresh_peel_across_batches
    VQI_NUM_THREADS=$threads named_test -p vqi-graph census_maintainer_matches_fresh_count_across_batches
    VQI_NUM_THREADS=$threads named_test -p vqi-graph deletion_edge_cases_match_fresh_peel
    VQI_NUM_THREADS=$threads named_test -p vqi-graph edge_case_batches_match_fresh_
    VQI_NUM_THREADS=$threads named_test -p tattoo incremental_kernels_and_caches_track_mutations
    VQI_NUM_THREADS=$threads named_test -p tattoo standalone_maintainers_match_the_network_maintainer
    VQI_NUM_THREADS=$threads named_test -p vqi-graph --test properties in_place_edit_and_patched_index_equal_a_rebuild
    VQI_NUM_THREADS=$threads named_test -p tattoo in_place_maintenance_equals_the_rebuild_oracle
    VQI_NUM_THREADS=$threads named_test -p vqi-core star_coverage_equals_uncapped_enumeration
    VQI_NUM_THREADS=$threads named_test -p vqi-core edge_coverage_bitsets_match_plain_covered_edges
    VQI_NUM_THREADS=$threads named_test -p tattoo patched_coverage_equals_a_fresh_recompute_after_every_batch
    VQI_NUM_THREADS=$threads named_test -p midas cached_census_matches_full_recompute
    VQI_NUM_THREADS=$threads named_test -p midas fct_vectors_
done

echo "== storage-equivalence suite (heap vs CSR backends, bit-identical) =="
# every large-network kernel must produce the same bits on the heap
# Graph and the packed CsrGraph: the vqi-graph property tests sweep 12
# seeds at caps 1/2/4 (trussness + census), the heap copy the sharded
# score phase matches against must keep the network's ids and edge order
# on both backends, the tattoo tests do the same for the sharded
# selection and check that every sharded coverage, on both backends,
# equals whole-network `edge_coverage_bitsets` (capped searches
# included), and the image round trip must preserve the digest — run the
# suite at one and four workers
for threads in 1 4; do
    echo "-- VQI_NUM_THREADS=$threads"
    VQI_NUM_THREADS=$threads named_test -p vqi-graph storage_
    VQI_NUM_THREADS=$threads named_test -p tattoo sharded_selection_matches_heap_backend
    VQI_NUM_THREADS=$threads named_test -p tattoo whole_network_scoring_equals_edge_coverage_bitsets
done

echo "== fault-injection suite (each test sweeps seeds 1 and 2 internally) =="
# every pipeline must end Complete or Degraded — never panic — with
# identical outcomes at any worker count, so run the suite pinned to
# one worker and to four
for threads in 1 4; do
    echo "-- VQI_NUM_THREADS=$threads"
    VQI_NUM_THREADS=$threads named_test -p catapult -p tattoo -p midas -p vqi-modular injected_
    VQI_NUM_THREADS=$threads named_test -p catapult -p tattoo -p midas -p vqi-modular fail_fast
    VQI_NUM_THREADS=$threads named_test -p tattoo crashed_shards_are_retried_to_a_complete_result
    VQI_NUM_THREADS=$threads named_test -p tattoo exhausted_retries_drop_shards_deterministically
    VQI_NUM_THREADS=$threads named_test -p tattoo a_panicked_score_phase_is_retried_or_recorded
    VQI_NUM_THREADS=$threads named_test -p midas failed_census_keeps_previous_gfd_and_skips_maintenance
done

echo "== trace validation (journal exporters + runtime-event integration) =="
# the checker tests run one pipeline with --trace-out and validate the
# emitted Chrome trace (balanced begin/end per thread, monotone
# timestamps, every parent_id resolving) plus the fault/degradation
# instants and per-run metric deltas
named_test -p vqi-observe journal
named_test -p vqi-cli trace_out
# end-to-end: a real CLI run must emit a parseable trace and a metrics
# snapshot carrying the kernel.* and fault.* counter families
cargo build -q -p vqi-cli
trace_dir=$(mktemp -d)
target/debug/vqi dataset --kind dblp --out "$trace_dir/net.json" --size 120 --seed 7 >/dev/null
target/debug/vqi construct --input "$trace_dir/net.json" --selector tattoo \
    --trace-out "$trace_dir/trace.json" --metrics=json >/dev/null 2>"$trace_dir/metrics.json"
grep -q '"ph":"B"' "$trace_dir/trace.json"
grep -q '"ph":"E"' "$trace_dir/trace.json"
grep -q '"kernel\.' "$trace_dir/metrics.json"
# the table's profile comes from the journal, the one span tree
target/debug/vqi construct --input "$trace_dir/net.json" --selector tattoo \
    --metrics >/dev/null 2>"$trace_dir/metrics.txt"
grep -q '== profile (total vs self) ==' "$trace_dir/metrics.txt"
grep -q 'critical path:' "$trace_dir/metrics.txt"
rm -rf "$trace_dir"
# every pipeline's span tree (profile paths and counts) and event
# multiset must be identical at caps 1/2/4, sharded TATTOO's spans on
# par workers included; named so a renamed test cannot drop out
named_test -p catapult -p tattoo -p midas -p vqi-modular observability_is_identical_across_thread_counts

echo "== serve smoke (loopback session mix, snapshot-isolation verified) =="
# boot the multi-tenant service core and drive a mixed burst at one and
# four kernel workers: zero panics, every completed selection verified
# bit-identical on its pinned snapshot, and the recorded trace journal
# balanced (the serve command exits nonzero on imbalance)
cargo test -q -p vqi-serve
serve_dir=$(mktemp -d)
for threads in 1 4; do
    echo "-- VQI_NUM_THREADS=$threads"
    VQI_NUM_THREADS=$threads target/debug/vqi serve --graphs 14 --sessions 4 \
        --requests 6 --count 3 --min-size 3 --max-size 5 \
        --trace-out "$serve_dir/serve_trace_$threads.json" >"$serve_dir/out_$threads.txt"
    grep -q 'balanced: yes' "$serve_dir/out_$threads.txt"
    grep -q 'isolation:' "$serve_dir/out_$threads.txt"
done
rm -rf "$serve_dir"

echo "== crash-recovery suite (WAL + checkpoints, bit-identical restarts) =="
# the durable log property tests (torn tails, corrupt checkpoints,
# rotation/pruning) plus the crash matrix: a sacrificial child process
# is killed at every injection site in the update path and recovery
# must restore a collection whose digest and select/query outputs are
# bit-identical to an uncrashed run — at one and four kernel workers
for threads in 1 4; do
    echo "-- VQI_NUM_THREADS=$threads"
    VQI_NUM_THREADS=$threads named_test -p vqi-serve durable_
    VQI_NUM_THREADS=$threads named_test -p vqi-serve crash_matrix_recovers_bit_identical_state
    VQI_NUM_THREADS=$threads named_test -p vqi-serve concurrent_updates_publish_contiguous_epochs_in_lock_order
done

echo "== corrupt-input suite (WAL segments + VQICSR01 images) =="
# every byte-truncation and bit-flip of a WAL segment or a CSR image
# must yield a clean truncation/Parse error — never a panic or an
# OOM-sized allocation
named_test -p vqi-graph wal
named_test -p vqi-graph storage_image_truncation_and_bitflip_sweeps_yield_parse_errors
named_test -p vqi-serve durable_corrupt_checkpoints_are_rejected

echo "== durable serve smoke (bootstrap, restart, recover report) =="
# boot a durable service, drive load, then restart from the WAL dir:
# the second run must recover (not re-bootstrap), and the recover
# subcommand must report the directory as intact
wal_dir=$(mktemp -d)/wal
target/debug/vqi serve --graphs 10 --sessions 2 --requests 4 --update-every 2 \
    --count 3 --min-size 3 --max-size 5 --checkpoint-every 2 \
    --wal-dir "$wal_dir" >"$wal_dir.out1.txt"
grep -q 'bootstrapped durable log' "$wal_dir.out1.txt"
target/debug/vqi recover --wal-dir "$wal_dir" >"$wal_dir.report.txt"
grep -q 'recovered' "$wal_dir.report.txt"
grep -q 'digest' "$wal_dir.report.txt"
target/debug/vqi serve --graphs 10 --sessions 2 --requests 4 --update-every 2 \
    --count 3 --min-size 3 --max-size 5 --checkpoint-every 2 \
    --wal-dir "$wal_dir" >"$wal_dir.out2.txt"
grep -q 'recovered' "$wal_dir.out2.txt"
rm -rf "$(dirname "$wal_dir")"

echo "CI OK"
