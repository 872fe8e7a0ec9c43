#!/usr/bin/env sh
# Hermetic verification: the whole workspace must build and test with the
# network off and nothing but the in-tree crates. Run from anywhere.
#
# The test suite runs twice — once at the harness default parallelism and
# once pinned to a single test thread. The campaign runner promises
# byte-identical reports for any worker count, and the two runs catch the
# class of bug that only shows up under one scheduling regime (shared
# state between tests, thread-count-dependent results).
set -eu

cd "$(dirname "$0")/.."

echo "verify: markdown link check (README + docs)"
sh scripts/check_links.sh

cargo build --release --offline --workspace

echo "verify: test pass 1/2 (default test threads)"
cargo test -q --offline --workspace

echo "verify: test pass 2/2 (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test -q --offline --workspace

echo "verify: rustdoc gate (missing/broken docs are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "verify: clippy gate (every target, warnings are errors)"
# clippy.toml pins the lint MSRV to the workspace's declared rust-version,
# so the gate also rejects std APIs newer than the MSRV.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "verify: campaign benchmark package tests (perfbench/)"
# The benchmark is a package of its own, outside the workspace, so the
# passes above do not reach it. Its tests check the committed per-campaign
# report fingerprints, 1-worker vs 2-worker report equality and the traced
# replay's fidelity to the real campaign.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "verify: campaign benchmark smoke (one full-budget smoke iteration)"
# The package tests check fingerprints at a twentieth of each budget only.
# One `smoke` iteration (all seven dialects at their full 3,000-statement
# budget, a few seconds) checks every campaign's report fingerprint at
# the size the benchmark runs. Its last line is the result object.
bench_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload smoke --seed 0 --seconds 1 --trace 0)"
bench_result="$(printf '%s\n' "$bench_out" | tail -n 1)"
case "$bench_result" in
    *'"correct": true'*'"failed": 0'*) ;;
    *)
        echo "verify: benchmark smoke failed: $bench_result" >&2
        exit 1
        ;;
esac

echo "verify: telemetry smoke (repro campaign + repro trace round trip)"
journal="$(mktemp -t soft-journal-XXXXXX).jsonl"
csvdir="$(mktemp -d -t soft-csv-XXXXXX)"
# `repro campaign` exits 3 when the campaign confirms crash findings and 4
# when it confirms wrong-result findings only (the documented exit-code
# contract, see EXPERIMENTS.md) — at this budget on ClickHouse a crash is
# the expected outcome, so accept 0, 3, or 4 and fail on anything else.
status=0
cargo run --release --offline -q -p soft-bench --bin repro -- \
    campaign clickhouse --budget 3000 --journal "$journal" > /dev/null || status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 3 ] && [ "$status" -ne 4 ]; then
    echo "verify: repro campaign exited $status (expected 0, 3, or 4)" >&2
    exit 1
fi
# Capture instead of piping into `grep -q`: quitting grep early would close
# the pipe mid-print and kill repro with SIGPIPE.
trace_out="$(cargo run --release --offline -q -p soft-bench --bin repro -- \
    trace "$journal" --csv "$csvdir")"
printf '%s\n' "$trace_out" | grep -q "^journal: ClickHouse"
test -s "$csvdir/pattern_yields.csv"
test -s "$csvdir/bug_curve.csv"
rm -rf "$journal" "$csvdir"

echo "verify: oracle smoke (wrong-result detection end to end)"
oracle_journal="$(mktemp -t soft-oracle-XXXXXX).jsonl"
oracle_findings="$(mktemp -d -t soft-oracle-findings-XXXXXX)"
# With the oracles armed, the shipped ClickHouse provenance quirk must be
# flagged: the run exits 3 (crashes found too at this budget) or 4 (logic
# findings only), never 0 — and the journal must carry the logic-bug row.
status=0
cargo run --release --offline -q -p soft-bench --bin repro -- \
    campaign clickhouse --budget 3000 --oracles --journal "$oracle_journal" \
    --findings "$oracle_findings" > /dev/null || status=$?
if [ "$status" -ne 3 ] && [ "$status" -ne 4 ]; then
    echo "verify: oracles-on campaign exited $status (expected 3 or 4)" >&2
    exit 1
fi
grep -q '"outcome": "logic-bug"' "$oracle_journal"
grep -q '"fault": "logic-multiform-tostring"' "$oracle_journal"
rm -f "$oracle_journal"
# The logic finding's bundle holds the PoC the logic minimiser shrank, and
# replaying every bundle re-judges it through the multi-form oracle.
test -s "$oracle_findings/logic-multiform-tostring/poc.sql"
oracle_replay="$(cargo run --release --offline -q -p soft-bench --bin repro -- \
    replay "$oracle_findings")"
printf '%s\n' "$oracle_replay" | grep -q "^replayed"
rm -rf "$oracle_findings"

echo "verify: forensics smoke (repro bundle + repro replay round trip)"
findings="$(mktemp -d -t soft-findings-XXXXXX)"
cargo run --release --offline -q -p soft-bench --bin repro -- \
    bundle clickhouse --budget 3000 --out "$findings" > /dev/null
replay_out="$(cargo run --release --offline -q -p soft-bench --bin repro -- \
    replay "$findings")"
printf '%s\n' "$replay_out" | grep -q "^replayed"

echo "verify: scheduler smoke (epoch reallocations journaled)"
sched_journal="$(mktemp -t soft-sched-XXXXXX).jsonl"
status=0
cargo run --release --offline -q -p soft-bench --bin repro -- \
    campaign clickhouse --budget 3000 --schedule --journal "$sched_journal" \
    > /dev/null || status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 3 ] && [ "$status" -ne 4 ]; then
    echo "verify: scheduled campaign exited $status (expected 0, 3, or 4)" >&2
    exit 1
fi
grep -q '"type": "epoch"' "$sched_journal"
rm -f "$sched_journal"

echo "verify: flight recorder smoke (campaign --spans + trace --chrome)"
# A spans-armed campaign must write a Chrome trace-event file (the binary
# validates the JSON with the in-tree validator before writing), and the
# offline `trace --chrome` export of a journal must do the same. Both
# exports land in the repo root (gitignored) so CI uploads them as the
# sample trace artifacts.
spans_journal="$(mktemp -t soft-spans-XXXXXX).jsonl"
status=0
spans_out="$(cargo run --release --offline -q -p soft-bench --bin repro -- \
    campaign clickhouse --budget 3000 --spans "$PWD" --stall-ms 10000 \
    --journal "$spans_journal")" || status=$?
if [ "$status" -ne 0 ] && [ "$status" -ne 3 ] && [ "$status" -ne 4 ]; then
    echo "verify: spans-armed campaign exited $status (expected 0, 3, or 4)" >&2
    exit 1
fi
# Spans are the campaign's only stage timer: the stage-latency table is a
# view of them, printed only with --spans, and must carry the parse and
# execute rows.
printf '%s\n' "$spans_out" | grep -q '^parse '
printf '%s\n' "$spans_out" | grep -q '^execute '
test -s clickhouse_trace.json
# The export is a JSON array of trace events: opens with `[`, and every
# event is a Chrome trace-event object.
head -c 1 clickhouse_trace.json | grep -q '\['
grep -q '"ph": "X"' clickhouse_trace.json
cargo run --release --offline -q -p soft-bench --bin repro -- \
    trace "$spans_journal" --chrome TRACE_journal.json > /dev/null
test -s TRACE_journal.json
head -c 1 TRACE_journal.json | grep -q '\['

echo "verify: compare smoke (the cross-campaign diff and its exit-code gate)"
# Campaigns are deterministic and a smaller budget plans an exact prefix
# of a larger one, so: identical runs diff clean (exit 0), small->large
# gains bugs only (exit 0), and large->small loses them (exit 5 — the CI
# regression gate). All three directions are load-bearing.
cmp_dir="$(mktemp -d -t soft-compare-XXXXXX)"
cargo run --release --offline -q -p soft-bench --bin repro -- \
    campaign clickhouse --budget 1500 --journal "$cmp_dir/small.jsonl" \
    > /dev/null || true
cargo run --release --offline -q -p soft-bench --bin repro -- \
    campaign clickhouse --budget 1500 --journal "$cmp_dir/small2.jsonl" \
    > /dev/null || true
status=0
cmp_out="$(cargo run --release --offline -q -p soft-bench --bin repro -- \
    compare "$cmp_dir/small.jsonl" "$cmp_dir/small2.jsonl")" || status=$?
if [ "$status" -ne 0 ]; then
    echo "verify: identical campaigns compared nonzero ($status)" >&2
    exit 1
fi
printf '%s\n' "$cmp_out" | grep -q "0 new, 0 lost"
status=0
cargo run --release --offline -q -p soft-bench --bin repro -- \
    compare "$cmp_dir/small.jsonl" "$spans_journal" --csv "$cmp_dir/csv" \
    > /dev/null || status=$?
if [ "$status" -ne 0 ]; then
    echo "verify: small->large compare exited $status (gained bugs only: expected 0)" >&2
    exit 1
fi
test -s "$cmp_dir/csv/compare_bugs.csv"
status=0
cargo run --release --offline -q -p soft-bench --bin repro -- \
    compare "$spans_journal" "$cmp_dir/small.jsonl" > /dev/null || status=$?
if [ "$status" -ne 5 ]; then
    echo "verify: large->small compare exited $status (lost bugs: expected 5)" >&2
    exit 1
fi
rm -rf "$cmp_dir" "$spans_journal"

echo "verify: repository smoke (repo init + ingest + a campaign consuming it)"
# The full operator loop: the forensics bundles from the smoke above are
# distilled into a seed repository, and a follow-up campaign consumes it.
# The ingested PoCs replay as phase-1 seeds, so the consumer must re-fire
# the donor's crashes even at a fraction of the donor's budget: exit 3.
repodir="$(mktemp -d -t soft-repo-XXXXXX)/seedrepo"
cargo run --release --offline -q -p soft-bench --bin repro -- \
    repo init "$repodir" > /dev/null
cargo run --release --offline -q -p soft-bench --bin repro -- \
    repo ingest "$repodir" "$findings" > /dev/null
stats_out="$(cargo run --release --offline -q -p soft-bench --bin repro -- \
    repo stats "$repodir")"
printf '%s\n' "$stats_out" | grep -q "entries"
status=0
cargo run --release --offline -q -p soft-bench --bin repro -- \
    campaign clickhouse --budget 1000 --repo "$repodir" > /dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "verify: repo-seeded campaign exited $status (expected 3: ingested PoCs re-fire)" >&2
    exit 1
fi
rm -rf "$findings" "$(dirname "$repodir")"

echo "verify: execute bench + batch regression gate (tiny budget, paired arms)"
# One short measurement window proves the bench builds, runs every arm,
# and emits its JSON artifact; the real numbers come from a full
# `cargo bench -p soft-bench --bench execute` (EXPERIMENTS.md, "Batch
# execution"). The artifact is left in the repo root (gitignored) so CI
# can upload it and the perf trajectory stays inspectable per PR.
# $PWD, not `.`: cargo runs the bench with the package directory as its
# working directory, and the artifact belongs in the repo root.
SOFT_BENCH_WARMUP_MS=1 SOFT_BENCH_MEASURE_MS=50 SOFT_BENCH_JSON_DIR="$PWD" \
    cargo bench --offline -q -p soft-bench --bench execute > /dev/null
test -s BENCH_execute.json

echo "verify: spans bench + flight-recorder overhead gate (paired arms)"
# The spans-off and spans-on arms alternate inside one measurement window
# (bench_pair), so their ratio is drift-robust even in a short smoke run.
# The recorder is per-shard Vec pushes with no locks; arming it must cost
# at most 5% statements/sec (measured ~1.5%, EXPERIMENTS.md "Flight
# recorder overhead").
SOFT_BENCH_WARMUP_MS=1 SOFT_BENCH_MEASURE_MS=50 SOFT_BENCH_JSON_DIR="$PWD" \
    cargo bench --offline -q -p soft-bench --bench spans > /dev/null
test -s BENCH_spans.json
spans_rates="$(sed -n 's/.*"label": "\([^"]*\)".*"items_per_sec": \([0-9.]*\).*/\1 \2/p' BENCH_spans.json)"
spans_off="$(printf '%s\n' "$spans_rates" | awk '$1 == "spans/ClickHouse/off" { print $2 }')"
spans_on="$(printf '%s\n' "$spans_rates" | awk '$1 == "spans/ClickHouse/on" { print $2 }')"
if [ -z "$spans_off" ] || [ -z "$spans_on" ]; then
    echo "verify: BENCH_spans.json is missing the paired spans arms" >&2
    exit 1
fi
awk -v off="$spans_off" -v on="$spans_on" 'BEGIN {
    if (on + 0 < 0.95 * off) {
        printf "verify: arming spans costs >5%% statements/sec (%.0f vs %.0f items/s)\n", on, off
        exit 1
    }
}' || exit 1

echo "verify: schedule bench smoke (static vs adaptive arms run end to end)"
# A tiny budget proves the comparison harness builds and runs every arm;
# the adaptive-vs-static yield gate only applies at the bench's default
# budget (see benches/schedule.rs), so the smoke stays fast and unflaky.
SOFT_SCHED_BENCH_BUDGET=1500 SOFT_BENCH_WARMUP_MS=1 SOFT_BENCH_MEASURE_MS=20 \
    SOFT_BENCH_JSON_DIR="$PWD" \
    cargo bench --offline -q -p soft-bench --bench schedule > /dev/null
test -s BENCH_schedule.json

# Batch-vs-prepared regression gate, read from the drift-robust *paired*
# samples (the bench alternates the two arms inside one measurement
# window, so the ratio is immune to thermal/frequency drift):
#   1. the kernel pair — batch vs prepared on the shape-grouped statements
#      the batch path actually runs — must not regress below prepared;
#   2. the whole-corpus batch arm must stay within 5% of prepared. It is
#      Amdahl-flat by construction (~half the corpus is singletons,
#      sub-threshold groups and aggregates that fall back to the scalar
#      path — EXPERIMENTS.md "Batch execution"), so the gate here is
#      "never meaningfully worse", while the kernel gate is "strictly
#      not slower".
bench_rates="$(sed -n 's/.*"label": "\([^"]*\)".*"items_per_sec": \([0-9.]*\).*/\1 \2/p' BENCH_execute.json)"
rate() {
    printf '%s\n' "$bench_rates" | awk -v l="execute/$1" '$1 == l { print $2 }'
}
for dialect in ClickHouse MonetDB; do
    gp="$(rate "$dialect/grouped-prepared")"
    gb="$(rate "$dialect/grouped-batch")"
    p="$(rate "$dialect/prepared")"
    bt="$(rate "$dialect/batch")"
    if [ -z "$gp" ] || [ -z "$gb" ] || [ -z "$p" ] || [ -z "$bt" ]; then
        echo "verify: BENCH_execute.json is missing execute arms for $dialect" >&2
        exit 1
    fi
    awk -v gp="$gp" -v gb="$gb" -v p="$p" -v bt="$bt" -v d="$dialect" 'BEGIN {
        if (gb + 0 < gp + 0) {
            printf "verify: %s batch kernel regressed below prepared (%.0f < %.0f items/s)\n", d, gb, gp
            exit 1
        }
        if (bt + 0 < 0.95 * p) {
            printf "verify: %s whole-corpus batch fell >5%% below prepared (%.0f vs %.0f items/s)\n", d, bt, p
            exit 1
        }
    }' || exit 1
done

echo "verify: OK (offline build + tests at both thread settings + docs + clippy + links + benchmark package tests + trace/oracle/forensics/scheduler/repository/flight-recorder/compare smoke + bench gates)"
