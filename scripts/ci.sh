#!/usr/bin/env sh
# Tier-1 gate. Runs fully offline: the workspace has zero external
# dependencies (vendored PRNG, self-timed benches), so no registry or
# network access is ever needed.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc -D warnings on the missing_docs-gated crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p fastsim-core -p fastsim-memo -p fastsim-serve -p fastsim-fuzz -p fastsim-hash \
    -p fastsim-mem

echo "==> docs link check"
scripts/check_links.sh

echo "==> bench smoke: memo_hotpath on a tiny workload"
# A fast schema check, not a measurement: run the trajectory benchmark on
# one small workload and validate that the JSON it writes carries every
# key the recorded BENCH_memo.json trajectory depends on.
SMOKE_OUT="target/bench_memo_smoke.json"
cargo run --release -q -p fastsim-bench --bin memo_hotpath -- \
    --insts 20000 --filter compress --out "$SMOKE_OUT"
for key in '"schema": "fastsim-memo-hotpath/v1"' \
    '"insts_per_workload"' '"debug_build"' '"workloads"' \
    '"configs_per_sec"' '"encode_ns_per_config"' '"hit_rate"' \
    '"ff_speedup"' '"slow_ms"' '"cold_ms"' '"warm_ms"' '"summary"' \
    '"configs_per_sec_geomean"' '"encode_ns_per_config_geomean"' \
    '"hit_rate_mean"' '"ff_speedup_geomean"'; do
    grep -qF "$key" "$SMOKE_OUT" || {
        echo "bench smoke: missing $key in $SMOKE_OUT" >&2
        exit 1
    }
done
echo "==> bench smoke passed ($SMOKE_OUT)"

echo "==> serve smoke: cold + warm client against a live server"
# Start the server on a private Unix socket, run the example client
# twice (different client names), and check the serving contract:
# the deterministic result rows (non-# lines) must be identical between
# the cold and the warm client, and the final metrics dump must carry
# the documented schema.
SERVE_SOCK="target/ci_serve.sock"
SERVE_METRICS="target/ci_serve_metrics.json"
SERVE_SNAPDIR="target/ci_serve_snapshots"
rm -f "$SERVE_SOCK" "$SERVE_METRICS"
rm -rf "$SERVE_SNAPDIR"
target/release/fastsim_served --unix "$SERVE_SOCK" --workers 2 \
    --refreeze-every 2 --metrics-file "$SERVE_METRICS" \
    --snapshot-dir "$SERVE_SNAPDIR" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SERVE_SOCK" ] && break
    sleep 0.1
done
[ -S "$SERVE_SOCK" ] || { echo "serve smoke: server never bound" >&2; exit 1; }
cargo run --release -q -p fastsim-serve --example serve_smoke -- \
    --unix "$SERVE_SOCK" --client cold --insts 20000 --replicas 2 \
    > target/ci_serve_cold.txt
cargo run --release -q -p fastsim-serve --example serve_smoke -- \
    --unix "$SERVE_SOCK" --client warm --insts 20000 --replicas 2 \
    --shutdown > target/ci_serve_warm.txt
wait "$SERVE_PID"
grep -v '^#' target/ci_serve_cold.txt > target/ci_serve_cold.rows
grep -v '^#' target/ci_serve_warm.txt > target/ci_serve_warm.rows
if ! diff target/ci_serve_cold.rows target/ci_serve_warm.rows; then
    echo "serve smoke: cold and warm clients disagree on results" >&2
    exit 1
fi
for key in '"schema": "fastsim-serve-metrics/v1"' '"submitted": 8' \
    '"completed": 8' '"rejected": 0' '"failed": 0' '"quarantined": 0' \
    '"refreezes"' '"queue_depth": 0' '"in_flight": 0' \
    '"latency_ms"' '"p50"' '"p99"' '"refreeze_hit_rate_trend"' \
    '"snapshot"' '"saves"' '"bytes_saved"'; do
    grep -qF "$key" "$SERVE_METRICS" || {
        echo "serve smoke: missing $key in $SERVE_METRICS" >&2
        exit 1
    }
done
# --snapshot-dir must leave a real on-disk library behind: at least one
# generation file persisted by the refreezes the two clients forced.
SNAP_FILES=$(find "$SERVE_SNAPDIR" -name 'gen-*.snap' | wc -l)
if [ "$SNAP_FILES" -lt 1 ]; then
    echo "serve smoke: no snapshots persisted under $SERVE_SNAPDIR" >&2
    exit 1
fi
echo "==> serve smoke passed ($SERVE_METRICS, $SNAP_FILES snapshots persisted)"

echo "==> journal smoke: SIGKILL mid-queue, restart, zero loss"
# Durability gate for the fastsim-journal/v1 write-ahead log: submit
# three fire-and-forget jobs, SIGKILL the server before the queue can
# settle, restart it on the same --journal-dir, and require that every
# job either completed before the kill or is recovered and completed
# after it — no job lost, none rejected at recovery.
cargo build --release -q -p fastsim-serve --example ops_client
OPS="target/release/examples/ops_client"
JRNL_DIR="target/ci_journal"
JRNL_SOCK="target/ci_journal.sock"
JRNL_METRICS="target/ci_journal_metrics.json"
rm -rf "$JRNL_DIR"
rm -f "$JRNL_SOCK" "$JRNL_METRICS"
target/release/fastsim_served --unix "$JRNL_SOCK" --workers 1 \
    --journal-dir "$JRNL_DIR" 2> target/ci_journal_boot1.log &
JRNL_PID=$!
for _ in $(seq 1 100); do
    [ -S "$JRNL_SOCK" ] && break
    sleep 0.1
done
[ -S "$JRNL_SOCK" ] || { echo "journal smoke: server never bound" >&2; exit 1; }
for i in 1 2 3; do
    "$OPS" --unix "$JRNL_SOCK" --op \
        '{"op": "submit", "kernels": ["compress"], "insts": 2000000, "client": "ci-journal"}' \
        | grep -qF '"ok": true' || {
        echo "journal smoke: submit $i failed" >&2
        exit 1
    }
done
kill -9 "$JRNL_PID"
wait "$JRNL_PID" 2>/dev/null || true
rm -f "$JRNL_SOCK"
target/release/fastsim_served --unix "$JRNL_SOCK" --workers 1 \
    --journal-dir "$JRNL_DIR" --metrics-file "$JRNL_METRICS" \
    2> target/ci_journal_boot2.log &
JRNL_PID=$!
# Wait on the boot log, not the socket file: the listener binds before
# recovery runs, so the recovery line lands a beat later.
for _ in $(seq 1 100); do
    grep -q 'listening on' target/ci_journal_boot2.log 2>/dev/null && break
    sleep 0.1
done
grep -q 'listening on' target/ci_journal_boot2.log || {
    echo "journal smoke: restart never bound" >&2
    exit 1
}
RECOVERED=$(sed -n 's/.*journal .*: \([0-9][0-9]*\) job(s) recovered, 0 rejected.*/\1/p' \
    target/ci_journal_boot2.log | head -1)
if [ -z "$RECOVERED" ]; then
    echo "journal smoke: no clean recovery line in boot log:" >&2
    cat target/ci_journal_boot2.log >&2
    exit 1
fi
if [ "$RECOVERED" -lt 1 ]; then
    echo "journal smoke: nothing recovered — the kill landed after settlement" >&2
    exit 1
fi
"$OPS" --unix "$JRNL_SOCK" --op '{"op": "drain"}' \
    | grep -qF '"ok": true' || { echo "journal smoke: drain failed" >&2; exit 1; }
DONE=0
UNKNOWN=0
for id in 1 2 3; do
    POLL=$("$OPS" --unix "$JRNL_SOCK" --op "{\"op\": \"poll\", \"job\": $id}")
    if echo "$POLL" | grep -qF '"status": "done"'; then
        DONE=$((DONE + 1))
    elif echo "$POLL" | grep -qF 'unknown job'; then
        # Settled before the kill, so boot compaction dropped it — the
        # completed first life accounts for it.
        UNKNOWN=$((UNKNOWN + 1))
    else
        echo "journal smoke: job $id neither done nor settled: $POLL" >&2
        exit 1
    fi
done
if [ "$DONE" -ne "$RECOVERED" ] || [ $((DONE + UNKNOWN)) -ne 3 ]; then
    echo "journal smoke: lost jobs (recovered $RECOVERED, done $DONE, pre-kill $UNKNOWN)" >&2
    exit 1
fi
"$OPS" --unix "$JRNL_SOCK" --op '{"op": "shutdown"}' \
    | grep -qF '"ok": true' || { echo "journal smoke: shutdown failed" >&2; exit 1; }
wait "$JRNL_PID"
for key in '"journal"' '"recovered": '"$RECOVERED" '"torn_tails": 0' \
    '"rejected": 0' '"appended"'; do
    grep -qF "$key" "$JRNL_METRICS" || {
        echo "journal smoke: missing $key in $JRNL_METRICS" >&2
        exit 1
    }
done
echo "==> journal smoke passed ($RECOVERED recovered, $UNKNOWN settled pre-kill)"

echo "==> http smoke: gateway round-trip against the line protocol"
# The HTTP/1.1 gateway must serve the documented endpoints and agree
# bit-for-bit with the line protocol on deterministic result fields.
HTTP_SOCK="target/ci_http.sock"
HTTP_ADDR_FILE="target/ci_http_addr"
rm -f "$HTTP_SOCK" "$HTTP_ADDR_FILE"
target/release/fastsim_served --unix "$HTTP_SOCK" --http 127.0.0.1:0 \
    --http-addr-file "$HTTP_ADDR_FILE" --workers 2 &
HTTP_PID=$!
for _ in $(seq 1 100); do
    [ -s "$HTTP_ADDR_FILE" ] && break
    sleep 0.1
done
[ -s "$HTTP_ADDR_FILE" ] || { echo "http smoke: gateway never bound" >&2; exit 1; }
HTTP_ADDR=$(cat "$HTTP_ADDR_FILE")
"$OPS" --http "$HTTP_ADDR" --method GET --path /v1/metrics \
    > target/ci_http_metrics.txt
head -1 target/ci_http_metrics.txt | grep -qx 200 || {
    echo "http smoke: GET /v1/metrics did not answer 200" >&2
    exit 1
}
for key in '"schema": "fastsim-serve-metrics/v1"' '"queue_depth"' \
    '"latency_ms"'; do
    grep -qF "$key" target/ci_http_metrics.txt || {
        echo "http smoke: missing $key in the /v1/metrics body" >&2
        exit 1
    }
done
"$OPS" --http "$HTTP_ADDR" --method POST --path /v1/jobs --body \
    '{"kernels": ["compress"], "insts": 20000, "client": "ci-http", "wait": true}' \
    > target/ci_http_submit.txt
head -1 target/ci_http_submit.txt | grep -qx 200 || {
    echo "http smoke: POST /v1/jobs did not answer 200" >&2
    exit 1
}
"$OPS" --unix "$HTTP_SOCK" --op \
    '{"op": "submit", "kernels": ["compress"], "insts": 20000, "client": "ci-line", "wait": true}' \
    > target/ci_line_submit.txt
for field in cycles retired_insts l1_misses; do
    HVAL=$(sed -n "s/.*\"$field\": \([0-9][0-9]*\).*/\1/p" target/ci_http_submit.txt | head -1)
    LVAL=$(sed -n "s/.*\"$field\": \([0-9][0-9]*\).*/\1/p" target/ci_line_submit.txt | head -1)
    if [ -z "$HVAL" ] || [ "$HVAL" != "$LVAL" ]; then
        echo "http smoke: $field differs between gateway ($HVAL) and line protocol ($LVAL)" >&2
        exit 1
    fi
done
# The error path: an unknown job answers 404 over HTTP, and the body is
# byte-for-byte the line protocol's answer to the same poll.
"$OPS" --http "$HTTP_ADDR" --method GET --path /v1/jobs/999999 \
    > target/ci_http_error.txt
head -1 target/ci_http_error.txt | grep -qx 404 || {
    echo "http smoke: GET /v1/jobs/999999 did not answer 404" >&2
    exit 1
}
tail -n +2 target/ci_http_error.txt > target/ci_http_error_body.txt
"$OPS" --unix "$HTTP_SOCK" --op '{"op": "poll", "job": 999999}' \
    > target/ci_line_error.txt
if ! cmp -s target/ci_http_error_body.txt target/ci_line_error.txt; then
    echo "http smoke: the 404 body differs from the line protocol's answer" >&2
    diff target/ci_http_error_body.txt target/ci_line_error.txt >&2 || true
    exit 1
fi
"$OPS" --unix "$HTTP_SOCK" --op '{"op": "shutdown"}' \
    | grep -qF '"ok": true' || { echo "http smoke: shutdown failed" >&2; exit 1; }
wait "$HTTP_PID"
echo "==> http smoke passed ($HTTP_ADDR, deterministic fields and error bodies identical)"

echo "==> serve scale smoke: 1024 idle connections around an active core"
# Connection-scaling gate for the event-loop server: park 1024 idle
# connections on the I/O thread, drive a fixed active client through
# them, and require (a) the fastsim-serve-scale/v1 schema and (b) the
# bench's own pass criterion — active-client p99 at every tier no
# worse than the small-tier baseline (within its noise tolerance). The
# bench exits nonzero itself when idle connections slow the active
# client, so a regression fails this step even before the grep.
SCALE_OUT="target/bench_serve_scale_smoke.json"
cargo run --release -q -p fastsim-bench --bin serve_scale -- \
    --tiers 64,1024 --rounds 20 --out "$SCALE_OUT"
for key in '"schema": "fastsim-serve-scale/v1"' '"debug_build": false' \
    '"tiers"' '"connections_idle": 1024' '"connections_held"' \
    '"jobs_per_sec"' '"p50_us"' '"p99_us"' '"loop_wakeups"' \
    '"ready_events"' '"summary"' '"max_connections_held"' \
    '"p99_ratio_max_over_baseline"' '"idle_scaling_ok": true'; do
    grep -qF "$key" "$SCALE_OUT" || {
        echo "serve scale smoke: missing $key in $SCALE_OUT" >&2
        exit 1
    }
done
echo "==> serve scale smoke passed ($SCALE_OUT)"

echo "==> snapshot smoke: durable warm-cache round trip through store and wire"
# The durable-warmth gate: run the same tiny round cold, warm from an
# on-disk SnapshotStore (simulated restart) and warm from encoded
# fastsim-snapshot/v2 bytes (simulated shipping). The bench exits
# nonzero unless all three legs are bit-identical and both warmed legs
# hit at >= 0.9, so a codec or store regression fails before the grep.
SNAP_OUT="target/bench_snapshot_smoke.json"
cargo run --release -q -p fastsim-bench --bin snapshot_study -- \
    --insts 20000 --filter compress --out "$SNAP_OUT"
for key in '"schema": "fastsim-snapshot-study/v1"' '"debug_build": false' \
    '"cold_hit_rate"' '"snapshots_saved"' '"snapshot_bytes_total"' \
    '"snapshots_loaded"' '"snapshots_rejected": 0' '"warm_hit_rate"' \
    '"encode_mb_per_s"' '"decode_mb_per_s"' '"import_hit_rate"' \
    '"results_identical": true' '"warm_ok": true'; do
    grep -qF "$key" "$SNAP_OUT" || {
        echo "snapshot smoke: missing $key in $SNAP_OUT" >&2
        exit 1
    }
done
echo "==> snapshot smoke passed ($SNAP_OUT)"

echo "==> fuzz smoke: 500 generated kernels through the differential oracle"
# Fixed seed, fully offline: replay the checked-in fuzz/corpus/ golden
# seeds, then generate 500 random kernels and require bit-identical
# fast==slow statistics across all hierarchy presets × GC policies,
# plus the freeze/thaw/merge lifecycle. On top of the
# differential sweep, frozen caches are encoded to fastsim-snapshot/v2
# and attacked with seeded corruption — every effective mutation must be
# rejected with a typed error, never absorbed or panicked on — and
# seeded fastsim-journal/v1 record streams face the same sweep under the
# prefix-or-reject oracle (a corrupted journal may lose its torn tail,
# never replay a wrong job). Failures would be shrunk to replayable
# reproducers under target/fuzz_failures/.
FUZZ_OUT="target/fuzz_smoke.json"
cargo run --release -q -p fastsim-fuzz --bin fuzz_smoke -- \
    --seed 0xf00dfeed --kernels 500 --corpus fuzz/corpus --out "$FUZZ_OUT"
for key in '"schema": "fastsim-fuzz-smoke/v1"' '"kernels": 500' \
    '"presets": ["table1", "three-level", "tiny-l1"]' \
    '"corpus_replayed": 24' '"failures": 0' '"runs"' '"retired_insts"' \
    '"snapshot_corruptions"' '"snapshot_rejected"' \
    '"snapshot_failures": 0' '"journal_corruptions"' \
    '"journal_rejected"' '"journal_failures": 0'; do
    grep -qF "$key" "$FUZZ_OUT" || {
        echo "fuzz smoke: missing $key in $FUZZ_OUT" >&2
        exit 1
    }
done
echo "==> fuzz smoke passed ($FUZZ_OUT)"

echo "==> chaos smoke: seeded fault storm against a live server"
# Server-side fault injection through the server's fault seam (response
# drops, truncations, worker panics) under a seeded client storm
# (malformed/partial frames, deadline storms). Gates: every admitted job
# settles, the metrics dump stays schema-valid, faults actually fired,
# and post-chaos results are bit-identical to an offline batch run.
CHAOS_OUT="target/chaos_smoke.json"
cargo run --release -q -p fastsim-fuzz --bin chaos_smoke -- \
    --seed 0xc4a050de --socket target/ci_chaos.sock --out "$CHAOS_OUT" \
    2> target/chaos_smoke.log
for key in '"schema": "fastsim-chaos-smoke/v1"' '"all_settled": true' \
    '"metrics_schema_ok": true' '"post_chaos_identical": true' \
    '"ok": true' '"malformed_rejected"' '"partial_frames_ok"' \
    '"slow_loris_ok"' '"half_open_ok"' '"mid_response_disconnects"' \
    '"faults_injected"' '"transport_retries"'; do
    grep -qF "$key" "$CHAOS_OUT" || {
        echo "chaos smoke: missing $key in $CHAOS_OUT" >&2
        exit 1
    }
done
echo "==> chaos smoke passed ($CHAOS_OUT)"

echo "==> tier-1 gate passed"
