#!/usr/bin/env bash
# chaos-smoke: durability, replication and overload resilience, end to
# end. Trains a tiny model, boots a 3-backend fleet with registry
# replication R=2 (every registered patient on its ring owner plus one
# successor), where backend 0 runs with a WAL-backed registry
# (-wal-sync always) AND sits behind a fault-injecting TCP proxy
# (latency + connection resets + mid-body drops), then:
#
#   1. registers 20 patients through the router and records their
#      suggest responses,
#   2. kill -9's backend 0 mid-flight under a chaotic mixed workload,
#   3. restarts it on the same address from the same WAL,
#   4. asserts ZERO lost registrations (every patient still answers,
#      bitwise-identical to its pre-crash response), a bounded error
#      rate for the workload that ran across the crash, and that 200s
#      sharing an X-Epoch stayed bitwise-consistent (-verify-epoch),
#   5. PERMANENTLY kill -9's backend 2 mid-flight under a -strict
#      mixed workload: with R=2 every registered read fails over to
#      the surviving replica, so zero requests fail, zero
#      registrations are lost (loadgen -verify-registry re-reads every
#      acknowledged id) and the router's pinned-503 counter stays 0,
#   6. restarts backend 2 EMPTY (no WAL — a rebuilt node) on the same
#      address and asserts anti-entropy reconverges it before the
#      health machine readmits it: the fleet verify endpoint reports
#      per-backend digest agreement over every record,
#   7. runs the replication counters through the strict Prometheus
#      parser and gates BENCH_chaos.json on lost_registrations == 0
#      (benchdiff -replication-gate),
#   8. separately floods a 1-inflight/1-queue backend and asserts
#      admission control shed load with fast 503s (sheds > 0).
#
# Records both chaotic workloads plus the replication counters into
# BENCH_chaos.json in the repo root. Used by `make chaos-smoke` and
# the CI "chaos" job.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
    # Let the signalled processes finish before their files go: b0
    # writes its final registry checkpoint into $WORK on the way out.
    for p in "${PIDS[@]:-}"; do wait "$p" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/dssddi" ./cmd/dssddi
go build -o "$WORK/dssddi-serve" ./cmd/dssddi-serve
go build -o "$WORK/dssddi-router" ./cmd/dssddi-router
go build -o "$WORK/loadgen" ./cmd/loadgen
go build -o "$WORK/chaosproxy" ./cmd/chaosproxy
go build -o "$WORK/obscheck" ./cmd/obscheck
go build -o "$WORK/benchdiff" ./cmd/benchdiff

echo "== train a tiny model"
"$WORK/dssddi" train -patients 70 -ddi-epochs 5 -md-epochs 10 -o "$WORK/model.snap"

wait_file() {
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "timed out waiting for $1" >&2
    return 1
}

# boot_b0 <addr>: the durable backend. First boot uses 127.0.0.1:0;
# the crash-recovery restart reuses the recorded address so the router
# (and the chaos proxy) find the reborn process without reconfiguring.
boot_b0() {
    GOMAXPROCS=1 "$WORK/dssddi-serve" -m "$WORK/model.snap" -workers 1 \
        -registry-wal "$WORK/b0.wal" -wal-sync always \
        -addr "$1" -addr-file "$WORK/b0.txt" &
    B0_PID=$!
    PIDS+=($B0_PID)
}

# boot_b2 <addr>: the plain backend the permanent-kill scenario
# murders and later reboots EMPTY (no WAL) on the same address, so the
# rejoin must reconverge through anti-entropy alone.
boot_b2() {
    GOMAXPROCS=1 "$WORK/dssddi-serve" -m "$WORK/model.snap" -workers 1 \
        -addr "$1" -addr-file "$WORK/b2.txt" &
    B2_PID=$!
    PIDS+=($B2_PID)
}

echo "== boot the fleet: b0 (WAL, behind chaos proxy) + b1 + b2 + router (R=2)"
rm -f "$WORK/b0.txt"
boot_b0 127.0.0.1:0
wait_file "$WORK/b0.txt"
B0=$(cat "$WORK/b0.txt")
GOMAXPROCS=1 "$WORK/dssddi-serve" -m "$WORK/model.snap" -workers 1 \
    -addr 127.0.0.1:0 -addr-file "$WORK/b1.txt" &
PIDS+=($!)
rm -f "$WORK/b2.txt"
boot_b2 127.0.0.1:0
wait_file "$WORK/b1.txt"; B1=$(cat "$WORK/b1.txt")
wait_file "$WORK/b2.txt"; B2=$(cat "$WORK/b2.txt")

# The chaos proxy fronts b0: added latency, hard RSTs, responses cut
# off mid-body. The router only ever sees the proxy's address.
"$WORK/chaosproxy" -target "$B0" -latency 2ms -jitter 3ms \
    -reset-prob 0.08 -drop-prob 0.04 -seed 7 -addr-file "$WORK/px.txt" &
PIDS+=($!)
wait_file "$WORK/px.txt"
PX=$(cat "$WORK/px.txt")

"$WORK/dssddi-router" -backends "$PX,$B1,$B2" -replicas 2 -write-quorum 1 \
    -probe-interval 250ms \
    -fail-after 5 -cooldown 500ms -retries 5 -retry-backoff 10ms \
    -addr 127.0.0.1:0 -addr-file "$WORK/router.txt" &
PIDS+=($!)
wait_file "$WORK/router.txt"
ROUTER=$(cat "$WORK/router.txt")
echo "   router on $ROUTER over chaos($B0)=$PX $B1 $B2"

ok=""
for _ in $(seq 1 50); do
    if curl -sf "http://$ROUTER/healthz" | grep -q '"healthy_backends":3'; then ok=1; break; fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "router never saw 3 healthy backends"; curl -s "http://$ROUTER/healthz"; exit 1; }

# put_retry <url> <body>: the router retries idempotent full-replace
# PUTs across the replica group itself, but the chaos proxy can still
# eat the response on the router->client leg's final attempt. The
# client retries on top — exactly what a real client does on a reset.
put_retry() {
    for _ in $(seq 1 20); do
        code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT "$1" -d "$2" || echo 000)
        case "$code" in 200|201) return 0 ;; esac
        sleep 0.05
    done
    echo "PUT $1 never succeeded (last code $code)" >&2
    return 1
}

echo "== register 20 patients through the chaotic fleet, record their answers"
mkdir -p "$WORK/pre"
for i in $(seq 0 19); do
    put_retry "http://$ROUTER/v1/patients/chaos-$i" '{"regimen": [0, 1, 2]}'
done
for i in $(seq 0 19); do
    for _ in $(seq 1 20); do
        if curl -sf -H 'Cache-Control: no-cache' -X POST "http://$ROUTER/v1/suggest" \
            -d "{\"patient_id\": \"chaos-$i\", \"k\": 3}" -o "$WORK/pre/$i.json"; then break; fi
        sleep 0.05
    done
    [ -s "$WORK/pre/$i.json" ] || { echo "no pre-crash suggest for chaos-$i"; exit 1; }
done

echo "== chaotic mixed workload across a kill -9 + WAL restart of b0"
rm -f BENCH_chaos.json
"$WORK/loadgen" -addr "$ROUTER" -cluster -mix -duration 8s -concurrency 12 \
    -verify-epoch -verify-registry -max-error-rate 0.5 -json BENCH_chaos.json &
LOADGEN_PID=$!
sleep 2
echo "   kill -9 backend 0 ($B0, pid $B0_PID)"
kill -9 "$B0_PID" 2>/dev/null || true
wait "$B0_PID" 2>/dev/null || true
sleep 1
echo "   restart backend 0 on $B0 from $WORK/b0.wal"
rm -f "$WORK/b0.txt"
boot_b0 "$B0"
wait_file "$WORK/b0.txt"
wait "$LOADGEN_PID" || { echo "chaotic workload exceeded the error budget"; exit 1; }

echo "== fleet healed: router sees 3 healthy backends again"
ok=""
for _ in $(seq 1 100); do
    if curl -sf "http://$ROUTER/healthz" | grep -q '"healthy_backends":3'; then ok=1; break; fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "fleet never healed after the restart"; curl -s "http://$ROUTER/healthz"; exit 1; }

echo "== zero lost registrations: every patient answers, bitwise-identical"
for i in $(seq 0 19); do
    got=""
    for _ in $(seq 1 20); do
        if curl -sf -H 'Cache-Control: no-cache' -X POST "http://$ROUTER/v1/suggest" \
            -d "{\"patient_id\": \"chaos-$i\", \"k\": 3}" -o "$WORK/post.json"; then got=1; break; fi
        sleep 0.05
    done
    [ -n "$got" ] || { echo "chaos-$i lost after crash recovery"; exit 1; }
    cmp -s "$WORK/pre/$i.json" "$WORK/post.json" || {
        echo "chaos-$i answer diverged across the crash:"
        diff "$WORK/pre/$i.json" "$WORK/post.json" || true
        exit 1
    }
done
echo "   20/20 registrations survived kill -9, answers bitwise-identical"

echo "== permanent kill: backend 2 dies mid -strict load, replicas carry every request"
"$WORK/loadgen" -addr "$ROUTER" -cluster -mix -strict -duration 6s -concurrency 12 \
    -seed 2 -entry-prefix permakill- -verify-epoch -verify-registry \
    -json BENCH_chaos.json -append &
LOADGEN_PID=$!
sleep 1.5
echo "   kill -9 backend 2 ($B2, pid $B2_PID) — and leave it dead"
kill -9 "$B2_PID" 2>/dev/null || true
wait "$B2_PID" 2>/dev/null || true
wait "$LOADGEN_PID" || { echo "requests failed during the permanent kill (replication should have carried them)"; exit 1; }

echo "== replica failover left no pinned 503s and served reads from replicas"
metrics=$(curl -sf "http://$ROUTER/metricsz")
echo "$metrics" | tr ',{}' '\n\n\n' | grep -q '"pinned_unavailable":0$' || {
    echo "pinned-key 503s during the permanent kill (should be served by replicas):"
    echo "$metrics" | tr ',{}' '\n\n\n' | grep pinned
    exit 1
}
echo "$metrics" | tr ',{}' '\n\n\n' | grep '"replica_reads":' | grep -vq ':0$' || {
    echo "no reads were served by replicas during the permanent kill:"
    echo "$metrics" | tr ',{}' '\n\n\n' | grep replica
    exit 1
}

echo "== every registered patient still answers with backend 2 dead"
for i in $(seq 0 19); do
    got=""
    for _ in $(seq 1 20); do
        if curl -sf -H 'Cache-Control: no-cache' -X POST "http://$ROUTER/v1/suggest" \
            -d "{\"patient_id\": \"chaos-$i\", \"k\": 3}" -o "$WORK/post.json"; then got=1; break; fi
        sleep 0.05
    done
    [ -n "$got" ] || { echo "chaos-$i unreachable with one backend permanently dead"; exit 1; }
    cmp -s "$WORK/pre/$i.json" "$WORK/post.json" || {
        echo "chaos-$i answer diverged when served by a replica:"
        diff "$WORK/pre/$i.json" "$WORK/post.json" || true
        exit 1
    }
done
echo "   20/20 registered reads served, bitwise-identical, owner permanently dead"

echo "== rejoin empty: backend 2 reboots with no state, anti-entropy reconverges it"
rm -f "$WORK/b2.txt"
boot_b2 "$B2"
wait_file "$WORK/b2.txt"
ok=""
for _ in $(seq 1 100); do
    if curl -sf "http://$ROUTER/healthz" | grep -q '"healthy_backends":3'; then ok=1; break; fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "empty backend 2 never reconverged into rotation"; curl -s "http://$ROUTER/healthz"; exit 1; }
verify=$(curl -s -o "$WORK/verify.json" -w '%{http_code}' "http://$ROUTER/v1/admin/registry/verify")
[ "$verify" = 200 ] || { echo "fleet digest verification failed after the empty rejoin:"; cat "$WORK/verify.json"; exit 1; }
grep -q '"ok":true' "$WORK/verify.json" || { echo "verify endpoint reports divergence:"; cat "$WORK/verify.json"; exit 1; }
echo "   backend 2 readmitted only after per-shard digests reconverged"

echo "== replication counters round-trip the strict Prometheus parser"
"$WORK/obscheck" prom "http://$ROUTER/metricsz?format=prometheus" \
    -require dssddi_router_replica_reads_total,dssddi_router_replication_fanouts_total,dssddi_router_anti_entropy_syncs_total,dssddi_router_replication_lag_seconds
"$WORK/obscheck" prom "http://$B1/metricsz?format=prometheus" \
    -require dssddi_replica_applies_total,dssddi_replication_apply_duration_seconds

echo "== replication gate: BENCH_chaos.json records zero lost registrations"
"$WORK/benchdiff" -replication-gate BENCH_chaos.json

echo "== overload: a 1-inflight/1-queue backend sheds with fast 503s"
GOMAXPROCS=1 "$WORK/dssddi-serve" -m "$WORK/model.snap" -workers 1 \
    -max-inflight 1 -max-queue 1 -batch-window 50ms -cache -1 \
    -addr 127.0.0.1:0 -addr-file "$WORK/tiny.txt" &
PIDS+=($!)
wait_file "$WORK/tiny.txt"
TINY=$(cat "$WORK/tiny.txt")
codes=$(for _ in $(seq 1 30); do
    curl -s -o /dev/null -w '%{http_code}\n' -H 'Cache-Control: no-cache' \
        -X POST "http://$TINY/v1/suggest" -d '{"patient": 0, "k": 3}' &
done; wait)
shed=$(echo "$codes" | grep -c '^503$' || true)
served=$(echo "$codes" | grep -c '^200$' || true)
echo "   30 concurrent requests -> $served x200, $shed x503"
[ "$shed" -gt 0 ] || { echo "overloaded backend never shed load"; exit 1; }
[ "$served" -gt 0 ] || { echo "overloaded backend served nothing"; exit 1; }
curl -sf "http://$TINY/metricsz" | grep -q '"sheds":' || { echo "/metricsz does not report sheds"; exit 1; }

echo "== OK: chaos smoke passed"
