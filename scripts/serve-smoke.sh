#!/usr/bin/env bash
# serve-smoke: the train -> snapshot -> serve -> query lifecycle, end
# to end. Trains a tiny model, saves and reloads it, answers a
# suggestion from the snapshot, boots dssddi-serve on an ephemeral
# port, smoke-tests every endpoint (including the patient registry and
# a mid-load hot reload with zero non-2xx responses), and records a
# servebench JSON (BENCH_serve.json) in the repo root. Used by
# `make serve-smoke` and the CI "serve" job.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
SERVER_PID=""
SERVER32_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "$SERVER32_PID" ] && kill "$SERVER32_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/dssddi" ./cmd/dssddi
go build -o "$WORK/dssddi-serve" ./cmd/dssddi-serve
go build -o "$WORK/loadgen" ./cmd/loadgen
go build -o "$WORK/benchdiff" ./cmd/benchdiff

# Width 384 (paper default is 64) so the cold path is dominated by
# decoder arithmetic — the component the f32 SIMD path accelerates and
# the f32-vs-f64 throughput gate below measures. At the default width
# the per-request HTTP/JSON overhead swamps scoring and the quantized
# speedup is real but unmeasurable end to end.
echo "== train a tiny model and snapshot it"
"$WORK/dssddi" train -patients 70 -hidden 384 -ddi-epochs 5 -md-epochs 10 -o "$WORK/model.snap"

echo "== train a second tiny model (same cohort size) for the hot-reload swap"
"$WORK/dssddi" train -patients 70 -hidden 384 -seed 2 -ddi-epochs 5 -md-epochs 10 -o "$WORK/model2.snap"

echo "== snapshot metadata"
"$WORK/dssddi" info -m "$WORK/model.snap"

echo "== suggest from the snapshot (no retraining)"
"$WORK/dssddi" suggest -m "$WORK/model.snap" -k 3 >/dev/null

echo "== boot dssddi-serve on an ephemeral port"
"$WORK/dssddi-serve" -m "$WORK/model.snap" -addr 127.0.0.1:0 -addr-file "$WORK/addr.txt" &
SERVER_PID=$!
for _ in $(seq 1 50); do
    [ -s "$WORK/addr.txt" ] && break
    sleep 0.1
done
[ -s "$WORK/addr.txt" ] || { echo "server did not come up"; exit 1; }
ADDR=$(cat "$WORK/addr.txt")
echo "   listening on $ADDR"

echo "== smoke every endpoint"
curl -sf "http://$ADDR/healthz" >/dev/null
curl -sf -X POST "http://$ADDR/v1/suggest" -d '{"patient": 0, "k": 3}' >/dev/null
curl -sf -X POST "http://$ADDR/v1/scores" -d '{"patients": [0, 1]}' >/dev/null
curl -sf -X POST "http://$ADDR/v1/explain" -d '{"patient": 0, "k": 3}' >/dev/null
curl -sf -X POST "http://$ADDR/v1/alerts" -d '{"drugs": [0, 1, 2], "patient": 0}' >/dev/null
curl -sf "http://$ADDR/metricsz" >/dev/null

echo "== patient registry: register, suggest, mutate, suggest, delete"
code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT "http://$ADDR/v1/patients/smoke" -d '{"regimen": [0, 1, 2]}')
[ "$code" = "201" ] || { echo "registering a patient returned $code, want 201"; exit 1; }
curl -sf -X POST "http://$ADDR/v1/suggest" -d '{"patient_id": "smoke", "k": 3}' >/dev/null
curl -sf -X PATCH "http://$ADDR/v1/patients/smoke" -d '{"regimen": [0, 3]}' >/dev/null
curl -sf -X POST "http://$ADDR/v1/suggest" -d '{"patient_id": "smoke", "k": 3}' >/dev/null
curl -sf -X GET "http://$ADDR/v1/patients/smoke" >/dev/null
curl -sf -X DELETE "http://$ADDR/v1/patients/smoke" >/dev/null

echo "== status codes: malformed is 400, unknown is 404"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/suggest" -d '{"patient": 1000000}')
[ "$code" = "404" ] || { echo "out-of-range patient returned $code, want 404"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/suggest" -d '{"patient": -1}')
[ "$code" = "400" ] || { echo "negative patient returned $code, want 400"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/suggest" -d '{"patient_id": "smoke"}')
[ "$code" = "404" ] || { echo "deleted registry patient returned $code, want 404"; exit 1; }

echo "== servebench (loadgen, cached path)"
"$WORK/loadgen" -addr "$ADDR" -duration 2s -concurrency 8 -json BENCH_serve.json

echo "== servebench (loadgen, cold path: unique patients, cache bypassed)"
"$WORK/loadgen" -addr "$ADDR" -cold -duration 2s -concurrency 8 -json BENCH_serve.json -append

echo "== servebench (loadgen, online mix) with a hot reload mid-load: zero non-2xx allowed"
"$WORK/loadgen" -addr "$ADDR" -mix -strict -duration 4s -concurrency 8 -json BENCH_serve.json -append &
LOADGEN_PID=$!
sleep 1
curl -sf -X POST "http://$ADDR/v1/admin/reload" -d "{\"path\": \"$WORK/model2.snap\"}" >/dev/null
sleep 1
curl -sf -X POST "http://$ADDR/v1/admin/reload" -d "{\"path\": \"$WORK/model.snap\"}" >/dev/null
wait "$LOADGEN_PID" || { echo "loadgen saw non-2xx responses during the hot reload"; exit 1; }
epoch=$(curl -sf "http://$ADDR/healthz" | sed 's/.*"epoch":\([0-9]*\).*/\1/')
[ "$epoch" = "3" ] || { echo "server epoch is $epoch after two reloads, want 3"; exit 1; }

echo "== quantized serving: hot reload to f32, re-measure cached + cold"
curl -sf -X POST "http://$ADDR/v1/admin/reload" -d '{"precision": "f32"}' >/dev/null
prec=$(curl -sf "http://$ADDR/healthz" | sed 's/.*"precision":"\([^"]*\)".*/\1/')
[ "$prec" = "f32" ] || { echo "precision after f32 reload is $prec, want f32"; exit 1; }
"$WORK/loadgen" -addr "$ADDR" -duration 2s -concurrency 8 -entry-suffix -f32 -json BENCH_serve.json -append
"$WORK/loadgen" -addr "$ADDR" -cold -duration 3s -concurrency 8 -entry-suffix -f32 -json BENCH_serve.json -append

echo "== re-measure the f64 cold baseline (same process, same conditions as the f32 pass)"
curl -sf -X POST "http://$ADDR/v1/admin/reload" -d '{"precision": "f64"}' >/dev/null
"$WORK/loadgen" -addr "$ADDR" -cold -duration 3s -concurrency 8 -json BENCH_serve.json -append

echo "== -precision boot flag: a fresh server comes up quantized"
"$WORK/dssddi-serve" -m "$WORK/model.snap" -precision f32 -addr 127.0.0.1:0 -addr-file "$WORK/addr32.txt" &
SERVER32_PID=$!
for _ in $(seq 1 50); do
    [ -s "$WORK/addr32.txt" ] && break
    sleep 0.1
done
[ -s "$WORK/addr32.txt" ] || { echo "f32 server did not come up"; exit 1; }
ADDR32=$(cat "$WORK/addr32.txt")
prec=$(curl -sf "http://$ADDR32/healthz" | sed 's/.*"precision":"\([^"]*\)".*/\1/')
[ "$prec" = "f32" ] || { echo "-precision f32 boot reports $prec"; exit 1; }
curl -sf -X POST "http://$ADDR32/v1/suggest" -d '{"patient": 0, "k": 3}' >/dev/null
kill "$SERVER32_PID" 2>/dev/null || true

echo "== characterize f32 divergence vs the f64 oracle into the report"
"$WORK/dssddi" precision -m "$WORK/model.snap" -bench BENCH_serve.json

echo "== gates: f32 cold throughput >= 1.5x f64, f32 accuracy within tolerance"
"$WORK/benchdiff" -scale suggest-cold-f32:suggest-cold:1.5 BENCH_serve.json
"$WORK/benchdiff" -precision-gate BENCH_serve.json

echo "== OK: serve smoke passed"
