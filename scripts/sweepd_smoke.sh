#!/usr/bin/env bash
# End-to-end smoke test for the sweep service: boot a real sweepd farm,
# drive it over plain HTTP (curl only — no Go test harness in the
# loop), and require every served CSV to be byte-identical to an
# in-process Sweep of the same matrix.
#
# Phases:
#   1. auth      — without the bearer token, mutating endpoints 401;
#                  reads and health stay open.
#   2. cold/warm — submit the same matrix twice; cold simulates, warm
#                  is all cache hits, both byte-identical to -local;
#                  the warm job is compared in every output format.
#   3. crash     — submit a remote-only job, let a real worker post a
#                  few replicas, kill -9 the daemon AND the worker
#                  mid-job, restart on the same -data-dir, and require
#                  the job to resume from the journal (no completed
#                  replica re-runs) and still serve byte-identical CSV.
#   4. retry     — kill -9 the daemon under a polling worker, restart
#                  it, and require the SAME worker process to ride out
#                  the outage on its retry backoff (its log must show
#                  the retries) and then finish a fresh job.
#   5. drain     — SIGTERM exits 0 after a graceful drain.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
server_pid=""
worker_pid=""
token="smoke-secret-token"
cleanup() {
  if [ -n "$server_pid" ]; then kill -9 "$server_pid" 2>/dev/null || true; fi
  if [ -n "$worker_pid" ]; then kill -9 "$worker_pid" 2>/dev/null || true; fi
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sweepd" ./cmd/sweepd

# A small figure-4-style matrix: the three protocol families over one
# workload, two seeds each.
cat > "$workdir/matrix.json" <<'EOF'
{
  "base": {
    "cores": 8,
    "workload": "micro",
    "ops_per_core": 60,
    "warmup_ops": 40,
    "seed": 1,
    "skip_checks": true
  },
  "protocols": [
    {"protocol": "Directory"},
    {"protocol": "TokenB"},
    {"protocol": "PATCH", "variant": "PATCH-All"}
  ],
  "seeds": 2
}
EOF
printf '{"matrix":%s}' "$(cat "$workdir/matrix.json")" > "$workdir/jobspec.json"

# The crash-phase matrix is bigger (hundreds of ms per replica, so the
# kill lands mid-job) and uses a different seed, so nothing comes out
# of the cold/warm phases' cache.
cat > "$workdir/crash-matrix.json" <<'EOF'
{
  "base": {
    "cores": 8,
    "workload": "micro",
    "ops_per_core": 20000,
    "warmup_ops": 2000,
    "seed": 7,
    "skip_checks": true
  },
  "protocols": [
    {"protocol": "Directory"},
    {"protocol": "TokenB"},
    {"protocol": "PATCH", "variant": "PATCH-All"}
  ],
  "seeds": 2
}
EOF
printf '{"matrix":%s,"remote_only":true}' "$(cat "$workdir/crash-matrix.json")" > "$workdir/crash-jobspec.json"

addr=127.0.0.1:18080
base="http://$addr"
auth=(-H "Authorization: Bearer $token")
datadir="$workdir/data"

start_server() {
  "$workdir/sweepd" -listen "$addr" -data-dir "$datadir" \
    -cache-max-bytes $((64 * 1024 * 1024)) -token "$token" &
  server_pid=$!
  for _ in $(seq 1 100); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "$base/healthz" >/dev/null
}
start_server

# References: the same matrices through an in-process sweep.
"$workdir/sweepd" -local -matrix "$workdir/matrix.json" > "$workdir/local.csv"
"$workdir/sweepd" -local -matrix "$workdir/crash-matrix.json" > "$workdir/crash-local.csv"

# ---- Phase 1: auth -------------------------------------------------
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary @"$workdir/jobspec.json" "$base/jobs")
[ "$code" = 401 ] || { echo "smoke: tokenless submit got $code, want 401" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"max":1}' "$base/claim")
[ "$code" = 401 ] || { echo "smoke: tokenless claim got $code, want 401" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/jobs")
[ "$code" = 200 ] || { echo "smoke: tokenless job list got $code, want 200" >&2; exit 1; }
curl -fsS "$base/healthz" | grep -q '"store"' || {
  echo "smoke: healthz is missing job-store counters" >&2; exit 1
}

run_job() { # run_job <jobspec> <output-csv>; prints the job's final status JSON
  local spec="$1" out="$2" id
  id=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
    --data-binary @"$spec" "$base/jobs" |
    grep -o '"id":"[^"]*"' | head -n1 | cut -d'"' -f4)
  [ -n "$id" ] || { echo "smoke: no job id in submit response" >&2; exit 1; }
  # The progress stream is the poll: it ends at the terminal event.
  curl -fsS "$base/jobs/$id/progress" > "$workdir/progress.ndjson"
  grep -q '"state":"done"' "$workdir/progress.ndjson" || {
    echo "smoke: job $id did not finish clean:" >&2
    cat "$workdir/progress.ndjson" >&2
    exit 1
  }
  curl -fsS "$base/jobs/$id/result?format=csv" > "$out"
  curl -fsS "$base/jobs/$id"
}

# ---- Phase 2: cold + warm ------------------------------------------
status=$(run_job "$workdir/jobspec.json" "$workdir/cold.csv")
echo "$status" | grep -q '"cache_hits":0[,}]' || {
  echo "smoke: cold run should have 0 cache hits: $status" >&2; exit 1
}
cmp "$workdir/local.csv" "$workdir/cold.csv" || {
  echo "smoke: served CSV (cold) differs from local sweep" >&2; exit 1
}

status=$(run_job "$workdir/jobspec.json" "$workdir/warm.csv")
total=$(echo "$status" | grep -o '"total":[0-9]*' | cut -d: -f2)
echo "$status" | grep -q "\"cache_hits\":$total[,}]" || {
  echo "smoke: warm run should have $total cache hits: $status" >&2; exit 1
}
# Every output format of the warm job must equal sweepd -local with the
# same -format: both build their emitter from one format table.
warm_id=$(echo "$status" | grep -o '"id":"[^"]*"' | head -n1 | cut -d'"' -f4)
for format in csv json markdown chart; do
  "$workdir/sweepd" -local -matrix "$workdir/matrix.json" -format "$format" > "$workdir/local.$format"
  curl -fsS "$base/jobs/$warm_id/result?format=$format" > "$workdir/warm.$format"
  cmp "$workdir/local.$format" "$workdir/warm.$format" || {
    echo "smoke: served $format (warm) differs from sweepd -local -format $format" >&2; exit 1
  }
done

# ---- Phase 3: kill -9 mid-job, restart, resume ---------------------
crash_id=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
  --data-binary @"$workdir/crash-jobspec.json" "$base/jobs" |
  grep -o '"id":"[^"]*"' | head -n1 | cut -d'"' -f4)
[ -n "$crash_id" ] || { echo "smoke: no crash job id" >&2; exit 1; }

"$workdir/sweepd" -worker "$base" -token "$token" -batch 1 &
worker_pid=$!

# Wait until the journal holds some but not all replicas, then pull
# the plug on the whole farm.
done_before=""
for _ in $(seq 1 300); do
  st=$(curl -fsS "$base/jobs/$crash_id")
  done_now=$(echo "$st" | grep -o '"done":[0-9]*' | cut -d: -f2)
  crash_total=$(echo "$st" | grep -o '"total":[0-9]*' | cut -d: -f2)
  if [ "$done_now" -ge 1 ] && [ "$done_now" -lt "$crash_total" ]; then
    done_before=$done_now
    break
  fi
  if [ "$done_now" = "$crash_total" ]; then
    echo "smoke: crash job finished before the kill landed; enlarge the crash matrix" >&2
    exit 1
  fi
  sleep 0.05
done
[ -n "$done_before" ] || { echo "smoke: crash job never progressed" >&2; exit 1; }

kill -9 "$server_pid" "$worker_pid"
wait "$server_pid" 2>/dev/null || true
wait "$worker_pid" 2>/dev/null || true
server_pid="" worker_pid=""

start_server
st=$(curl -fsS "$base/jobs/$crash_id") || {
  echo "smoke: crash job vanished across the restart" >&2; exit 1
}
done_after=$(echo "$st" | grep -o '"done":[0-9]*' | cut -d: -f2)
[ "$done_after" -ge "$done_before" ] || {
  echo "smoke: restart lost journaled replicas: $done_before -> $done_after" >&2; exit 1
}
echo "smoke: crash job resumed at $done_after/$crash_total (was $done_before at kill)"

# A fresh one-shot worker finishes only the remaining replicas.
"$workdir/sweepd" -worker "$base" -token "$token" -batch 1 -one-shot
for _ in $(seq 1 200); do
  st=$(curl -fsS "$base/jobs/$crash_id")
  echo "$st" | grep -q '"state":"done"' && break
  sleep 0.05
done
echo "$st" | grep -q '"state":"done"' || {
  echo "smoke: crash job did not finish after restart: $st" >&2; exit 1
}
curl -fsS "$base/jobs/$crash_id/result?format=csv" > "$workdir/crash.csv"
cmp "$workdir/crash-local.csv" "$workdir/crash.csv" || {
  echo "smoke: resumed CSV differs from local sweep" >&2; exit 1
}

# ---- Phase 4: server outage under a live worker --------------------
# A fresh seed so nothing is served from the cache: the job completes
# only if the worker actually survives the outage and runs it.
sed 's/"seed": 1/"seed": 11/' "$workdir/matrix.json" > "$workdir/retry-matrix.json"
printf '{"matrix":%s,"remote_only":true}' "$(cat "$workdir/retry-matrix.json")" > "$workdir/retry-jobspec.json"

"$workdir/sweepd" -worker "$base" -token "$token" -batch 1 -retries 10 \
  2> "$workdir/worker-retry.log" &
worker_pid=$!
sleep 0.5 # let the worker reach its idle claim/poll loop

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

# The worker must notice the dead server and start backing off.
for _ in $(seq 1 100); do
  grep -q "retrying" "$workdir/worker-retry.log" && break
  sleep 0.1
done
grep -q "retrying" "$workdir/worker-retry.log" || {
  echo "smoke: worker never logged a retry against the dead server" >&2
  cat "$workdir/worker-retry.log" >&2
  exit 1
}

start_server
retry_id=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
  --data-binary @"$workdir/retry-jobspec.json" "$base/jobs" |
  grep -o '"id":"[^"]*"' | head -n1 | cut -d'"' -f4)
[ -n "$retry_id" ] || { echo "smoke: no retry job id" >&2; exit 1; }
for _ in $(seq 1 200); do
  st=$(curl -fsS "$base/jobs/$retry_id")
  echo "$st" | grep -q '"state":"done"' && break
  sleep 0.05
done
echo "$st" | grep -q '"state":"done"' || {
  echo "smoke: retry job did not finish — worker did not survive the outage: $st" >&2
  cat "$workdir/worker-retry.log" >&2
  exit 1
}
kill -9 "$worker_pid" 2>/dev/null || true
wait "$worker_pid" 2>/dev/null || true
worker_pid=""
echo "smoke: worker rode out a kill -9 server outage ($(grep -c 'retrying' "$workdir/worker-retry.log") logged retries)"

# ---- Phase 5: graceful shutdown ------------------------------------
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

echo "sweepd smoke: OK (auth + cold + warm in every format + kill-9 resume byte-identical + worker retry, clean drain)"
