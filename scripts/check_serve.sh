#!/usr/bin/env bash
# Gates the quanto-serve daemon: start it on an ephemeral port, send it one
# hostile line (a million nested brackets) that must come back as a protocol
# error without taking the daemon down, then run two *concurrent*
# `fleet_sweep --server` client sweeps of the example grid against it, and
# require (a) both clients complete, (b) both digests are byte-identical to
# each other AND to an in-process (no-daemon, no-cache) run of the same
# grid, and (c) `GET /metrics` returns a clean harvest naming both jobs'
# traffic and exactly one protocol error.
#
#   scripts/check_serve.sh [out-dir]    # client JSON written here (default .)
set -euo pipefail
cd "$(dirname "$0")/.."
out_dir="${1:-.}"
mkdir -p "$out_dir"

cargo build --release -q -p quanto-bench --bin fleet_sweep
cargo build --release -q -p quanto-serve --bin quanto_serve
sweep=target/release/fleet_sweep
serve=target/release/quanto_serve

daemon_out="$(mktemp)"
metrics_out="$(mktemp)"
hostile_out="$(mktemp)"
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null || true
  rm -f "$daemon_out" "$metrics_out" "$hostile_out"
}
trap cleanup EXIT

# Ephemeral port, no cache (every cell must actually execute on the pool),
# obs on so /metrics carries the engine/runner counters too.
"$serve" --addr 127.0.0.1:0 --no-cache --obs >"$daemon_out" &
daemon_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^quanto-serve listening on //p' "$daemon_out")"
  [[ -n "$addr" ]] && break
  kill -0 "$daemon_pid" 2>/dev/null || { echo "FAIL: daemon died at startup" >&2; exit 1; }
  sleep 0.1
done
[[ -n "$addr" ]] || { echo "FAIL: daemon never printed its address" >&2; exit 1; }
echo "serve gate: daemon up on $addr (pid $daemon_pid)"
host="${addr%:*}" port="${addr##*:}"

# A hostile line: one million `[` and a newline.  The daemon must answer it
# with an error line and keep serving everyone else.
exec 3<>"/dev/tcp/$host/$port"
{ head -c 1000000 /dev/zero | tr '\0' '['; printf '\n'; } >&3
cat <&3 >"$hostile_out"
exec 3<&- 3>&-
grep -q '^{"t":"error",' "$hostile_out" || {
  echo "FAIL: the nested line got no error reply:" >&2; head -c 200 "$hostile_out" >&2; exit 1; }
kill -0 "$daemon_pid" 2>/dev/null || { echo "FAIL: a nested line killed the daemon" >&2; exit 1; }
echo "serve gate: hostile nested line rejected, daemon still up"

run_client() { # OUT — one served sweep of the example grid
  "$sweep" --server "$addr" --grid examples/sweep.grid --seconds 2 --json >"$1"
}

# Two tenants, genuinely concurrent on the shared pool.
run_client "$out_dir/serve_client_a.json" &
client_a=$!
run_client "$out_dir/serve_client_b.json" &
client_b=$!
wait "$client_a" || { echo "FAIL: client A failed" >&2; exit 1; }
wait "$client_b" || { echo "FAIL: client B failed" >&2; exit 1; }

# The reference digest: the same grid, in-process, cache disabled.
"$sweep" --grid examples/sweep.grid --seconds 2 --no-cache --json >"$out_dir/serve_local.json"

summary_field() { # FILE KEY — first numeric/hex value of KEY in the summary line
  tail -n 1 "$1" | grep -o "\"$2\":\"\?[0-9a-fx]*" | head -n 1 | sed 's/.*://; s/"//'
}

digest_a=$(summary_field "$out_dir/serve_client_a.json" digest)
digest_b=$(summary_field "$out_dir/serve_client_b.json" digest)
digest_local=$(summary_field "$out_dir/serve_local.json" digest)
echo "serve gate: client A $digest_a, client B $digest_b, in-process $digest_local"

if [[ -z "$digest_local" || "$digest_a" != "$digest_local" || "$digest_b" != "$digest_local" ]]; then
  echo "FAIL: served digests must be byte-identical to the in-process run" >&2
  exit 1
fi

# /metrics over plain HTTP on the same port: a 200, and a harvest that
# accounts for exactly the two jobs and the one hostile line this gate sent.
exec 3<>"/dev/tcp/$host/$port"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 >"$metrics_out"
exec 3<&- 3>&-

grep -q "^HTTP/1.0 200 OK" "$metrics_out" || {
  echo "FAIL: GET /metrics did not answer 200:" >&2; head -n 3 "$metrics_out" >&2; exit 1; }
for needle in "counter serve.jobs.submitted 2" \
              "counter serve.jobs.completed 2" \
              "counter serve.jobs.cancelled 0" \
              "counter serve.errors.protocol 1" \
              "gauge serve.jobs.active 0"; do
  grep -q "^$needle$" "$metrics_out" || {
    echo "FAIL: /metrics missing \"$needle\":" >&2; grep "serve\." "$metrics_out" >&2 || true; exit 1; }
done

echo "serve gate: OK (hostile line survived, 2 concurrent tenants, digests byte-identical to in-process, clean /metrics)"
