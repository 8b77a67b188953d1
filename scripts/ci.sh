#!/usr/bin/env bash
# The repo's one-stop gate: formatting, lints (warnings are errors),
# docs, the full test suite, and a telemetry smoke run.  Run before
# every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== vendored crates =="
# every in-repo stand-in under vendor/ is used by some crate, and the
# retired concurrency stand-ins stay retired
for dir in vendor/*/; do
    name="$(basename "$dir")"
    grep -q "^$name\.workspace = true" Cargo.toml crates/*/Cargo.toml \
        || { echo "vendor/$name is named by no crate manifest"; exit 1; }
done
if grep -nE "^(crossbeam|parking_lot|rayon)\b" Cargo.toml crates/*/Cargo.toml; then
    echo "a manifest names a retired stand-in"; exit 1
fi

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo test --release (profile-pinned crates) =="
# ode's step pins and differential test, boltzmann's source goldens and
# ladder-growth differential, and recomb's thermal-history pins hold a
# value per build profile (or one value both must meet); the optimised
# half is otherwise checked only by the benchmark's verify stage
cargo test -q --release -p ode -p boltzmann -p recomb

echo "== telemetry smoke run =="
# a tiny farm must produce a parseable run report with a sane
# efficiency, plus a chrome-tracing span file — on worker threads and on
# worker subprocesses alike (the one pool type's two kinds)
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for transport in channel tcp; do
cargo run -q --release -p plinger --bin plinger -- \
    --preset draft --nk 3 --kmin 4e-4 --kmax 2e-3 --workers 2 \
    --transport "$transport" \
    --telemetry json --trace-out "$smoke_dir/trace_$transport.json" \
    --output "$smoke_dir/smoke_$transport" > "$smoke_dir/report_$transport.json"
python3 - "$smoke_dir" "$transport" <<'EOF'
import json, sys, os
d, transport = sys.argv[1], sys.argv[2]
report = json.load(open(os.path.join(d, f"report_{transport}.json")))
assert report["schema"] == "plinger.run_report/2", report.get("schema")
eff = report["run"]["efficiency"]
assert 0.0 < eff <= 1.0, f"efficiency {eff} out of (0, 1]"
assert len(report["modes"]) == 3, len(report["modes"])
assert report["run"]["workers"] == 2
rec = report["recovery"]
assert rec["requeues"] == 0 and rec["respawns"] == 0, rec
assert rec["failed_modes"] == [], rec
# one tag-3 per mode, each carrying one real
assign = [m for m in report["messages"] if m["tag"] == 3]
assert len(assign) == 1 and assign[0]["sent"] == 3, assign
assert assign[0]["sent_bytes"] == 24, assign
on_disk = json.load(open(os.path.join(d, f"smoke_{transport}.run_report.json")))
assert on_disk == report, "stdout JSON and run_report.json file differ"
trace = json.load(open(os.path.join(d, f"trace_{transport}.json")))
assert trace and all(ev["ph"] == "X" for ev in trace), "bad trace events"
assert all("pid" in ev and "tid" in ev and "ts" in ev and "dur" in ev for ev in trace)
# worker threads hand their spans over with the job's report, once each;
# subprocess workers keep none and the trace carries none of theirs
iks = sorted(ev["args"]["ik"] for ev in trace if ev["cat"] == "worker" and ev["name"] == "mode")
want = ["0", "1", "2"] if transport == "channel" else []
assert iks == want, f"worker mode spans {iks}, want {want}"
print(f"smoke ({transport}): efficiency {eff:.3f}, {len(trace)} trace events")
EOF
done
# a count that is not a whole number is a usage error, never a panic
# or a wrapped rank count
set +e
huge="$(cargo run -q --release -p plinger --bin plinger -- --workers 1e300 2>&1)"
huge_code=$?
set -e
if [ "$huge_code" -ne 2 ] || grep -q panicked <<<"$huge"; then
    echo "plinger --workers 1e300 exited $huge_code: $huge"; exit 1
fi
# there is one recovery path: the flags that picked another are unknown
set +e
failfast="$(cargo run -q --release -p plinger --bin plinger -- --recovery failfast 2>&1)"
failfast_code=$?
attempts="$(cargo run -q --release -p plinger --bin plinger-serve -- \
    --listen 127.0.0.1:0 --max-attempts 3 2>&1)"
attempts_code=$?
set -e
if [ "$failfast_code" -ne 2 ] || ! grep -q "unknown flag --recovery" <<<"$failfast" \
    || grep -q panicked <<<"$failfast"; then
    echo "plinger --recovery failfast exited $failfast_code: $failfast"; exit 1
fi
if [ "$attempts_code" -ne 2 ] || ! grep -q "unknown server flag --max-attempts" <<<"$attempts" \
    || grep -q panicked <<<"$attempts"; then
    echo "plinger-serve --max-attempts 3 exited $attempts_code: $attempts"; exit 1
fi
# there is no shmem transport: both bins refuse it as unknown
set +e
shmem_cli="$(cargo run -q --release -p plinger --bin plinger -- --transport shmem 2>&1)"
shmem_cli_code=$?
shmem_serve="$(cargo run -q --release -p plinger --bin plinger-serve -- \
    --listen 127.0.0.1:0 --transport shmem 2>&1)"
shmem_serve_code=$?
set -e
for pair in "plinger:$shmem_cli_code" "plinger-serve:$shmem_serve_code"; do
    [ "${pair#*:}" -eq 2 ] || { echo "${pair%%:*} --transport shmem exited ${pair#*:}"; exit 1; }
done
for out in "$shmem_cli" "$shmem_serve"; do
    if ! grep -q "unknown transport shmem" <<<"$out" || grep -q panicked <<<"$out"; then
        echo "--transport shmem was not refused as unknown: $out"; exit 1
    fi
done
# a curved cosmology is a usage error naming Omega_k, on worker threads
# and on worker subprocesses alike — never a worker panic
for transport in channel tcp; do
    set +e
    curved="$(cargo run -q --release -p plinger --bin plinger -- --omega-c 0.5 --nk 3 \
        --preset draft --kmax 0.01 --transport "$transport" 2>&1 >/dev/null)"
    curved_code=$?
    set -e
    if [ "$curved_code" -ne 2 ] || ! grep -q Omega_k <<<"$curved" \
        || grep -q panicked <<<"$curved"; then
        echo "curved cosmology on $transport exited $curved_code: $curved"; exit 1
    fi
done

echo "== service smoke run =="
# spectrum-as-a-service: a warm pool behind plinger-serve must answer
# two identical requests with one cache hit (bitwise-equal bodies, no
# second pool job) and a distinct request with a fresh run; the
# Prometheus listener is scraped mid-run over raw /dev/tcp
cargo build -q --release -p plinger --bin plinger-serve
serve_bin="target/release/plinger-serve"
serve_log="$smoke_dir/serve.log"
"$serve_bin" --listen 127.0.0.1:0 --metrics-addr 127.0.0.1:0 \
    --transport channel --workers 2 \
    --max-requests 3 > "$serve_log" 2> "$smoke_dir/serve.err" &
serve_pid=$!
serve_addr=""
metrics_addr=""
for _ in $(seq 1 100); do
    serve_addr="$(sed -n 's/^plinger-serve: listening on //p' "$serve_log")"
    metrics_addr="$(sed -n 's/^plinger-serve: metrics on //p' "$serve_log")"
    [ -n "$serve_addr" ] && [ -n "$metrics_addr" ] && break
    sleep 0.1
done
[ -n "$serve_addr" ] || { echo "plinger-serve never came up"; cat "$smoke_dir/serve.err"; exit 1; }
[ -n "$metrics_addr" ] || { echo "metrics listener never came up"; cat "$smoke_dir/serve.err"; exit 1; }
req() { "$serve_bin" --connect "$serve_addr" --preset draft \
        --kmin 4e-4 --kmax 2e-3 "$@"; }
# one HTTP/1.0 GET over bash's /dev/tcp — no curl dependency
scrape() {
    exec 3<>"/dev/tcp/${metrics_addr%:*}/${metrics_addr##*:}"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
    cat <&3
    exec 3>&-
}
health="$(scrape /healthz)"
case "$health" in
    *"200 OK"*) ;;
    *) echo "healthz not ready: $health"; exit 1 ;;
esac
r1="$(req --nk 3)"
r2="$(req --nk 3)"
# scrape while the server is still running: the listener must answer
# without touching the request path
scrape /metrics > "$smoke_dir/scrape.txt"
r3="$(req --nk 4)"
wait "$serve_pid"
python3 - "$r1" "$r2" "$r3" "$serve_log" "$smoke_dir/scrape.txt" <<'EOF'
import sys
r1, r2, r3 = (dict(kv.split("=", 1) for kv in line.split()) for line in sys.argv[1:4])
assert r1["cache_hit"] == "0", r1
assert r2["cache_hit"] == "1", "identical request did not hit the cache"
assert r3["cache_hit"] == "0", r3
# the cache hit replayed the exact bytes of the first response
assert r1["fnv"] == r2["fnv"], (r1["fnv"], r2["fnv"])
assert r1["fnv"] != r3["fnv"], "distinct jobs returned identical bodies"
assert r1["outputs"] == "3" and r3["outputs"] == "4", (r1, r3)
summary = open(sys.argv[4]).read()
assert "served 3 requests, cache hits=1 misses=2, pool jobs=2" in summary, summary
# the mid-run scrape saw both requests and the stability-contract names
scrape = open(sys.argv[5]).read()
for needle in (
    "plinger_requests_total 2",
    "plinger_cache_hits_total 1",
    "plinger_cache_misses_total 1",
    "plinger_pool_jobs_total 1",
    "plinger_workers_alive 2",
    "plinger_request_total_ns_count 2",
    'plinger_request_total_ns_bucket{le="+Inf"} 2',
):
    assert needle in scrape, f"scrape missing {needle!r}"
print(f"service smoke: 1 hit / 2 misses, body fnv {r1['fnv']}, /metrics live")
EOF
# an out-of-range parameter is refused at admission (h = -0.5 is flat,
# so only the range check catches it) and the pool serves the next
# request: no worker ever saw the bad one
"$serve_bin" --listen 127.0.0.1:0 --transport channel --workers 2 \
    --max-requests 2 > "$serve_log" 2> "$smoke_dir/serve.err" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr="$(sed -n 's/^plinger-serve: listening on //p' "$serve_log")"
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
[ -n "$serve_addr" ] || { echo "plinger-serve never came up"; cat "$smoke_dir/serve.err"; exit 1; }
set +e
bad_h="$(req --nk 2 --h -0.5 2>&1)"
bad_h_code=$?
set -e
if [ "$bad_h_code" -eq 0 ] || ! grep -q "bad-request" <<<"$bad_h" \
    || ! grep -q "h = -0.5" <<<"$bad_h"; then
    echo "h = -0.5 was not refused as a bad request (exit $bad_h_code): $bad_h"; exit 1
fi
good="$(req --nk 2)"
wait "$serve_pid"
grep -q "cache_hit=0" <<<"$good" && grep -q "outputs=2" <<<"$good" \
    || { echo "the request after a refused one failed: $good"; exit 1; }
grep -q "pool jobs=1" "$serve_log" || { echo "unexpected summary: $(cat "$serve_log")"; exit 1; }
echo "service smoke: h = -0.5 refused at admission, next request served"

echo "== chaos soak =="
# request-lifecycle robustness under fire: a stall-and-vanish worker
# fault, a queue limit small enough to shed the burst, clients with
# expired deadlines racing clients without, then a SIGTERM drain and a
# kill-and-restart cycle over the persistent cache.  Asserts: every
# client exits (no wedged requests), deadline clients fail with the
# typed deadline error, unbounded clients succeed despite shedding and
# the fault, the drain exits 0, and the restarted server serves the
# old request from --cache-dir bitwise-identically.
chaos_cache="$smoke_dir/chaos_cache"
chaos_out="$smoke_dir/chaos_out"
mkdir -p "$chaos_cache" "$chaos_out"
chaos_log="$smoke_dir/chaos.log"
"$serve_bin" --listen 127.0.0.1:0 --transport channel --workers 2 \
    --respawn-limit 4 --fault stall:1:0:200 \
    --queue-limit 2 --drain-timeout 5000 --cache-dir "$chaos_cache" \
    > "$chaos_log" 2> "$smoke_dir/chaos.err" &
chaos_pid=$!
chaos_addr=""
for _ in $(seq 1 100); do
    chaos_addr="$(sed -n 's/^plinger-serve: listening on //p' "$chaos_log")"
    [ -n "$chaos_addr" ] && break
    sleep 0.1
done
[ -n "$chaos_addr" ] || { echo "chaos server never came up"; cat "$smoke_dir/chaos.err"; exit 1; }
creq() { timeout 120 "$serve_bin" --connect "$chaos_addr" --preset draft \
        --kmin 4e-4 --kmax 2e-3 "$@"; }
ok_pids=()
for nk in 3 4 5; do
    creq --nk "$nk" --retries 10 --retry-base-ms 40 \
        > "$chaos_out/ok_$nk.out" 2> "$chaos_out/ok_$nk.err" &
    ok_pids+=($!)
done
dead_pids=()
for nk in 6 7; do
    creq --nk "$nk" --deadline-ms 1 --retries 10 --retry-base-ms 40 \
        > "$chaos_out/dead_$nk.out" 2> "$chaos_out/dead_$nk.err" &
    dead_pids+=($!)
done
for pid in "${ok_pids[@]}"; do
    wait "$pid" || { echo "unbounded chaos client failed"; cat "$chaos_out"/ok_*.err; exit 1; }
done
for pid in "${dead_pids[@]}"; do
    status=0; wait "$pid" || status=$?
    [ "$status" -ne 0 ] || { echo "1 ms deadline was served"; exit 1; }
    [ "$status" -ne 124 ] || { echo "deadline client wedged (timeout)"; exit 1; }
done
grep -q "deadline" "$chaos_out"/dead_6.err && grep -q "deadline" "$chaos_out"/dead_7.err \
    || { echo "deadline clients died without the typed error"; cat "$chaos_out"/dead_*.err; exit 1; }
kill -TERM "$chaos_pid"
drain_status=0; wait "$chaos_pid" || drain_status=$?
[ "$drain_status" -eq 0 ] || { echo "drain exited $drain_status"; cat "$smoke_dir/chaos.err"; exit 1; }
grep -q "served " "$chaos_log" || { echo "no summary after drain"; cat "$chaos_log"; exit 1; }
# kill-and-restart: a fresh process on the same --cache-dir must serve
# the round-1 job from disk, byte-for-byte
"$serve_bin" --listen 127.0.0.1:0 --transport channel --workers 2 \
    --max-requests 1 --cache-dir "$chaos_cache" \
    > "$smoke_dir/chaos2.log" 2>> "$smoke_dir/chaos.err" &
chaos2_pid=$!
chaos_addr=""
for _ in $(seq 1 100); do
    chaos_addr="$(sed -n 's/^plinger-serve: listening on //p' "$smoke_dir/chaos2.log")"
    [ -n "$chaos_addr" ] && break
    sleep 0.1
done
[ -n "$chaos_addr" ] || { echo "restarted server never came up"; cat "$smoke_dir/chaos.err"; exit 1; }
r_restart="$(creq --nk 3)"
wait "$chaos2_pid" || { echo "restarted server exited abnormally"; exit 1; }
python3 - "$r_restart" "$chaos_out/ok_3.out" <<'EOF'
import sys
restart = dict(kv.split("=", 1) for kv in sys.argv[1].split())
orig = dict(kv.split("=", 1) for kv in open(sys.argv[2]).read().split())
assert restart["cache_hit"] == "1", "restart lost the persistent cache"
assert restart["fnv"] == orig["fnv"], (restart["fnv"], orig["fnv"])
print(f"chaos soak: survived stall fault, shed burst, drain, restart; fnv {orig['fnv']}")
EOF

echo "== ensemble smoke =="
# ensemble sharding end to end at serve level: a tiny 2×2 Ω_b × h sweep
# streams four tag-23 shard frames (all cold), the identical repeat is
# served entirely from the result cache with bitwise-equal bodies, and
# a single-spectrum request for one swept cosmology crosses over into
# the shard cache (shared job-hash keys).  A third sweep adds an n_s
# axis over a fresh Ω_b × h pair: the mode equations never read n_s, so
# of its eight cold shards the four twins are hits carrying their
# sibling's bytes.  Last, a single request caches one shard of a fresh
# sweep, which then streams that shard as its one hit with the single
# request's bytes (the held path through plinger-serve).  The
# bitwise-vs-serial leg of the gate is the dedicated differential suite
# below.
ens_log="$smoke_dir/ens.log"
"$serve_bin" --listen 127.0.0.1:0 --transport channel --workers 2 \
    --max-requests 6 > "$ens_log" 2> "$smoke_dir/ens.err" &
ens_pid=$!
ens_addr=""
for _ in $(seq 1 100); do
    ens_addr="$(sed -n 's/^plinger-serve: listening on //p' "$ens_log")"
    [ -n "$ens_addr" ] && break
    sleep 0.1
done
[ -n "$ens_addr" ] || { echo "ensemble server never came up"; cat "$smoke_dir/ens.err"; exit 1; }
ereq() { "$serve_bin" --connect "$ens_addr" --preset draft \
        --kmin 4e-4 --kmax 2e-3 --nk 3 "$@"; }
e1="$(ereq --ensemble --sweep-omega-b 0.03,0.06 --sweep-h 0.5,0.7)"
e2="$(ereq --ensemble --sweep-omega-b 0.03,0.06 --sweep-h 0.5,0.7)"
e3="$(ereq --omega-b 0.06 --h 0.7)"
e4="$(ereq --ensemble --sweep-omega-b 0.04,0.05 --sweep-h 0.55,0.65 --sweep-ns 0.95,1.0)"
e5="$(ereq --omega-b 0.045 --h 0.6)"
e6="$(ereq --ensemble --sweep-omega-b 0.045,0.055 --sweep-h 0.6)"
wait "$ens_pid"
python3 - "$e1" "$e2" "$e3" "$e4" "$e5" "$e6" <<'EOF'
import sys
def shards(out, n=4):
    rows = [dict(kv.split("=", 1) for kv in l.split())
            for l in out.splitlines() if l.startswith("shard=")]
    assert [r["shard"] for r in rows] == [f"{i}/{n}" for i in range(n)], rows
    return rows
s1, s2 = shards(sys.argv[1]), shards(sys.argv[2])
assert all(r["cache_hit"] == "0" for r in s1), s1
assert all(r["cache_hit"] == "1" for r in s2), "repeat sweep missed the cache"
for a, b in zip(s1, s2):
    assert a["fnv"] == b["fnv"], "cached shard bytes moved"
assert "ensemble shards=4 ok=4 hits=0" in sys.argv[1], sys.argv[1]
assert "ensemble shards=4 ok=4 hits=4" in sys.argv[2], sys.argv[2]
single = dict(kv.split("=", 1) for kv in sys.argv[3].split())
assert single["cache_hit"] == "1", "single request missed the shard cache"
# canonical shard order is omega_b-major, h-fast: (0.06, 0.7) is shard 3
assert single["fnv"] == s1[3]["fnv"], (single["fnv"], s1[3]["fnv"])
# n_s is the fastest index: shards 2g and 2g+1 are one evolution
s4 = shards(sys.argv[4], 8)
assert "ensemble shards=8 ok=8 hits=4" in sys.argv[4], sys.argv[4]
for first, twin in zip(s4[0::2], s4[1::2]):
    assert (first["cache_hit"], twin["cache_hit"]) == ("0", "1"), (first, twin)
    assert first["fnv"] == twin["fnv"], "a twin's bytes differ from its sibling's"
assert len({r["fnv"] for r in s4}) == 4, "distinct (omega_b, h) points collided"
# shard 0 of the last sweep was cached by the single request before it
held = dict(kv.split("=", 1) for kv in sys.argv[5].split())
assert held["cache_hit"] == "0", held
s6 = shards(sys.argv[6], 2)
assert "ensemble shards=2 ok=2 hits=1" in sys.argv[6], sys.argv[6]
assert [r["cache_hit"] for r in s6] == ["1", "0"], s6
assert s6[0]["fnv"] == held["fnv"], (s6[0]["fnv"], held["fnv"])
print(f"ensemble smoke: 4 cold + 4 cached shards, crossover hit, fnv {single['fnv']}; "
      f"n_s axis: 4 evolutions for 8 shards; held shard fnv {held['fnv']}")
EOF

echo "== metric-name stability =="
# the exposition names are a stability contract pinned against
# docs/OBSERVABILITY.md
cargo test -q -p plinger --test observability

echo "== hot-path differential layer =="
# the RHS fast path (hunted spline caches) is pinned against the
# direct implementations by dedicated differential suites; run them
# explicitly so a cache-coherence regression names itself in the CI log
cargo test -q -p background --test cache_differential
cargo test -q -p recomb --test cache_differential

echo "== los differential smoke =="
# the line-of-sight fast path (truncated hierarchy + source recorder +
# Bessel projection) pinned against the untruncated hierarchy on a
# matched l band at draft accuracy — the full Demo-grade crosschecks
# and golden C_l gates ride the workspace suite above; this names the
# fast path explicitly in the CI log.  The projection itself (fine grid
# and sources once per mode, modes dealt to threads) is pinned to the
# bit against the loop it replaced, kept as the test's reference
cargo test -q --test los_crosscheck draft_smoke
cargo test -q -p spectra --lib project_mode_is_bit_identical_to_the_reference_loop

echo "== benchmark verify smoke =="
# the benchmark harness's own checks on every workload, shrunken; its
# last stdout line is the result object.  hierarchy_cl and los_cl check
# the farm's outputs bitwise against run_serial (on hierarchy_cl that
# covers the ladder growth at the end of recombination) and the
# projected spectrum's matched-l band deviation; sweep_pk every pooled
# shard's mode outputs bitwise against run_serial; serve_mix, which speaks the service wire,
# that every cache hit's body equals its miss's and miss bodies decode
# to run_serial
for w in hierarchy_cl los_cl sweep_pk serve_mix; do
    e2e_last="$(bash crates/e2ebench/bench.sh --workload "$w" --seed 1 --seconds 1 \
        --trace 0 --smoke | tail -n 1)" || true
    case "$e2e_last" in
        *'"correct":true'*) echo "e2ebench $w smoke: correct" ;;
        *) echo "e2ebench $w smoke did not verify: $e2e_last" >&2; exit 1 ;;
    esac
done

echo "== rhs bench smoke =="
# compile-and-run-once smoke of the microbench behind BENCH_rhs.json
# (full measurement is scripts/bench_snapshot.sh, not a CI gate)
cargo bench -p bench --bench rhs_eval -- --test
# one timed gate, on a ratio of two medians from the same process: a
# massive species costs the background lookup two kernel splines, never
# a quadrature (7.8 when every lookup integrated Omega_k, 1.9 since)
lookups="$(cargo bench -p bench --bench thermo | grep "^bench: background_lookup_")"
python3 - "$lookups" <<'PY'
import re, sys
ns = {m.group(1): float(m.group(2))
      for m in re.finditer(r"background_lookup_(\w+) median ([0-9.]+) ns/iter", sys.argv[1])}
ratio = ns["mdm"] / ns["scdm"]
assert ratio <= 5, f"massive/massless background lookup {ratio:.1f}x: {ns}"
print(f"background lookup gate: mdm {ns['mdm']} ns / scdm {ns['scdm']} ns = {ratio:.2f}x")
PY
# and one on the stepper, again two medians of one process: a Verner
# integration over `stages` RHS evaluations at the same layout may not
# cost more than it did at the last commit whose step tail walked the
# stage vectors element by element (BENCH_rhs.json records that value,
# and a quarter below it for the tail on pre-cut slices)
steps="$(cargo bench -p bench --bench rhs \
    | grep -E "^(stages: Verner65|bench: rhs_eval/256|bench: dverk_step/Verner65) ")"
python3 - "$steps" <<'PY'
import json, re, sys
out = sys.argv[1]
stages = int(re.search(r"stages: Verner65 (\d+)", out).group(1))
rhs = float(re.search(r"rhs_eval/256 median ([0-9.]+) ns/iter", out).group(1))
step = float(re.search(r"dverk_step/Verner65 median ([0-9.]+) ns/iter", out).group(1))
ratio = step / (stages * rhs)
before = json.load(open("BENCH_rhs.json"))["stepper"]["Verner65"]["before"]["step_over_rhs"]
assert ratio <= before, f"Verner step over rhs {ratio:.1f}, was {before} before: {out}"
print(f"stepper gate: {step} ns / ({stages} x {rhs} ns) = {ratio:.1f} (<= {before})")
PY

echo "== los bench smoke + memory gates =="
# compile-and-run-once smoke of the end-to-end method comparison behind
# BENCH_los.json (tiny grid: l_max 60, every 16th k; full measurement is
# scripts/bench_snapshot.sh los).  No timing is asserted; the gates are
# on bytes, which are the same on any machine: a mode's source recorder
# holds five reals per accepted step (not the state vector), and the
# Bessel table holds the node rows (not every l up to l_max; gated at
# full size by the named test below)
los_line="$(cargo run -q --release -p bench --bin los_speedup 60 16 \
    | grep "^bench: los_speedup/lmax60 ")"
python3 - "$los_line" <<'PY'
import sys
fields = dict(kv.split("=") for kv in sys.argv[1].split()[2:])
rec_kb = float(fields["recorder_kb_per_mode"])
assert 0 < rec_kb <= 1024, f"a source recorder held {rec_kb} kB: {sys.argv[1]}"
print(f"los memory gate: recorder {rec_kb} kB per mode, table {fields['jltable_mb']} MB")
PY
# the table los_spectrum asks for at l_max 1500, x_max 3010: <= 8 MB
cargo test -q -p spectra --lib node_rows_of_the_largest_preset_fit_in_8_mb

echo "== fault matrix =="
# the recovery tests sweep every FaultPlan variant over the channel
# world (recovery_matrix), the transport seam — one rule that drops or
# corrupts the nth message sent under one tag (msgpass fault unit
# tests), and the TCP subprocess deployment (tcp_recovery: respawn and
# requeue-only); farm_transports pins that a default-config farm takes
# the same requeue path.  The master's garbled-tag-8 test and the one
# worker-fault grammar (drop:RANK:AFTER | stall:RANK:AFTER:MS |
# failmode:IK) run by name.  Run them explicitly so a fault-handling
# regression names itself in the CI log.
cargo test -q --test recovery_matrix
cargo test -q -p plinger --test tcp_recovery
cargo test -q -p msgpass fault::
for t in master::tests::garbled_tag_8_requeues_the_senders_mode_and_deals_it_the_next \
         farm::tests::worker_level_plans_have_one_string_form; do
    ran="$(cargo test -q -p plinger --lib -- --exact "$t")"
    grep -q "1 passed" <<<"$ran" || { echo "fault matrix: $t did not run"; exit 1; }
done

echo "== chaos determinism (x20) =="
# every scripted kill lands inside an assignment the master guarantees
# its victim holds, so the chaos suites pass every run, not most runs:
# twenty in a row, any failure fatal.  Every case waits on the msgpass
# mailbox, whose own tests ride along
cargo test -q --release --no-run --test farm_transports --test recovery_matrix
cargo test -q --release --no-run -p plinger --test tcp_recovery
cargo test -q --release --no-run -p msgpass
for round in $(seq 1 20); do
    cargo test -q --release --test farm_transports --test recovery_matrix > /dev/null \
        || { echo "chaos round $round failed (farm_transports/recovery_matrix)"; exit 1; }
    cargo test -q --release -p plinger --test tcp_recovery > /dev/null \
        || { echo "chaos round $round failed (tcp_recovery)"; exit 1; }
    cargo test -q --release -p msgpass > /dev/null \
        || { echo "chaos round $round failed (msgpass)"; exit 1; }
done
echo "chaos determinism: 20/20"

echo "== warm-pool determinism =="
# pooled jobs must stay bitwise-identical to fresh farms with tables
# built once per process and only on cosmology change, and the canonical
# hashes the table cache keys on are pinned to golden values
cargo test -q -p plinger --test pool_sessions --test canonical_hash --test serve

echo "== ensemble differential layer =="
# the two-level sweep scheduler pinned bitwise against the serial loop
# of single-cosmology jobs, with shard requeue and mid-shard worker
# kill; the channel-transport leg is the bitwise-vs-serial assert of
# the ensemble smoke gate above (the tcp leg rides the same suite)
cargo test -q --test ensemble_pinning

echo "== exact build counts x10 =="
# both suites pin table builds exactly (one per cosmology per process,
# claimed by exactly one rank); a scheduling race would show as a count
# off by one in some run, so one green run proves little
for i in $(seq 1 10); do
    cargo test -q --test ensemble_pinning >/dev/null \
        || { echo "ensemble_pinning failed on run $i"; exit 1; }
    cargo test -q -p plinger --test pool_sessions >/dev/null \
        || { echo "pool_sessions failed on run $i"; exit 1; }
done

echo "== ensemble bench gate =="
# run the sweep-throughput bench behind BENCH_ensemble.json once
# (2 workers, 2 modes/shard; the bin itself asserts the warm-pool cube
# is bitwise-identical to fresh farms) and gate on the counts that are
# exact on any machine: 12 shards on a two-point n_s axis are 6
# evolutions, and the warm pool builds one table set for each
bench_line="$(cargo run -q --release -p bench --bin ensemble 2 2 \
    | grep "^bench: ensemble/3x2x2/w2 ")"
python3 - "$bench_line" <<'PY'
import sys
fields = dict(kv.split("=") for kv in sys.argv[1].split()[2:])
builds = int(fields["ctx_rebuilds"]) + int(fields["prefetch_builds"])
evolutions = int(fields["evolutions"])
assert fields["shards"] == "12" and builds == evolutions == 6, \
    f"{builds} builds, {evolutions} evolutions for {fields['shards']} shards: {sys.argv[1]}"
print(f"ensemble bench gate: {builds} builds, {evolutions} evolutions for 12 shards")
PY

echo "ci: all green"
