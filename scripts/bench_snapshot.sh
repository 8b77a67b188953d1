#!/usr/bin/env bash
# Re-measure a benchmark and snapshot the result at the repo root.
#
#   bench_snapshot.sh          # RHS microbench         -> BENCH_rhs.json
#   bench_snapshot.sh los      # LOS vs full hierarchy  -> BENCH_los.json
#   bench_snapshot.sh ensemble # sweep vs fresh farms   -> BENCH_ensemble.json
#
# RHS mode: the baseline numbers below are the medians of the same
# bench measured on this machine immediately BEFORE the shared-cache +
# vectorizable-kernel rework of the RHS (per-call spline bisection,
# index-chasing hierarchy loops).  The snapshot records the current
# medians, the flop census per evaluation, and the speedup against
# that pinned baseline.  It also runs the thermo bench — table builds
# and the hinted background lookup, each with and without a massive
# neutrino — against the medians of the commit before Background stopped
# recomputing its cosmology constants per lookup, and records the
# massive/massless lookup ratio scripts/ci.sh gates on.  And it runs the
# rhs bench — one adaptive integration per method beside the bare RHS
# evaluation at the same layout — and records, per method, the time of
# the integration over the time of `stages` evaluations, measured in one
# process: the stepper's own cost as a ratio that a busy host moves
# little.  `before` is commit 9db763d, the last whose step tail walked
# the stage vectors element by element; scripts/ci.sh gates on the
# Verner ratio staying at or below it.
#
# LOS mode: end-to-end wall clock of the full moment hierarchy versus
# the line-of-sight fast path on the identical thinned k-grid (demo
# preset) at l_max 500 and 1500 — the line-of-sight side split into its
# farm (evolve) and projection seconds, with the thread count both ran
# on and the host's nproc — plus the matched-l band deviation
# between the two methods and what the two LOS stages hold in memory:
# the node-row Bessel table's megabytes and build time, and the most
# any one mode's source recorder held (see
# crates/bench/src/bin/los_speedup.rs).
#
# Ensemble mode: the 3×2×2 Ω_b × h × n_s transfer-function cube on one
# warm pool (one job per (Ω_b, h) point + prefetch) versus a fresh farm
# per cosmology and versus the naive pool-over-flattened-grid loop that
# rebuilds the background/recomb tables in every (cosmology, k) task, at
# pool sizes 1/2/4.  The cube hash must be identical everywhere, and the
# warm pool's table builds must equal its evolutions — the snapshot
# records throughput, never physics (see
# crates/bench/src/bin/ensemble.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-rhs}"

if [ "$mode" = "los" ]; then
    cargo build -q --release -p bench --bin los_speedup
    out=""
    for args in "500 8" "1500 24"; do
        # shellcheck disable=SC2086
        run="$(target/release/los_speedup $args 2>&1)"
        echo "$run"
        out="$out$run"$'\n'
    done
    BENCH_OUT="$out" NPROC="$(nproc)" python3 - <<'EOF'
import json, os, re

out = os.environ["BENCH_OUT"]

# thin factors pinned above; both methods always see the same grid
thin = {"500": 8, "1500": 24}

cases = {}
for m in re.finditer(
    r"^bench: los_speedup/lmax(\d+) full_s=([0-9.]+) los_s=([0-9.]+) "
    r"evolve_s=([0-9.]+) project_s=([0-9.]+) threads=(\d+) "
    r"speedup=([0-9.]+) modes=(\d+) band_dev=([0-9.]+) "
    r"jltable_mb=([0-9.]+) jltable_build_ms=([0-9.]+) "
    r"recorder_kb_per_mode=([0-9.]+)$",
    out,
    re.M,
):
    (lmax, full_s, los_s, evolve_s, project_s, threads, speedup, modes, dev,
     mb, build_ms, rec_kb) = m.groups()
    cases[f"lmax{lmax}"] = {
        "l_max": int(lmax),
        "modes": int(modes),
        "thin": thin[lmax],
        "full_hierarchy_s": float(full_s),
        "line_of_sight_s": float(los_s),
        "los_evolve_s": float(evolve_s),
        "los_project_s": float(project_s),
        "threads": int(threads),
        "nproc": int(os.environ["NPROC"]),
        "speedup_vs_baseline": float(speedup),
        "matched_l_band_dev": float(dev),
        "jltable_mb": float(mb),
        "jltable_build_ms": float(build_ms),
        "recorder_kb_per_mode": float(rec_kb),
    }
assert set(cases) == {"lmax500", "lmax1500"}, f"cases: {sorted(cases)}"

snapshot = {
    "schema": "plinger.bench_los/1",
    "bench": "full hierarchy vs line-of-sight fast path, equal thinned "
             "k-grid (demo preset, ChannelWorld farm)",
    "baseline": "full moment hierarchy evolved to l_max on the same grid",
    "cases": cases,
}
with open("BENCH_los.json", "w") as fh:
    json.dump(snapshot, fh, indent=2)
    fh.write("\n")

worst = min(c["speedup_vs_baseline"] for c in cases.values())
dev = max(c["matched_l_band_dev"] for c in cases.values())
print(
    f"bench_snapshot: wrote BENCH_los.json "
    f"(worst-case speedup {worst}x, worst band deviation {dev})"
)
EOF
    exit 0
fi

if [ "$mode" = "ensemble" ]; then
    cargo build -q --release -p bench --bin ensemble
    out=""
    for w in 1 2 4; do
        run="$(target/release/ensemble "$w" 6 2>&1)"
        echo "$run"
        out="$out$run"$'\n'
    done
    BENCH_OUT="$out" python3 - <<'EOF'
import json, os, re

out = os.environ["BENCH_OUT"]

cases = {}
for m in re.finditer(
    r"^bench: ensemble/3x2x2/w(\d+) shards=(\d+) evolutions=(\d+) modes=(\d+) "
    r"naive_s=([0-9.]+) fresh_s=([0-9.]+) warm_s=([0-9.]+) "
    r"speedup_naive=([0-9.]+) speedup=([0-9.]+) "
    r"shards_per_hour=(\d+) ctx_rebuilds=(\d+) prefetch_builds=(\d+) "
    r"cube_fnv=([0-9a-f]+)$",
    out,
    re.M,
):
    (w, shards, evolutions, modes, naive, fresh, warm, sp_naive, speedup,
     sph, ctx, pre, fnv) = m.groups()
    cases[f"w{w}"] = {
        "workers": int(w),
        "shards": int(shards),
        "evolutions": int(evolutions),
        "modes_per_shard": int(modes),
        "naive_per_task_s": float(naive),
        "fresh_farms_s": float(fresh),
        "warm_pool_s": float(warm),
        "speedup_vs_naive": float(sp_naive),
        "speedup_vs_fresh": float(speedup),
        "shards_per_hour": int(sph),
        "ctx_rebuilds": int(ctx),
        "prefetch_builds": int(pre),
        "cube_fnv": fnv,
    }
assert set(cases) == {"w1", "w2", "w4"}, f"cases: {sorted(cases)}"

# the cube is physics: every pool size must produce the identical bits
fnvs = {c["cube_fnv"] for c in cases.values()}
assert len(fnvs) == 1, f"transfer cube not pinned across pool sizes: {fnvs}"

# one table build per evolution whatever the pool size (its threads
# share one table cache), and the warm pool beats the rebuild-per-task
# loop at every pool size
for c in cases.values():
    assert c["ctx_rebuilds"] + c["prefetch_builds"] == c["evolutions"], c
    assert c["speedup_vs_naive"] > 1.0, c

snapshot = {
    "schema": "plinger.bench_ensemble/1",
    "bench": "3x2x2 omega_b/h/n_s transfer-function cube: warm pool, "
             "one job per (omega_b, h) point + prefetch, vs fresh farm "
             "per cosmology vs naive per-(cosmology, k) task loop "
             "(draft preset, ChannelWorld)",
    "baselines": {
        "naive": "one single-mode run per (cosmology, k), tables "
                 "rebuilt in every task",
        "fresh": "fresh Farm spawn per cosmology, cold physics caches",
    },
    "cases": cases,
}
with open("BENCH_ensemble.json", "w") as fh:
    json.dump(snapshot, fh, indent=2)
    fh.write("\n")

best = max(c["speedup_vs_naive"] for c in cases.values())
peak = max(c["shards_per_hour"] for c in cases.values())
print(
    f"bench_snapshot: wrote BENCH_ensemble.json "
    f"(best speedup {best}x vs rebuild-per-task, peak {peak} shards/hour)"
)
EOF
    exit 0
fi

out="$(cargo bench -p bench --bench rhs_eval --bench thermo --bench rhs 2>&1)"
echo "$out"

BENCH_OUT="$out" python3 - <<'EOF'
import json, os, re

out = os.environ["BENCH_OUT"]

# medians the seed RHS produced before the cache/kernel rework (ns/eval);
# the mixed-dark-matter case joined later and pins commit 7097a5a, where
# every background lookup still integrated Omega_k
baseline = {
    "lmax16_tca_off": 344.46,
    "lmax16_tca_on": 197.25,
    "lmax64_tca_off": 553.62,
    "lmax64_tca_on": 378.10,
    "mdm_lmax16_tca_off": 993.43,
}

# the thermo bench (table builds, one hinted BgCache::at_tau per
# iteration; ns/iter) at that same commit, before Background kept its
# cosmology constants in fields
tables_before = {
    "background_build_scdm": 1915471.0,
    "background_build_mdm": 7337599.0,
    "background_lookup_scdm": 64.25,
    "background_lookup_mdm": 501.55,
    "thermo_history_build": 13932747.0,
    "thermo_history_build_mdm": 51820649.0,
}

# the rhs bench at commit 9db763d, medians of five runs: one
# integration (ns) per method, and the RHS evaluation at the same layout
stepper_before = {
    "rhs_eval_256_ns": 549.42,
    "dverk_step_ns": {
        "Verner65": 352784.75,
        "DormandPrince54": 342318.75,
        "CashKarp45": 238357.56,
    },
}

flops = {m.group(1): int(m.group(2))
         for m in re.finditer(r"^flops: (\S+) (\d+)$", out, re.M)}
# (the rhs bench has an `rhs_eval` group too; its cases are bare l_max numbers)
medians = {m.group(1): float(m.group(2))
           for m in re.finditer(
               r"^bench: rhs_eval/(\S+) median ([0-9.]+) ns/iter", out, re.M)
           if not m.group(1).isdigit()}
assert set(medians) == set(baseline), f"cases changed: {sorted(medians)}"

cases = {}
for case, ns in sorted(medians.items()):
    f = flops.get(case, 0)
    cases[case] = {
        "median_ns_per_eval": ns,
        "flops_per_eval": f,
        "mflops": round(f / ns * 1e3, 1) if ns > 0 else 0.0,
        "baseline_ns_per_eval": baseline[case],
        "speedup_vs_baseline": round(baseline[case] / ns, 2),
    }

table_ns = {m.group(1): float(m.group(2))
            for m in re.finditer(
                r"^bench: (\w+) median ([0-9.]+) ns/iter", out, re.M)}
missing = set(tables_before) - set(table_ns)
assert not missing, f"thermo bench lost cases: {sorted(missing)}"
tables = {
    name: {
        "before_ns": before,
        "median_ns": table_ns[name],
        "speedup_vs_before": round(before / table_ns[name], 2),
    }
    for name, before in sorted(tables_before.items())
}
lookup_ratio = round(
    table_ns["background_lookup_mdm"] / table_ns["background_lookup_scdm"], 2)

stages = {m.group(1): int(m.group(2))
          for m in re.finditer(r"^stages: (\w+) (\d+)$", out, re.M)}
step_ns = {m.group(1): float(m.group(2))
           for m in re.finditer(
               r"^bench: dverk_step/(\w+) median ([0-9.]+) ns/iter", out, re.M)}
rhs_256 = re.search(r"^bench: rhs_eval/256 median ([0-9.]+) ns/iter", out, re.M)
assert rhs_256 and set(step_ns) == set(stages) == set(stepper_before["dverk_step_ns"]), \
    f"rhs bench cases changed: {sorted(step_ns)} / {sorted(stages)}"
rhs_256 = float(rhs_256.group(1))


def stepper_row(method, step, rhs):
    return {
        "dverk_step_ns": step,
        "stages_x_rhs_eval_256_ns": round(stages[method] * rhs, 2),
        "step_over_rhs": round(step / (stages[method] * rhs), 2),
    }


stepper = {
    method: {
        "stages": stages[method],
        **stepper_row(method, ns, rhs_256),
        "before": stepper_row(method, stepper_before["dverk_step_ns"][method],
                              stepper_before["rhs_eval_256_ns"]),
    }
    for method, ns in step_ns.items()
}

snapshot = {
    "schema": "plinger.bench_rhs/1",
    "bench": "rhs_eval (single LingerRhs::eval call, seeded dense state)",
    "cases": cases,
    "tables_bench": "thermo (table builds; one hinted BgCache::at_tau per "
                    "iteration), before = commit 7097a5a",
    "tables": tables,
    "background_lookup_mdm_over_scdm": lookup_ratio,
    "stepper_bench": "rhs (one adaptive integration 300 -> 302 Mpc per "
                     "method over `stages` RHS evaluations at the same "
                     "layout, one process), before = commit 9db763d",
    "stepper": stepper,
}
with open("BENCH_rhs.json", "w") as fh:
    json.dump(snapshot, fh, indent=2)
    fh.write("\n")

worst = min(c["speedup_vs_baseline"] for c in cases.values())
verner = stepper["Verner65"]
print(f"bench_snapshot: wrote BENCH_rhs.json (worst-case speedup {worst}x, "
      f"massive/massless background lookup {lookup_ratio}x, Verner step over "
      f"rhs {verner['before']['step_over_rhs']} -> {verner['step_over_rhs']})")
EOF
