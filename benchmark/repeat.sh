#!/usr/bin/env bash
# Runs the benchmark's end-to-end pass the way the driver that accepts it
# does: two sets of N runs per workload, run i of either set with seed
# FIRST_SEED + i. For every workload x end-to-end metric it prints both
# medians, both quartile spreads ((q3 - q1) / median, quartiles as Python's
# statistics.quantiles(values, n=4) gives them), the change of the median
# from the first set to the second and the metric's bound from
# BENCHMARK.json. A cell DISAGREEs when either spread exceeds the bound or
# the medians differ by more than the bound in either direction: two sets
# of one commit know no better and no worse. Exits non-zero when a run
# fails or any cell disagrees.
#
# usage: benchmark/repeat.sh [N=10] [FIRST_SEED=7]
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" "${2:-7}" <<'PY'
import json, statistics, subprocess, sys

n, first_seed = int(sys.argv[1]), int(sys.argv[2])
if n < 3:
    sys.exit("N must be at least 3")
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    if not result or not result["correct"] or result["failed"]:
        sys.exit(f"run failed: {workload} seed {seed} (exit code {out.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}

sets = []
for label in "AB":
    sets.append({})
    for w in workloads:
        sets[-1][w] = [run(w, first_seed + i) for i in range(n)]
        print(f"# set {label}: {w}: {n} runs done", file=sys.stderr)

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med

print(f"# two sets of {n} runs per workload, seeds {first_seed}..{first_seed + n - 1}")
print(f"{'workload':<18} {'metric':<22} {'median A':>14} {'median B':>14} "
      f"{'spread A':>9} {'spread B':>9} {'B vs A':>8} {'bound':>6}  verdict")
disagreements = 0
for w in workloads:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        (med_a, spread_a), (med_b, spread_b) = (
            summary([r[name] for r in s[w]]) for s in sets)
        change = (med_b - med_a) / med_a
        problems = []
        if max(spread_a, spread_b) > bound:
            problems.append("spread")
        if abs(change) > bound:
            problems.append("medians")
        disagreements += bool(problems)
        print(f"{w:<18} {name:<22} {med_a:>14.4f} {med_b:>14.4f} {spread_a:>8.2%} "
              f"{spread_b:>8.2%} {change:>+8.2%} {bound:>6.0%}  "
              f"{'DISAGREE: ' + '+'.join(problems) if problems else 'ok'}")
print("# verdict:", f"{disagreements} cells DISAGREE" if disagreements
      else "the two sets agree within every bound")
sys.exit(1 if disagreements else 0)
PY
