#!/usr/bin/env bash
# Noise qualification: is every end-to-end metric steady enough for its
# bound in BENCHMARK.json?
#
#   bash benchmark/qualify.sh [runs-per-set] > benchmark/NOISE.md
#
# Runs two sets of the same code, alternating run by run (A1 B1 A2 B2 …),
# each run with another --seed, `runs-per-set` (default 10) runs per set
# and workload — the procedure the accepting driver applies. For every
# workload × end-to-end metric it prints each set's median and quartiles
# (Python's statistics.quantiles(n=4)), the spread (q3 − q1) / median and
# how much worse the second median is than the first. Exits non-zero if
# a spread (setup_s excepted) or a median shift exceeds the metric's
# bound, or if any run was incorrect. Every run's output is kept under
# benchmark/out/qualify/. A metric that cannot qualify is
# fixed in the harness or demoted to per-layer; bounds are not widened.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"

exec python3 - "$here" "$runs" <<'PY'
import json, os, statistics, subprocess, sys, time

here, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seconds = spec["run_seconds"]
metrics = spec["end_to_end"]
workloads = [w["name"] for w in spec["workloads"]]

def run(workload, seed):
    done = subprocess.run(
        ["bash", f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    os.makedirs(f"{here}/out/qualify", exist_ok=True)
    with open(f"{here}/out/qualify/{workload}-{seed}.txt", "w") as log:
        log.write(done.stdout + done.stderr)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}

started = time.time()
samples = {w: ([], []) for w in workloads}  # workload -> (set A, set B)
for i in range(runs):
    for w in workloads:
        for s in (0, 1):
            samples[w][s].append(run(w, 1000 * (s + 1) + i))

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med

print("# harborbench noise qualification\n")
print(f"Two alternating sets x {runs} runs per workload, {seconds} s measured per run, "
      f"a different seed every run; {time.time() - started:.0f} s in total. "
      "`spread` is (q3 - q1) / median; `shift` is how much worse set B's median is "
      "than set A's (negative = better). A row fails when a spread (setup_s excepted) "
      "or the shift exceeds the bound; `tight` marks spreads above a third of it.\n")
failed = False
for w in workloads:
    print(f"## {w}\n")
    print("| metric | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | shift | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for m in metrics:
        a = summary([r[m["name"]] for r in samples[w][0]])
        b = summary([r[m["name"]] for r in samples[w][1]])
        worse = (b[0] - a[0]) / a[0] * (1 if m["better"] == "lower" else -1)
        gated = m["name"] != "setup_s"
        spread = max(a[3], b[3])
        if (gated and spread > m["bound"]) or worse > m["bound"]:
            verdict, failed = "FAIL", True
        elif gated and spread > m["bound"] / 3:
            verdict = "ok (tight)"
        else:
            verdict = "ok"
        cell = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
        print(f"| {m['name']} | {m['bound']} | {cell(a)} | {a[3]:.4f} | {cell(b)} | {b[3]:.4f} "
              f"| {worse:+.4f} | {verdict} |")
    print()
print("Result: " + ("FAIL" if failed else "every metric qualifies"))
sys.exit(1 if failed else 0)
PY
