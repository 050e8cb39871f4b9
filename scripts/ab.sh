#!/usr/bin/env bash
# A/B harborbench: a parent revision against the working tree.
#
#   bash scripts/ab.sh <parent-rev> <workload>...
#
# Builds harborbench twice, each into its own CARGO_TARGET_DIR: once from a
# `git archive` snapshot of <parent-rev>, once from the working tree. Then
# runs AB_PAIRS alternating parent/change pairs per workload: pair i runs
# both sides on seed AB_SEED + i, and the side that goes first swaps every
# pair. Prints, per workload and metric, each side's median and quartiles
# (Python's statistics.quantiles(n=4)), the ratio of the medians, how many
# pairs the change won, and whether the medians are further apart than the
# parent's interquartile range. Metric names and directions come from
# BENCHMARK.json: the end-to-end metrics with AB_TRACE=0, the per-layer
# ones with AB_TRACE=1. Exits non-zero if a run fails or is incorrect.
#
# Knobs (environment):
#   AB_PAIRS    pairs per workload (default 10)
#   AB_SEED     seed of the first pair (default 901)
#   AB_TRACE    0 (end-to-end metrics) or 1 (per-layer metrics); default 0
#   AB_DIR      work directory: snapshot, build dirs, every run's output and
#               results.jsonl (default: target/ab at the repository root)
#
# Every run lasts BENCHMARK.json's run_seconds. Writes nothing under
# benchmark/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ "$#" -lt 2 ]; then
    sed -n '2,23p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
shift
dir="${AB_DIR:-$root/target/ab}"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"

# The parent as a plain snapshot: nothing to register or clean up in git.
src="$dir/parent-src"
rm -rf "$src"
mkdir -p "$src"
git -C "$root" archive "$rev" | tar -x -C "$src"

build() {
    echo "==> building harborbench from $1" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" 1>&2
}
build "$src" "$dir/parent-target"
build "$root" "$dir/change-target"

exec python3 - "$root" "$dir" "$rev" "$@" <<'PY'
import json, os, statistics, subprocess, sys

root, work, rev, workloads = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
spec = json.load(open(f"{root}/BENCHMARK.json"))
known = [w["name"] for w in spec["workloads"]]
for w in workloads:
    if w not in known:
        sys.exit(f"ab.sh: unknown workload '{w}' (BENCHMARK.json has {', '.join(known)})")
pairs = int(os.environ.get("AB_PAIRS", "10"))
seconds = str(spec["run_seconds"])
first_seed = int(os.environ.get("AB_SEED", "901"))
trace = os.environ.get("AB_TRACE", "0")
declared = spec["per_layer" if trace == "1" else "end_to_end"]

sides = {
    "parent": (f"{work}/parent-src", f"{work}/parent-target/release/harborbench"),
    "change": (root, f"{work}/change-target/release/harborbench"),
}
log = open(f"{work}/results.jsonl", "a")

def run(side, workload, seed):
    cwd, binary = sides[side]
    out = f"{work}/out/{side}"
    os.makedirs(out, exist_ok=True)
    done = subprocess.run(
        [binary, "--out", out, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True)
    with open(f"{out}/{workload}-{seed}-trace{trace}.txt", "w") as f:
        f.write(done.stdout + done.stderr)
    if done.returncode != 0:
        sys.exit(f"{side} {workload} seed {seed}: exit {done.returncode}\n"
                 f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    log.write(json.dumps({"rev": rev, "side": side, "workload": workload,
                          "seed": seed, "trace": trace, **result}) + "\n")
    log.flush()
    print(f"  {workload} seed {seed} {side}: failed {result['failed']}", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}

samples = {w: [] for w in workloads}  # workload -> [(parent, change)] per pair
for i in range(pairs):
    seed = first_seed + i
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for w in workloads:
        got = {side: run(side, w, seed) for side in order}
        samples[w].append((got["parent"], got["change"]))

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3

print(f"# harborbench A/B: {rev[:10]} (parent) vs working tree (change)")
print(f"# {pairs} alternating pairs per workload, seeds {first_seed}..{first_seed + pairs - 1}, "
      f"{seconds} s per run, --trace {trace}")
print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
      "| change / parent | change wins | medians apart > parent IQR |")
print("|---|---|---|---|---|---|---|")
for w in workloads:
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        a = [p[name] for p, _ in samples[w] if name in p]
        b = [c[name] for _, c in samples[w] if name in c]
        if len(a) != len(samples[w]) or len(b) != len(samples[w]):
            continue
        wins = sum((c < p) if lower else (c > p) for p, c in zip(a, b))
        (aq1, amed, aq3), (bq1, bmed, bq3) = quartiles(a), quartiles(b)
        ratio = bmed / amed if amed else float("nan")
        apart = "yes" if abs(bmed - amed) > aq3 - aq1 else "no"
        print(f"| {w} | {name} ({m['better']}) | {amed:.4g} [{aq1:.4g}, {aq3:.4g}] "
              f"| {bmed:.4g} [{bq1:.4g}, {bq3:.4g}] | {ratio:.3f} | {wins}/{len(a)} | {apart} |")
PY
