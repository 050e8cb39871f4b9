#!/usr/bin/env python3
"""CI gates over the sections of BENCH_smpe.json.

    python3 scripts/bench_gate.py <section> [<section> ...]
    python3 scripts/bench_gate.py openloop-bounds

Each bench rewrites its own section of BENCH_smpe.json when it runs; the
gate for a section re-checks that section's headline invariants from the
file, so what CI asserts is what was emitted. Where a bench's counts are
exact (ablation_memory's paging columns), the gate also holds them equal
to the section committed at HEAD (`git show HEAD:BENCH_smpe.json`), so a
change in what the buffer pool evicts cannot pass as noise. Exits non-zero
on the first failed assertion or an unknown section.

`openloop-bounds` asserts nothing: it prints the committed openloop
ceilings as `fairness_max p99_over_p50_max` for a shell `read -r`, so
tightening the committed baseline tightens CI's smoke run.
"""

import json
import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BASELINE = os.path.join(REPO, "BENCH_smpe.json")

# ablation_memory columns the bench's single-threaded probe order makes
# exact: any difference from the committed run is a change in what was
# evicted, faulted or answered.
MEMORY_EXACT_COLUMNS = (
    "page_faults",
    "page_evictions",
    "resident_bytes",
    "spilled_bytes",
    "index_build_bytes",
    "index_post_build_resident_bytes",
    "answer_digest",
    "records_resolved",
)

# The pool the fabric_* rows run on: a windowed fabric must hold more round
# trips in flight than this many threads could by waiting inline.
FABRIC_POOL = 32


def ablation_batching(section):
    rows = {r["config"]: r for r in section["configs"]}
    batched = rows["batched_default"]
    unbatched = rows["unbatched"]
    assert batched["throughput_pointers_per_sec"] >= unbatched["throughput_pointers_per_sec"], (batched, unbatched)
    assert batched["remote_rtt_sleeps"] < unbatched["remote_rtt_sleeps"], (batched, unbatched)
    print("batching smoke ok:", batched["throughput_pointers_per_sec"], ">=", unbatched["throughput_pointers_per_sec"])
    serial = rows["fabric_k1"]
    for name, row in rows.items():
        if not name.startswith("fabric_") or row["fabric_window"] < 4:
            continue
        assert row["throughput_pointers_per_sec"] >= serial["throughput_pointers_per_sec"], (name, row, serial)
        assert row["inflight_peak"] > FABRIC_POOL, (name, row)
        assert row["output_rows"] == serial["output_rows"], (name, row, serial)
        print(f"fabric smoke ok: {name} peak {row['inflight_peak']} > pool {FABRIC_POOL},",
              f"{row['throughput_pointers_per_sec']:.0f} >= {serial['throughput_pointers_per_sec']:.0f} ptrs/s")


def committed_section(name):
    """`name`'s section of BENCH_smpe.json as committed at HEAD."""
    text = subprocess.run(
        ["git", "show", "HEAD:BENCH_smpe.json"], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(text)[name]


def ablation_memory(section):
    committed = {r["config"]: r for r in committed_section("ablation_memory")["configs"]}
    assert sorted(committed) == sorted(r["config"] for r in section["configs"]), (committed.keys(), section)
    for r in section["configs"]:
        base = committed[r["config"]]
        for column in MEMORY_EXACT_COLUMNS:
            assert r[column] == base[column], (r["config"], column, r[column], "committed", base[column])
    print(f"memory counts ok: {len(committed)} configs equal the committed "
          f"{', '.join(MEMORY_EXACT_COLUMNS)}")
    by_structures = {}
    for r in section["configs"]:
        by_structures.setdefault(r["structures"], []).append(r)
    for structures, group in by_structures.items():
        digests = {r["answer_digest"] for r in group}
        assert len(digests) == 1, (structures, group)
        for r in group:
            if r["memory_budget_bytes"] == 0:
                assert r["page_evictions"] == 0, r
                assert r["index_post_build_resident_bytes"] == r["index_build_bytes"], r
            else:
                assert r["page_faults"] > 0 and r["page_evictions"] > 0, r
                assert r["resident_bytes"] <= r["memory_budget_bytes"], r
        floor = min(group, key=lambda r: r["memory_budget_bytes"] or 1 << 62)
        assert floor["index_post_build_resident_bytes"] < floor["index_build_bytes"], floor
        print(f"memory smoke ok: S={structures}, one digest across "
              f"{len(group)} budgets, floor resident "
              f"{floor['index_post_build_resident_bytes']} < build {floor['index_build_bytes']}")


def htap_ingest(s):
    assert s["snapshot_equivalent_rounds"] == s["rounds"], s
    assert s["rows_ingested"] > 0 and s["commits"] > 0, s
    assert s["wal_appends"] > 0 and s["wal_bytes"] > 0, s
    # Every commit posts its own rows: each ingested claim is a new key
    # with one patient, so the patient index grows by exactly one entry
    # per row.
    assert s["entries_posted"] == s["rows_ingested"], s
    print(f"htap smoke ok: {s['rows_ingested']} rows / {s['commits']} commits "
          f"at {s['ingest_rows_per_sec']:.0f} rows/s, "
          f"{s['snapshot_equivalent_rounds']}/{s['rounds']} rounds byte-identical, "
          f"{s['entries_posted']} index entries posted")


GATES = {
    "ablation_batching": ablation_batching,
    "ablation_memory": ablation_memory,
    "htap_ingest": htap_ingest,
}


def openloop_bounds(baseline):
    gates = baseline["openloop"]["ci_gates"]
    print(gates["fairness_max"], gates["p99_over_p50_max"])


def main(args):
    bounds = args == ["openloop-bounds"]
    if not bounds and (not args or any(a not in GATES for a in args)):
        sys.exit(f"usage: bench_gate.py <section> ... | openloop-bounds   (sections: {', '.join(GATES)})")
    with open(BASELINE) as f:
        baseline = json.load(f)
    if bounds:
        return openloop_bounds(baseline)
    for name in args:
        GATES[name](baseline[name])


if __name__ == "__main__":
    main(sys.argv[1:])
