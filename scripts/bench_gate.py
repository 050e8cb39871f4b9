#!/usr/bin/env python3
"""CI gates over the sections of BENCH_smpe.json.

    python3 scripts/bench_gate.py <section> [<section> ...]

Each bench rewrites its own section of BENCH_smpe.json when it runs; the
gate for a section re-checks that section's headline invariants from the
file, so what CI asserts is what was emitted. Exits non-zero on the first
failed assertion or an unknown section.
"""

import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_smpe.json")

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


def ablation_memory(section):
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


GATES = {
    "ablation_batching": ablation_batching,
    "ablation_memory": ablation_memory,
}


def main(sections):
    if not sections or any(s not in GATES for s in sections):
        sys.exit(f"usage: bench_gate.py <section> ...   (sections: {', '.join(GATES)})")
    with open(BASELINE) as f:
        baseline = json.load(f)
    for name in sections:
        GATES[name](baseline[name])


if __name__ == "__main__":
    main(sys.argv[1:])
