#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 verify from ROADMAP.md.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> scripts parse: bash -n scripts/ab.sh scripts/loc.sh scripts/profile.sh"
bash -n scripts/ab.sh
bash -n scripts/loc.sh
bash -n scripts/profile.sh

echo "==> data-plane reads are fallible: BtreeFile::lookup_in is the one panicking shim"
test "$(grep -rn 'page budget exhausted' crates/*/src | wc -l)" -eq 1

# Files (file:count, sorted) whose non-test lines contain the literal $1.
# Lines before a file's first #[cfg(test)] are non-test; gate/tests.rs is
# a test module of its own.
nontest_sites() {
    find crates/*/src -name '*.rs' ! -path '*/gate/tests.rs' -print0 | sort -z |
        xargs -0 awk -v lit="$1" '/#\[cfg\(test\)\]/ { nextfile } index($0, lit) { print FILENAME }' |
        uniq -c | awk '{ print $2 ":" $1 }' | paste -sd ' '
}

echo "==> one clock: non-test thread::sleep only in fabric.rs, wal.rs and the openloop pacing"
sleeps="$(nontest_sites 'thread::sleep')"
allowed="crates/bench/src/lib.rs:1 crates/storage/src/fabric.rs:1 crates/storage/src/wal.rs:1"
if [ "$sleeps" != "$allowed" ]; then
    echo "thread::sleep sites: $sleeps (allowed: $allowed)" >&2
    exit 1
fi

echo "==> named threads: non-test thread::Builder::new() only in smpe.rs, builds.rs and fabric.rs"
spawns="$(nontest_sites 'thread::Builder::new()')"
allowed="crates/core/src/exec/smpe.rs:1 crates/core/src/scheduler/builds.rs:1 crates/storage/src/fabric.rs:1"
if [ "$spawns" != "$allowed" ]; then
    echo "thread::Builder::new() sites: $spawns (allowed: $allowed)" >&2
    exit 1
fi

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test --workspace -q

# Release builds run fast enough to break tests that only assume a slow
# box; CI runs these in release, so this gate does too.
echo "==> release tests CI runs: chaos, gate_sim, cursor_prop, htap, wal, scheduler_stress"
cargo test --release -q --test chaos_recovery
cargo test --release -q --test gate_sim
cargo test --release -q -p rede-core --test cursor_prop
cargo test --release -q -p rede-core --test htap_equivalence --test wal_recovery
cargo test --release -q --test scheduler_stress

# The pool's touch and pin protocols are lock-free on the hit path, and
# release builds interleave their atomics differently from debug.
echo "==> release buffer-pool race tests: buffer:: unit tests, buffer_concurrency"
cargo test --release -q -p rede-storage --lib buffer::
cargo test --release -q -p rede-storage --test buffer_concurrency

# The benchmark is its own package compiled against these crates' public
# API: build it and run its whole suite here — the contract tests and the
# unit tests in benchmark/src (workload stratification, stats, span
# nesting) — so a PR that breaks that API or the harness fails locally
# rather than in the benchmark pipeline.
echo "==> standalone benchmark package: build + unit and contract tests"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# What CI's htap job runs after its tests: the ingest bench regenerates
# the htap_ingest section of BENCH_smpe.json and the gate re-checks it.
# The committed file is restored afterwards, so a local gate leaves the
# tree as it found it.
echo "==> htap_ingest bench + gate (BENCH_smpe.json restored afterwards)"
saved="$(mktemp)"
cp BENCH_smpe.json "$saved"
trap 'cp "$saved" BENCH_smpe.json; rm -f "$saved"' EXIT
cargo bench -p rede-bench --bench htap_ingest
python3 scripts/bench_gate.py htap_ingest

echo "OK"
