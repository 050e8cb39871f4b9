#!/usr/bin/env bash
# Build harborbench from source (release, offline) and run it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --smoke
#
# Works from any directory. The build goes to $CARGO_TARGET_DIR (taken
# relative to the caller's directory, as cargo would) or, when unset, to
# the repository's ignored target/ directory. Traces go to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/harborbench" --out "$here/out" "$@"
