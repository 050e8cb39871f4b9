#!/usr/bin/env bash
# Non-test source lines of the workspace: the lines of every `.rs` file
# under crates/*/src and src that come before the file's first
# `#[cfg(test)]`, leaving out crates/core/src/gate/tests.rs (a test module
# of its own). Prints one number.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' ! -path '*/gate/tests.rs' -print0 | sort -z |
    xargs -0 awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }'
