#!/usr/bin/env bash
# Fail unless each filter selects at least one test. A `cargo test` whose
# filter matches nothing exits 0 with "0 passed", so a renamed or moved
# test would turn a filtered step green without running anything.
#
# Usage: .github/listed.sh <cargo test arguments> -- <filter>...
set -euo pipefail
args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
shift
for filter in "$@"; do
  n=$(cargo test "${args[@]}" -- --list "$filter" 2>/dev/null | grep -c ': test$' || true)
  if [ "$n" -eq 0 ]; then
    echo "no test matches '$filter' (cargo test ${args[*]})" >&2
    exit 1
  fi
  echo "'$filter': $n tests"
done
