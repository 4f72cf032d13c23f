#!/usr/bin/env sh
# Regenerate the golden observability files from the current code:
#   tests/golden/metrics_12scan.json  (stable metrics snapshot)
#   tests/golden/trace_12scan.jsonl   (stable span stream)
#   tests/golden/serve_epochs.json    (daemon per-epoch record stream)
#
# All are deterministic exports of a 12-scan service run on the seed-42
# test world (see DESIGN.md §9/§10/§13). Run this after an intentional
# change to the simulation, the metrics surface, the span surface, or the
# epoch-snapshot digest, then commit the refreshed golden files together
# with the change.
#
# usage: tools/update-golden-metrics.sh [build-dir]   (default: build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
obs_bin="$build_dir/tests/sixdust_obs_tests"
trace_bin="$build_dir/tests/sixdust_trace_tests"
serve_bin="$build_dir/tests/sixdust_serve_tests"

for bin in "$obs_bin" "$trace_bin" "$serve_bin"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found — build first:" >&2
    echo "  cmake -B \"$build_dir\" -S \"$repo_root\" && cmake --build \"$build_dir\" -j" >&2
    exit 1
  fi
done

# Lint before blessing: goldens must never absorb a determinism hole
# (wall-clock reads, hash-order iteration, implicit metric stability).
lint_bin="$build_dir/tools/sixdust-lint"
if [ ! -x "$lint_bin" ]; then
  echo "error: $lint_bin not found — build first (target tool_sixdust_lint)" >&2
  exit 1
fi
"$lint_bin" --root "$repo_root" --strict --golden off
echo "verified: sixdust-lint --strict is clean"

SIXDUST_UPDATE_GOLDEN=1 "$obs_bin" --gtest_filter='ObsGoldenMetrics.*'
echo "regenerated: $repo_root/tests/golden/metrics_12scan.json"

SIXDUST_UPDATE_GOLDEN=1 "$trace_bin" --gtest_filter='TraceGolden.*'
echo "regenerated: $repo_root/tests/golden/trace_12scan.jsonl"

SIXDUST_UPDATE_GOLDEN=1 "$serve_bin" --gtest_filter='ServeGolden.*'
echo "regenerated: $repo_root/tests/golden/serve_epochs.json"

# Immediately verify the refreshed goldens round-trip.
"$obs_bin" --gtest_filter='ObsGoldenMetrics.*'
"$trace_bin" --gtest_filter='TraceGolden.*'
"$serve_bin" --gtest_filter='ServeGolden.*'

# The goldens are generated at one thread count; assert the stable metrics
# and the stable trace come out byte-identical at other thread counts
# before blessing them — a golden that another thread count cannot
# reproduce is not golden.
"$obs_bin" --gtest_filter='ObsThreadInvariance.*'
"$trace_bin" --gtest_filter='TraceThreadInvariance.*'
echo "verified: stable metrics and trace are thread-count invariant"

# Likewise for the serve golden: a record stream the live daemon cannot
# reproduce at other thread counts (or under query load) must never be
# blessed, so the batch-vs-daemon differential has to pass first.
"$serve_bin" --gtest_filter='ServeDifferential.*'
echo "verified: daemon epochs match the batch run (serve golden is honest)"
