#!/usr/bin/env bash
# Commit-to-commit determinism for perfbench. run.py only compares digests
# between runs of one build; this compares the per-instance digests a
# seed-17 run printed to stderr, one line per instance:
#   <workload> seed <instance seed>: digest <D> jobs <J> completed <C> runs <R>
# against the committed reference scripts/perfbench_digests_seed17.txt
# (the trailing round count is dropped), so a deterministic change in
# scheduling on any instance fails.
#
#   python3 perfbench/run.py --workload stream_steady --seed 17 \
#       --seconds 1 --trace 0 2>&1 | tee stream_steady.log
#   scripts/check_perfbench_digests.sh stream_steady stream_steady.log
#
# The digests hold for x86-64 GCC builds (run.py builds Release) against
# glibc's libm; another compiler, -ffast-math, -march flags that enable FMA
# contraction, or a different libm may legitimately print different
# floating-point digits. Regenerate the reference only for an intended
# behaviour change, and say so in the commit:
#   for w in stream_steady memory_pressure tenant_chaos; do
#     python3 perfbench/run.py --workload $w --seed 17 --seconds 1 \
#         --trace 0 2>&1 >/dev/null | grep -E "^$w seed [0-9]+: digest " |
#       sed -E 's/ runs [0-9]+$//'
#   done > scripts/perfbench_digests_seed17.txt
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <workload> <run.py stderr log>" >&2
  exit 2
fi
workload=$1
log=$2
ref="$(dirname "$0")/perfbench_digests_seed17.txt"

expected=$(grep -E "^$workload seed " "$ref" || true)
actual=$(grep -E "^$workload seed [0-9]+: digest " "$log" |
  sed -E 's/ runs [0-9]+$//' || true)
if [ -z "$expected" ]; then
  echo "perfbench digests: no reference lines for $workload in $ref" >&2
  exit 2
fi
if [ "$expected" != "$actual" ]; then
  echo "perfbench digests: $workload differs from $ref (- reference, + run):" >&2
  diff <(echo "$expected") <(echo "$actual") >&2 || true
  exit 1
fi
echo "perfbench digests: $workload matches the reference" \
  "($(echo "$expected" | wc -l) instances)"
