#!/usr/bin/env bash
# Same-seed bit-identity harness: determinism is the repo's core invariant,
# so any change to the event queue or schedulers must leave simulated-time
# outputs byte-for-byte identical across runs of the same binary.
#
# Runs each seeded scenario twice and diffs the JSON byte-for-byte. To gate
# a *code change* rather than run-to-run nondeterminism, save a reference
# first:
#   scripts/bit_identity.sh --save /tmp/identity_ref     # before the change
#   scripts/bit_identity.sh --check /tmp/identity_ref    # after rebuilding
#
# --golden compares each output's sha256 against the committed digests in
# scripts/bit_identity.sha256, so a change that alters behaviour
# deterministically fails without a saved reference. The digests hold for
# x86-64 GCC builds (Release or RelWithDebInfo) against glibc's libm; another
# compiler, -ffast-math, -march flags that enable FMA contraction, or a
# different libm may legitimately print different floating-point digits.
# Regenerate them only for an intended behaviour change, and say so in the
# commit:
#   scripts/bit_identity.sh --save /tmp/identity_ref
#   (cd /tmp/identity_ref && sha256sum chaos.json chaos_corruption.json \
#      fig19_starkh20.json fig19_sparkh30.json overload.json \
#      tail_tolerance.json remote_memory.json auto_cache.json) \
#      > scripts/bit_identity.sha256
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
MODE="twice"
REF_DIR=""
if [ "${1:-}" = "--save" ] && [ -n "${2:-}" ]; then
  MODE="save"; REF_DIR="$2"
elif [ "${1:-}" = "--check" ] && [ -n "${2:-}" ]; then
  MODE="check"; REF_DIR="$2"
elif [ "${1:-}" = "--golden" ]; then
  MODE="golden"
fi
GOLDEN="scripts/bit_identity.sha256"

# name -> command line (stdout is the artifact under test)
declare -A SCENARIOS=(
  [chaos]="$BUILD_DIR/bench/bench_chaos_resilience"
  [chaos_corruption]="$BUILD_DIR/bench/bench_chaos_resilience --corruption"
  [fig19_starkh20]="$BUILD_DIR/bench/bench_fig19_throughput --slice stark-h 20"
  [fig19_sparkh30]="$BUILD_DIR/bench/bench_fig19_throughput --slice spark-h 30"
  [overload]="$BUILD_DIR/bench/bench_overload --pinned"
  [tail_tolerance]="$BUILD_DIR/bench/bench_tail_tolerance --pinned"
  [remote_memory]="$BUILD_DIR/bench/bench_remote_memory --pinned"
  [auto_cache]="$BUILD_DIR/bench/bench_auto_cache --pinned"
)

for name in chaos chaos_corruption fig19_starkh20 fig19_sparkh30 overload tail_tolerance remote_memory auto_cache; do
  bin=${SCENARIOS[$name]%% *}
  if [ ! -x "$bin" ]; then
    echo "bit_identity: missing $bin (build the bench targets first)" >&2
    exit 2
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
fail=0

for name in chaos chaos_corruption fig19_starkh20 fig19_sparkh30 overload tail_tolerance remote_memory auto_cache; do
  cmd=${SCENARIOS[$name]}
  out="$tmp/$name.json"
  $cmd > "$out" 2>/dev/null
  case "$MODE" in
    save)
      mkdir -p "$REF_DIR"
      cp "$out" "$REF_DIR/$name.json"
      echo "bit_identity: saved $name ($(wc -c < "$out") bytes)"
      ;;
    check)
      if cmp -s "$out" "$REF_DIR/$name.json"; then
        echo "bit_identity: $name identical to reference"
      else
        echo "bit_identity: FAIL $name differs from $REF_DIR/$name.json" >&2
        diff <(head -c 2000 "$REF_DIR/$name.json") <(head -c 2000 "$out") | head -20 >&2
        fail=1
      fi
      ;;
    golden)
      want=$(awk -v f="$name.json" '$2 == f { print $1 }' "$GOLDEN")
      got=$(sha256sum < "$out" | cut -d' ' -f1)
      if [ -n "$want" ] && [ "$got" = "$want" ]; then
        echo "bit_identity: $name matches the golden digest"
      else
        echo "bit_identity: FAIL $name sha256 $got, golden ${want:-missing}" >&2
        fail=1
      fi
      ;;
    twice)
      $cmd > "$tmp/$name.2.json" 2>/dev/null
      if cmp -s "$out" "$tmp/$name.2.json"; then
        echo "bit_identity: $name identical across two same-seed runs"
      else
        echo "bit_identity: FAIL $name differs between two same-seed runs" >&2
        fail=1
      fi
      ;;
  esac
done

exit $fail
