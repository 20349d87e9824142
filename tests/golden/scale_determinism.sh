#!/bin/sh
# Scale-tier determinism gate: a two-seed 1000-slave dfscluster sweep must be
# byte-identical across seed-sweep worker counts and across repeated runs.
# Each simulation is single-threaded; --jobs only fans whole seeds across
# the sweep pool, and this is what lets that pool coexist with the
# golden-corpus contract at sizes the corpus itself (pinned to the paper's
# 40-node cluster) never reaches. Only the echoed --jsonl path differs
# between invocations, so the stdout comparison strips that one line and
# the JSONL bytes are compared whole.
#
# Usage: scale_determinism.sh <tools_dir>
set -eu

TOOLS_DIR=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

run() {
  # run <tag> <jobs>: two 1000-slave seeds, ~2 s each in a Release build.
  "$TOOLS_DIR/dfscluster" --hours 0.25 --slaves 1000 --blocks 255 \
    --interarrival 10 --seed 3 --seeds 2 --jobs "$2" --jsonl "$1.jsonl" \
    > "$1.stdout.raw" 2> "$1.stderr"
  grep -v '^JSONL run record written to ' "$1.stdout.raw" > "$1.stdout"
}

run serial 1
run parallel 2
run repeat 2

fail=0
for tag in parallel repeat; do
  for artifact in jsonl stdout stderr; do
    if ! cmp -s "serial.$artifact" "$tag.$artifact"; then
      echo "scale_determinism: serial.$artifact != $tag.$artifact" >&2
      fail=1
    fi
  done
done
[ "$fail" -eq 0 ] || exit 1
echo "scale_determinism: two-seed 1000-slave sweep byte-identical across --jobs 1/2 and repeated runs"
