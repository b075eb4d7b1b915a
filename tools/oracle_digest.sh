#!/usr/bin/env bash
# Digest of the differential-oracle outputs of a build tree: one
# "name sha256" line per artifact, sorted.
#
#   tools/oracle_digest.sh <build-dir>
#       prints every artifact's digest and exits 0.
#   tools/oracle_digest.sh <build-a> <build-b>
#       digests both trees and prints only the artifacts whose digests
#       differ, as "name sha256-a sha256-b" ("-" for an artifact only one
#       tree produced). Exits 0 when none differ and 1 when any do, so
#       "this change keeps behaviour byte-identical to its parent" is:
#
#         tools/oracle_digest.sh build-parent build
#
# Artifacts:
#   chaos/<mode>/seed-NNN   cake_chaos --seed N, seeds 0-199, in five modes:
#                           plain, --reliable --message-faults, --durable,
#                           --aggregate, --overload; plus the known-failing
#                           nightly seeds above 199 (docs/CI.md):
#                           reliable-message-faults 260, 327, 328 and 378,
#                           durable 471 and aggregate 294
#   replay/<step>           cake_replay record, replay and verify at seed 17
#   replay/journal/<file>   the bytes of the journal the recording wrote
#   simulator/default       examples/simulator with no arguments
#
# Each digest covers the program's stdout plus its exit status. The script
# records outcomes and never gates them on their own: a failing chaos seed
# is one more digest. Only the two-tree comparison has a failing exit. It
# needs the cake_chaos, cake_replay_cli and simulator targets built in each
# tree, and runs one process per CPU.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: tools/oracle_digest.sh <build-dir> [<other-build-dir>]" >&2
  exit 2
fi
for tree in "$@"; do
  for bin in tests/chaos/cake_chaos tools/cake_replay examples/simulator; do
    if [[ ! -x $tree/$bin ]]; then
      echo "oracle_digest: $tree/$bin is not built" >&2
      exit 2
    fi
  done
done

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# digest NAME CMD... : prints "NAME sha256" of CMD's stdout and exit status.
digest() {
  local name=$1
  shift
  local status=0
  local sum
  sum=$( { "$@" 2>/dev/null || status=$?; echo "exit=$status"; } | sha256sum)
  echo "$name ${sum%% *}"
}

# One chaos trial per job; the failure file goes to a private path so
# parallel jobs never share it.
chaos_job() {
  local mode=$1 seed=$2
  local flags=()
  case $mode in
    plain) ;;
    reliable-message-faults) flags=(--reliable --message-faults) ;;
    *) flags=("--$mode") ;;
  esac
  digest "chaos/$mode/seed-$(printf '%03d' "$seed")" \
    "$chaos" --seed "$seed" "${flags[@]}" \
    --fail-file "$work/fail-$mode-$seed.txt"
}
export -f digest chaos_job

# digest_tree BUILD-DIR: every artifact's digest line, sorted.
digest_tree() {
  local build
  build=$(cd "$1" && pwd)
  local replay="$build/tools/cake_replay"
  export chaos="$build/tests/chaos/cake_chaos"
  export work
  work=$(mktemp -d -p "$scratch")
  {
    {
      for mode in plain reliable-message-faults durable aggregate overload; do
        for seed in $(seq 0 199); do echo "$mode $seed"; done
      done
      for seed in 260 327 328 378; do echo "reliable-message-faults $seed"; done
      echo "durable 471"
      echo "aggregate 294"
    } | xargs -P "$(nproc)" -n 2 bash -c 'chaos_job "$@"' _

    mkdir "$work/journal"
    digest replay/record "$replay" record --dir "$work/journal" --seed 17
    digest replay/replay "$replay" replay --dir "$work/journal" --seed 17
    digest replay/verify "$replay" verify --dir "$work/journal" --seed 17
    for file in "$work"/journal/*; do
      digest "replay/journal/$(basename "$file")" cat "$file"
    done

    digest simulator/default "$build/examples/simulator"
  } | LC_ALL=C sort
}

if [[ $# -eq 1 ]]; then
  digest_tree "$1"
  exit 0
fi

digest_tree "$1" > "$scratch/a.txt"
digest_tree "$2" > "$scratch/b.txt"
LC_ALL=C join -a 1 -a 2 -e - -o 0,1.2,2.2 "$scratch/a.txt" "$scratch/b.txt" |
  awk '$2 != $3 { print; differ = 1 } END { exit differ }'
