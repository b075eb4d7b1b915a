#!/usr/bin/env bash
# Digest of the differential-oracle outputs of one build tree: one
# "name sha256" line per artifact, sorted, so checking that a change keeps
# behaviour byte-identical to its parent is a single diff:
#
#   tools/oracle_digest.sh build-parent > parent.txt
#   tools/oracle_digest.sh build        > change.txt
#   diff parent.txt change.txt
#
# Artifacts:
#   chaos/<mode>/seed-NNN   cake_chaos --seed N, seeds 0-199, in five modes:
#                           plain, --reliable --message-faults, --durable,
#                           --aggregate, --overload
#   replay/<step>           cake_replay record, replay and verify at seed 17
#   replay/journal/<file>   the bytes of the journal the recording wrote
#   simulator/default       examples/simulator with no arguments
#
# Each digest covers the program's stdout plus its exit status. The script
# records outcomes and never gates them: a failing chaos seed is one more
# digest, and the script exits 0 once every run finished. It needs the
# cake_chaos, cake_replay_cli and simulator targets built in <build-dir>,
# and runs one process per CPU.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: tools/oracle_digest.sh <build-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
chaos="$build/tests/chaos/cake_chaos"
replay="$build/tools/cake_replay"
simulator="$build/examples/simulator"
for bin in "$chaos" "$replay" "$simulator"; do
  if [[ ! -x $bin ]]; then
    echo "oracle_digest: $bin is not built" >&2
    exit 2
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

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
export chaos work

{
  for mode in plain reliable-message-faults durable aggregate overload; do
    for seed in $(seq 0 199); do echo "$mode $seed"; done
  done | xargs -P "$(nproc)" -n 2 bash -c 'chaos_job "$@"' _

  mkdir "$work/journal"
  digest replay/record "$replay" record --dir "$work/journal" --seed 17
  digest replay/replay "$replay" replay --dir "$work/journal" --seed 17
  digest replay/verify "$replay" verify --dir "$work/journal" --seed 17
  for file in "$work"/journal/*; do
    digest "replay/journal/$(basename "$file")" cat "$file"
  done

  digest simulator/default "$simulator"
} | LC_ALL=C sort
