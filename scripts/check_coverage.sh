#!/usr/bin/env bash
# Runs the internal/... test suite with a merged coverage profile and
# fails if a core package drops below its recorded floor.
#
# Floors are pinned ~2 points under the measured value at the time of
# recording (see git log for the measurement). Raise a floor when
# coverage grows; lowering one needs a reviewed justification in the
# same change that lowers it.
set -euo pipefail

profile="${1:-coverage.out}"

declare -A floors=(
  [snapbpf/internal/sim]=93.0
  [snapbpf/internal/ebpf]=89.2
  [snapbpf/internal/pagecache]=84.0
  [snapbpf/internal/guest]=94.5
  [snapbpf/internal/kvm]=78.0
  [snapbpf/internal/vmm]=84.5
  [snapbpf/internal/prefetch]=61.0
  [snapbpf/internal/prefetch/faasnap]=87.0
  [snapbpf/internal/prefetch/faast]=98.0
  [snapbpf/internal/prefetch/reap]=90.5
  [snapbpf/internal/check]=84.4
  [snapbpf/internal/cluster]=83.0
  [snapbpf/internal/workload]=90.0
  [snapbpf/internal/calib]=85.0
  [snapbpf/internal/obs]=64.0
  [snapbpf/internal/store]=88.0
  [snapbpf/internal/snapshot]=92.5
  [snapbpf/internal/trace]=88.5
  [snapbpf/internal/testbed]=90.0
  [snapbpf/internal/analysis]=98.0
  [snapbpf/internal/analysis/passes/detnondet]=89.0
  [snapbpf/internal/analysis/passes/maporder]=95.0
  [snapbpf/internal/analysis/passes/simtime]=93.0
  [snapbpf/internal/analysis/passes/unitsafety]=95.0
  [snapbpf/internal/analysis/passes/allowcheck]=98.0
  [snapbpf/internal/analysis/passes/clusterepoch]=87.0
)

out="$(go test -count=1 -coverprofile="$profile" ./internal/...)"
echo "$out"
echo

fail=0
matched=0
while read -r pkg pct; do
  floor="${floors[$pkg]:-}"
  [ -z "$floor" ] && continue
  matched=$((matched + 1))
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p+0 < f+0) }'; then
    echo "FAIL $pkg coverage ${pct}% is below the ${floor}% floor"
    fail=1
  else
    echo "ok   $pkg coverage ${pct}% (floor ${floor}%)"
  fi
done < <(awk '/coverage:/ {
  for (i = 1; i <= NF; i++)
    if ($i == "coverage:") { gsub(/%/, "", $(i+1)); print $2, $(i+1) }
}' <<<"$out")

if [ "$matched" -ne "${#floors[@]}" ]; then
  echo "FAIL only $matched of ${#floors[@]} floored packages reported coverage"
  fail=1
fi

exit "$fail"
