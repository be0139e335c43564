#!/bin/sh
# Error exits of robustness_campaign (registered with ctest in
# bench/CMakeLists.txt): an output path under a regular file, on thread
# lanes and on worker processes, and an output file that cannot be opened
# must each exit with status 1, print "robustness_campaign: <what>", and
# print no "wrote" line.
#
# Usage: check_campaign_output_errors.sh <robustness_campaign binary>
campaign=$1
scratch=$(mktemp -d) || exit 1
trap 'rm -rf "$scratch"' EXIT
touch "$scratch/file"
mkdir -p "$scratch/out/robustness_heatmap.csv"

expect_error() {
  label=$1
  shift
  env DGSCHED_CAMPAIGN_GRID=smoke DGSCHED_BOTS=8 DGSCHED_MIN_REPS=2 DGSCHED_MAX_REPS=2 \
    DGSCHED_CAMPAIGN_SEEDS=2 DGSCHED_WORLD_CACHE=0 "$@" "$campaign" "$out" \
    > "$scratch/log" 2>&1
  status=$?
  if [ "$status" -ne 1 ] || grep -q "wrote " "$scratch/log" ||
    ! grep -q "^robustness_campaign: $expected" "$scratch/log"; then
    cat "$scratch/log"
    echo "FAIL ($label): exit status $status, expected 1 with 'robustness_campaign: $expected'"
    exit 1
  fi
  echo "ok ($label): $(grep "^robustness_campaign: " "$scratch/log")"
}

out="$scratch/file/x"
expected=""
expect_error "output path under a file, thread lanes" DGSCHED_PROCS=0
expect_error "output path under a file, 2 worker processes" DGSCHED_PROCS=2
out="$scratch/out"
expected="cannot write $out/robustness_heatmap.csv"
expect_error "unwritable output file, thread lanes" DGSCHED_PROCS=0
