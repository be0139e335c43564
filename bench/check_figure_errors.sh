#!/bin/sh
# Error exits of the bench binaries (registered with ctest in
# bench/CMakeLists.txt): a malformed DGSCHED_* knob and a CSV that cannot be
# written must each exit with status 1, print "<binary>: <what>", and print no
# "CSV written" line. fig1_high_avail stands for the figure binaries,
# ablation_replication and sweep_utilization for the other bench mains that
# share bench/guarded_main.hpp.
#
# Usage: check_figure_errors.sh <fig1_high_avail binary> <replication_throughput binary>
#          <ablation_replication binary> <sweep_utilization binary>
figure=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
throughput=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
ablation=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
sweep=$(cd "$(dirname "$4")" && pwd)/$(basename "$4")
scratch=$(mktemp -d) || exit 1
trap 'rm -rf "$scratch"' EXIT
cd "$scratch" || exit 1

expect_error() {
  label=$1
  name=$2
  expected=$3
  shift 3
  env DGSCHED_BOTS=15 DGSCHED_MIN_REPS=2 DGSCHED_MAX_REPS=2 "$@" > log 2>&1
  status=$?
  if [ "$status" -ne 1 ] || grep -q "CSV written" log ||
    ! grep -q "^$name: $expected" log; then
    cat log
    echo "FAIL ($label): exit status $status, expected 1 with '$name: $expected'"
    exit 1
  fi
  echo "ok ($label): $(grep "^$name: " log)"
}

expect_error "malformed DGSCHED_BOTS" fig1_high_avail "DGSCHED_BOTS: expected" \
  DGSCHED_BOTS=abc "$figure"
mkdir fig1_high_avail.csv
expect_error "CSV path is a directory" fig1_high_avail "cannot write fig1_high_avail.csv" \
  "$figure"
expect_error "malformed DGSCHED_THREADS" replication_throughput "DGSCHED_THREADS: expected" \
  DGSCHED_THREADS=x "$throughput" "$scratch"
expect_error "malformed DGSCHED_BOTS" ablation_replication "DGSCHED_BOTS: expected" \
  DGSCHED_BOTS=abc "$ablation"
expect_error "malformed DGSCHED_TRE" sweep_utilization "DGSCHED_TRE: expected" \
  DGSCHED_TRE=x "$sweep"
