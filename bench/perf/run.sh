#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a source
# checkout. Arguments pass through to perf.exe, for example
#   bash bench/perf/run.sh --workload zoo-cold --seed 1 --seconds 12 --trace 0
#   bash bench/perf/run.sh compare bench/perf/baseline/set1 bench/perf/baseline/set2
set -euo pipefail
if [ ! -f dune-project ]; then
  echo "run.sh: no dune-project here; run from the root of a cmswitch checkout" >&2
  exit 2
fi
exec dune exec --root . --display quiet ./bench/perf/perf.exe -- "$@"
