#!/usr/bin/env sh
# Runs the substrate + fleet benchmarks and writes the machine-readable perf
# baseline (BENCH_fleet.json). Thin wrapper over cmd/benchjson so future PRs
# have one entry point:
#
#   scripts/bench.sh                 # full sweep: N=4..256 at 3 iters, N=1024 at 1
#   scripts/bench.sh -quick          # CI smoke: N=4, 1 iter
#   scripts/bench.sh -out - | jq .   # print to stdout
#   scripts/bench.sh -profile [DIR]  # profile the N=16 migration fixture
#                                    # (fleet_cpu.pprof + fleet_heap.pprof
#                                    # in DIR, default /tmp); inspect with
#                                    # `go tool pprof DIR/fleet_cpu.pprof`
set -e
cd "$(dirname "$0")/.."
if [ "$1" = "-profile" ]; then
  dir="${2:-/tmp}"
  mkdir -p "$dir"
  exec go run ./cmd/fleet -mode migrate -apps 16 -seed 1 -spare-routers 4 \
    -crush-all-groups -crush-apps 4 -crush-start 150 -crush-duration 300 \
    -duration 900 -ranked \
    -pprof "$dir/fleet_cpu.pprof,$dir/fleet_heap.pprof" > /dev/null
fi
exec go run ./cmd/benchjson "$@"
