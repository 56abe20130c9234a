#!/usr/bin/env bash
# Builds terpperf from the sources of the checkout it is run in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload whisper-pm --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the toolchain's own state all go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/go-build" "$out/tmp" "$out/config"

(
	cd bench
	GOCACHE=$out/go-build GOTMPDIR=$out/tmp GOPATH=$out/gopath \
		XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local \
		go build -o "$out/terpperf" ./terpperf
)
exec "$out/terpperf" "$@"
