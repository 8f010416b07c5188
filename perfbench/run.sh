#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, keeping the Go build cache, the binary and every scratch file under
# .bench_build/ of that checkout.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build fails, and the script exits non-zero without printing a result,
# when the repository's sources are not next to perfbench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out/work" "$@"
