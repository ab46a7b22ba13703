#!/usr/bin/env bash
# Builds fwserved and the serving benchmark from source and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload diverse_cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: binaries, the Go build cache, temporary files, and
# the per-run provenance and span files. Build output goes to standard
# error; the benchmark's last line on standard output is its JSON result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/fwserved" ]; then
	echo "run.sh: no fwserved sources under $root; run it from the repository root" >&2
	exit 2
fi

mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config/go/telemetry" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# With a fresh telemetry directory, every go command would fork a
# detached (setsid) telemetry sidecar that outlives this script. Turning
# telemetry off in the private config directory stops the fork.
printf 'off\n' > "$out/config/go/telemetry/mode"

go build -o "$out/bin/fwserved" ./cmd/fwserved >&2
(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -fwserved "$out/bin/fwserved" "$@"
