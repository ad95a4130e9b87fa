#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root. What the go tool writes (build cache, and its telemetry
# counters under the user's config directory) is redirected under
# .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
  echo "bench: $root holds no go.mod: the benchmark builds only inside the repository it measures" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$root"
go build -o "$build/aapc-bench" ./bench
exec "$build/aapc-bench" "$@"
