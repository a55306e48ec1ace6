#!/usr/bin/env bash
# Profiles the simulator hot path and prints the hottest symbols,
# using the `profile` CMake preset (Release optimization +
# -fno-omit-frame-pointer, so --call-graph fp resolves cheap, accurate
# stacks through the kernel/router serve loops). Uses Linux perf when
# it is on PATH and falls back to gprofng (GNU binutils) otherwise.
#
# usage: tools/profile_hotpath.sh [bench-binary] [bench-args...]
#
#   bench-binary  Executable to profile, relative to the profile
#                 build tree or absolute. Default:
#                 bench/micro_kernel, filtered to the end-to-end
#                 experiment (the headline workload).
#
# Examples:
#   tools/profile_hotpath.sh
#   tools/profile_hotpath.sh bench/micro_kernel \
#       --benchmark_filter=BM_BatchedRouterTick
#   tools/profile_hotpath.sh tools/mediaworm_sim \
#       --loads 0.6 --frames 2 --scale 0.05
#
# The perf.data file (or, with gprofng, the hotpath.er experiment) is
# left in the profile build tree for interactive drill-down.

set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir="$repo_root/build-profile"

if command -v perf > /dev/null; then
    profiler=perf
elif command -v gprofng > /dev/null; then
    profiler=gprofng
else
    echo "error: neither perf(1) nor gprofng(1) is on PATH" >&2
    exit 1
fi

# Configure + build via the preset on first use (cmake >= 3.21).
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    cmake --preset profile -S "$repo_root"
fi
cmake --build --preset profile -j "$(nproc)"

binary=${1:-bench/micro_kernel}
shift || true
case "$binary" in
    /*) ;;
    *) binary="$build_dir/$binary" ;;
esac
if [ ! -x "$binary" ]; then
    echo "error: $binary not found or not executable" >&2
    exit 1
fi

args=("$@")
if [ ${#args[@]} -eq 0 ] \
       && [[ "$binary" == */bench/micro_kernel ]]; then
    args=(--benchmark_filter='BM_EndToEndExperiment$'
          --benchmark_min_time=2)
fi

if [ "$profiler" = gprofng ]; then
    experiment="$build_dir/hotpath.er"
    gprofng collect app -O "$experiment" "$binary" "${args[@]}"

    echo
    echo "=== hottest functions (exclusive time) ==="
    gprofng display text -limit 40 -functions "$experiment"
    echo
    echo "experiment: $experiment" \
         "(drill down with: gprofng display text -functions $experiment)"
    exit 0
fi

data="$build_dir/perf.data"
perf record --call-graph fp -F 997 -o "$data" -- \
    "$binary" "${args[@]}"

echo
echo "=== hottest symbols (self time) ==="
perf report -i "$data" --stdio --no-children \
    --percent-limit 1 2> /dev/null | head -40
echo
echo "perf.data: $data (drill down with: perf report -i $data)"
