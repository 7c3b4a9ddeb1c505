#!/usr/bin/env sh
# Runs the CI-sized bench set and collects the BENCH_*.json artifacts.
#
#   tools/bench_gate/run_benches.sh <build-dir> <output-dir>
#
# The workload sizes here are the gate's canonical CI configuration: small
# enough for a minutes-long CI step, large enough that per-frame medians are
# stable. Baselines under bench/baselines/ MUST be regenerated with this
# same script (same sizes), or the comparison is meaningless:
#
#   tools/bench_gate/run_benches.sh build bench/baselines
set -eu

BUILD_DIR="${1:?usage: run_benches.sh <build-dir> <output-dir>}"
OUT_DIR="${2:?usage: run_benches.sh <build-dir> <output-dir>}"

mkdir -p "$OUT_DIR"
OUT_DIR="$(cd "$OUT_DIR" && pwd)"
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT
cd "$WORK_DIR"

echo "== telemetry_overhead =="
"$BUILD_DIR/bench/telemetry_overhead" --frames=5 --width=640 --height=360 \
    --superpixels=400

echo "== thread_scaling =="
"$BUILD_DIR/bench/thread_scaling" --frames=5 --width=640 --height=360 \
    --superpixels=400

echo "== simd_kernels =="
"$BUILD_DIR/bench/simd_kernels" --width=640 --rows=64 --reps=10

echo "== stream_engine =="
# CI-sized multi-stream run: large enough that the measured window holds
# several cross-stream batches per stream, small enough for one CI minute.
# The binary itself fails on identity divergence, nonzero steady-state
# allocations, or a saturation arm that never sheds.
"$BUILD_DIR/bench/stream_engine" --streams=3 --frames=10 --width=640 \
    --height=360 --superpixels=400

echo "== tiled_streaming =="
# CI-sized: small enough to also run the byte-identity cross-check against
# the monolithic segmenter (auto-enabled below 8 MP). The pinned tile grid
# keeps the deterministic traffic model comparable across machines.
"$BUILD_DIR/bench/tiled_streaming" --width=1600 --height=1200 \
    --superpixels=1200 --iterations=5 --tile=512x384

cp BENCH_*.json "$OUT_DIR/"
echo "artifacts in $OUT_DIR:"
ls -1 "$OUT_DIR"/BENCH_*.json
