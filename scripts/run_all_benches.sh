#!/usr/bin/env bash
# Runs the full benchmark suite (every paper table, the extension
# ablations, and the kernel microbenches) and records the output.
#
# Usage: scripts/run_all_benches.sh [output-file]
# Scale via DHGCN_BENCH_SCALE (smoke|default|full) and
# DHGCN_BENCH_REPEATS (seeds averaged per table cell).
set -u
cd "$(dirname "$0")/.."
out="${1:-bench_output.txt}"
: > "$out"
for b in build/bench/bench_table*_* build/bench/bench_ablation_extensions; do
  echo "===== $b =====" | tee -a "$out"
  "$b" 2>&1 | tee -a "$out"
done
echo "===== build/bench/bench_kernels =====" | tee -a "$out"
build/bench/bench_kernels 2>&1 | tee -a "$out"
echo "===== thread sweep -> BENCH_threads.json ====="
build/bench/bench_kernels --benchmark_filter='Threads' \
  --benchmark_format=json > BENCH_threads.json
echo "===== blocked gemm / im2col conv -> BENCH_gemm.json ====="
build/bench/bench_kernels \
  --benchmark_filter='GemmBlocked|Conv2dIm2col' \
  --benchmark_format=json > BENCH_gemm.json
echo "===== serving load test -> BENCH_serving.json ====="
# Baseline / 4x-overload-with-faults / recovery phases; --strict makes
# the overload contract (explicit sheds, bounded p99, ladder recovery)
# a hard failure rather than a number to eyeball.
build/tools/dhgcn_serve --config tiny --classes 5 --frames 16 \
  --workers 2 --queue_capacity 32 --max_batch 8 \
  --qps 150 --deadline_ms 50 --overload_factor 6 --duration_ms 1500 \
  --fault_inject worker-stall:5:40 --poison_every 97 \
  --bench_json BENCH_serving.json --strict \
  2>&1 | tee -a "$out"
echo "===== execution-plan vs layerwise -> BENCH_plan.json ====="
# Layerwise / unfused-plan / fused-plan inference, the one-time
# capture+resolve cost, and the residual-tail pair that isolates the
# three-sweep -> one-sweep fusion win from the GEMM-dominated total.
build/bench/bench_plan --benchmark_format=json > BENCH_plan.json
echo "===== sparse routing sweep -> BENCH_sparse.json ====="
# The density-routed VertexMix across operator densities and pruned
# end-to-end training steps.
build/bench/bench_sparse --benchmark_format=json > BENCH_sparse.json
echo "===== int8 quantized inference -> BENCH_int8.json ====="
# Int8-vs-fp32 GEMM kernels head to head (GMAC/s; the >=2x gate of
# DESIGN.md §15) and end-to-end fused-fp32 vs int8 plan-replay eval
# throughput on the Small serving model.
build/bench/bench_int8 --benchmark_format=json > BENCH_int8.json
echo "===== serving soak with compiled plans (--plan on) ====="
# Same soak, replaying compiled per-batch-size plans inside the workers;
# exercises the plan fallback + micro-batching contract end to end.
build/tools/dhgcn_serve --config tiny --classes 5 --frames 16 \
  --workers 2 --queue_capacity 32 --max_batch 8 \
  --qps 150 --deadline_ms 50 --overload_factor 6 --duration_ms 1500 \
  --fault_inject worker-stall:5:40 --poison_every 97 \
  --plan on --strict \
  2>&1 | tee -a "$out"
echo "wrote $out, BENCH_threads.json, BENCH_gemm.json, BENCH_serving.json, BENCH_plan.json, BENCH_sparse.json and BENCH_int8.json"
