#!/usr/bin/env bash
# CI entry point, eleven stages (docs/ROBUSTNESS.md covers asan/chaos/
# replica, docs/KERNELS.md covers 6-7, docs/SHARDING.md covers 8,
# docs/MUTABILITY.md covers 10):
#   1. plain   — RelWithDebInfo build + full ctest suite
#   2. tsan    — ThreadSanitizer build of the gtest-free concurrency
#                stress binary (tests/exec/stress_test.cc), including the
#                concurrent replica-failover / shared-pool stress
#   3. asan    — Address+UBSan build of the gtest-free binaries; the fault
#                path exercises checksum verification, retry loops and
#                quarantine under instrumentation
#   4. chaos   — full 500-config fault-injection soak on the plain build
#                (a 25-config slice already ran inside stage 1's ctest)
#   5. replica — chaos sweep restricted to multi-replica configs: one
#                faulted (sometimes dead) replica out of 2..3, where
#                page-granular failover must recover every query
#   6. nosimd  — NMRS_NO_SIMD build + full ctest: the portable scalar lane
#                evaluators must pass everything the SIMD build passes
#   7. perf    — bench_kernels --quick on the plain build, then
#                tools/check_kernel_gate.py fails the run if the kernel is
#                slower than the scalar loop at the largest cardinality
#   8. shards  — bench_shards --quick, then tools/check_shard_gate.py
#                fails the run if sharded results are not bit-identical to
#                single-shard or the 4-shard modeled speedup drops
#                below 2.0x on the scan-heavy workload
#   9. overlays— bench_overlays --quick, then tools/check_overlay_gate.py
#                fails the run if incremental overlay results are not
#                bit-identical to the per-user patched-space rebuild or
#                the modeled speedup at 256 users / 1% touch drops
#                below 3.0x
#  10. mutations— bench_mutations --quick, then
#                tools/check_mutation_gate.py fails the run if Database
#                snapshot queries are not bit-identical to re-preparing
#                the mutated dataset from scratch or the modeled query
#                slowdown at a 1% delta exceeds 1.3x; plus an nmrs_cli
#                serve smoke over a scripted mutation workload
#  11. perfbench— perfbench/tests/test_bench.py builds the Database
#                benchmark against the current src/ and runs its own
#                checks, so an API change that breaks perfbench/ fails CI
# Sanitizer builds are Debug so NMRS_DCHECKs are active, and only build
# gtest-free targets to keep every instrumented frame inside nmrs code.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc)"

echo "=== plain build + tests ==="
cmake -B build -S .
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "=== ThreadSanitizer build (exec_stress) ==="
cmake -B build-tsan -S . -DNMRS_TSAN=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build build-tsan -j"${JOBS}" --target exec_stress
./build-tsan/tests/exec_stress

echo "=== Address+UBSan build (exec_stress + chaos_soak slice) ==="
cmake -B build-asan -S . -DNMRS_ASAN=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build build-asan -j"${JOBS}" --target exec_stress --target chaos_soak
./build-asan/tests/exec_stress
./build-asan/tests/chaos_soak --configs=50 --mutations=10

echo "=== chaos soak (full 500-config sweep + WAL/compaction faults) ==="
./build/tests/chaos_soak --configs=500 --mutations=100

echo "=== replica chaos sweep (multi-replica failover contract) ==="
./build/tests/chaos_soak --configs=150 --min-replicas=2

echo "=== NMRS_NO_SIMD build + tests (portable lane evaluators) ==="
cmake -B build-nosimd -S . -DNMRS_NO_SIMD=ON
cmake --build build-nosimd -j"${JOBS}"
ctest --test-dir build-nosimd --output-on-failure -j"${JOBS}"

echo "=== kernel perf-sanity gate (bench_kernels --quick) ==="
(cd build && ./bench/bench_kernels --quick)
python3 tools/check_kernel_gate.py build/BENCH_kernels.json

echo "=== shard correctness + speedup gate (bench_shards --quick) ==="
(cd build && ./bench/bench_shards --quick)
python3 tools/check_shard_gate.py build/BENCH_shards.json

echo "=== overlay correctness + speedup gate (bench_overlays --quick) ==="
(cd build && ./bench/bench_overlays --quick)
python3 tools/check_overlay_gate.py build/BENCH_overlays.json

echo "=== mutation correctness + slowdown gate (bench_mutations --quick) ==="
(cd build && ./bench/bench_mutations --quick)
python3 tools/check_mutation_gate.py build/BENCH_mutations.json
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "${SERVE_DIR}"' EXIT
./build/tools/nmrs_cli generate --rows=2000 --cards=8,10,6 \
  --out="${SERVE_DIR}/data.csv" --matrices="${SERVE_DIR}/m" --seed=5
printf 'query 3,4,2\ninsert 3,4,2\ndelete 0\nquery 3,4,2\ncompact\nquery 3,4,2\nstats\n' \
  > "${SERVE_DIR}/workload.txt"
./build/tools/nmrs_cli serve --data="${SERVE_DIR}/data.csv" \
  --matrices="${SERVE_DIR}/m" --script="${SERVE_DIR}/workload.txt"

echo "=== perfbench build + self-tests (perfbench/tests/test_bench.py) ==="
python3 perfbench/tests/test_bench.py

echo "ci: all ok"
