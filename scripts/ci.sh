#!/usr/bin/env bash
# Full local CI pipeline: configure -> build -> unit tests -> static
# analysis. Every check runs once, as a ctest case or a step below. Tools
# missing from the container (clang-tidy, cppcheck, clang++) are skipped;
# everything available must pass.
#
# Usage: scripts/ci.sh [build-dir]   (default: build-ci)
set -euo pipefail

SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${SOURCE_DIR}/build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

step() { echo; echo "==== $* ===="; }

step "configure (${BUILD_DIR})"
# Warnings are errors here: the tree builds with none under the project's
# -Wall -Wextra -Wshadow -Wextra-semi -Wnon-virtual-dtor, and this keeps it
# that way.
cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=Release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

step "build"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

step "ctest (unit + schema tests, auto-selected kernel ISA)"
# Includes the bench-JSON and profile schema checks, the advisory
# comparison against bench/baselines/*.json (bench_baseline), and
# rgae_tests_scalar_kernel, which re-runs the unit suite with every kernel
# stub pinned to the scalar reference tier (DESIGN.md §9).
(cd "${BUILD_DIR}" && ctest --output-on-failure -LE lint -j "${JOBS}")

step "ctest -L lint (registered lint cases)"
# rgae_lint and its self-test, plus clang-tidy and cppcheck when installed.
(cd "${BUILD_DIR}" && ctest --output-on-failure -L lint)

step "thread-sanitizer build, ctest -L concurrency"
# The serve engine and the kernels' fork-join pool under -fsanitize=thread;
# any report, a data race or a lock-order inversion, makes the test binary
# exit non-zero. This is the project's one lock-order check.
cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}-tsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRGAE_SANITIZE=thread
cmake --build "${BUILD_DIR}-tsan" -j "${JOBS}" --target rgae_concurrency_tests
(cd "${BUILD_DIR}-tsan" && ctest --output-on-failure -L concurrency -j "${JOBS}")

step "address + undefined-behavior sanitizer build, unit suite"
# The whole unit suite under -fsanitize=address,undefined (the asan-ubsan
# preset's settings), once on the auto-selected kernel tier and once pinned
# to the scalar tier, so the model, tape and trainer tests run on both
# under the sanitizers (kernels_test pins both tiers itself). ASan aborts
# on its first report; UBSan only reports and continues by default, so
# halt_on_error makes a UB report fail too.
cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}-asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRGAE_SANITIZE=address,undefined
cmake --build "${BUILD_DIR}-asan" -j "${JOBS}" --target rgae_tests
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  "${BUILD_DIR}-asan/tests/rgae_tests"
RGAE_KERNEL=scalar UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  "${BUILD_DIR}-asan/tests/rgae_tests"

step "thread-safety analysis build (clang -Wthread-safety)"
if command -v clang++ >/dev/null 2>&1; then
  cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}-tsa" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_COMPILER=clang++ -DRGAE_TSA=ON
  cmake --build "${BUILD_DIR}-tsa" -j "${JOBS}"
else
  echo "clang++ not installed; TSA build skipped"
fi

echo
echo "CI pipeline passed."
