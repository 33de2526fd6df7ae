#!/usr/bin/env bash
#
# CI-style check driver. Default mode runs four passes:
#
#   release   Release build + full ctest suite
#   bench     microbenchmark smoke runs (tiny iteration counts)
#   tsan      ThreadSanitizer build of the concurrency-sensitive pieces
#             (thread pool, metrics registry, parallel profiling,
#             iteration-parallel simulation, parallel recommend/train,
#             the parallel cross-predictor evaluation sweep, the ceerd
#             serving stack)
#   ubsan     UBSanitizer build of the serialization/I-O boundary
#
# `tools/check.sh coverage` instead builds with -DCEER_COVERAGE=ON,
# runs the test suite, and summarizes gcov line coverage for src/
# against the floor in tools/coverage_baseline.txt.
#
# `tools/check.sh scaling` runs the full micro benches and fails on
# any below-serial scaling row. On a multi-core host a parallel path
# running slower than serial is a scheduler regression, full stop; on
# a single-core host the benches mark the run "skipped_scaling" and
# the pass only verifies they said so (identity is still enforced by
# the benches' own exit codes).
#
# Every pass runs even if an earlier one failed; each pass's status is
# checked explicitly, a one-line PASS/FAIL summary is printed at the
# end, and the script exits nonzero if ANY pass failed.
#
# Usage: tools/check.sh [coverage|scaling] [jobs]

set -uo pipefail
cd "$(dirname "$0")/.."

MODE=all
if [[ "${1:-}" == "coverage" ]]; then
    MODE=coverage
    shift
elif [[ "${1:-}" == "scaling" ]]; then
    MODE=scaling
    shift
fi
JOBS="${1:-$(nproc)}"

PASS_NAMES=()
PASS_RESULTS=()
FAILED=0

# Runs one named pass (a function) in a `set -e` subshell so the first
# failing command fails the pass, records PASS/FAIL, and keeps going.
#
# The subshell must be a bare statement: putting it in an `if` or `||`
# condition context would make bash ignore `set -e` inside it and let
# a pass "succeed" past its first failing command — exactly the
# swallowed-exit-status bug this helper exists to prevent.
run_pass() {
    local name="$1"
    shift
    echo
    echo "==> ${name}"
    (set -e; "$@")
    local status=$?
    if [[ "${status}" -eq 0 ]]; then
        PASS_NAMES+=("${name}")
        PASS_RESULTS+=("PASS")
    else
        PASS_NAMES+=("${name}")
        PASS_RESULTS+=("FAIL")
        FAILED=1
    fi
}

pass_release() {
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    ctest --test-dir build --output-on-failure -j "$JOBS"
}

pass_bench_smoke() {
    # The perf-tracking benches must at least run clean and hold their
    # internal determinism checks ('' disables the JSON artifacts;
    # real numbers come from full runs).
    ./build/bench/micro_sim --iters 50 --out ''
    ./build/bench/micro_profile --iters 5 --out ''
    # micro_ceer's nonzero exit asserts the serial==parallel
    # recommender identity and the plan-vs-node-walk bit identity.
    ./build/bench/micro_ceer --iters 50 --train-iters 10 \
        --catalog-copies 8 --out ''
    # micro_obs doubles as a smoke test of the --metrics-out plumbing.
    ./build/bench/micro_obs --ops 100000 --threads 4 --out '' \
        --metrics-out build/check_obs_metrics.json
    grep -q obs_bench.counter build/check_obs_metrics.json
    # micro_io's nonzero exit asserts bit-identity across the CSV /
    # streaming-CBF / mmap-CBF load paths and the fleet recommend sweep.
    ./build/bench/micro_io --train-iters 10 --load-iters 3 \
        --fleet 256 --out ''
    # micro_serve's nonzero exit asserts the loadgen-vs-in-process
    # byte identity (across every reactor/thread combination, and
    # across hot reload) plus the steady-state allocation budget; the
    # smoke run also checks the emitted JSON carries the latency
    # fields and that the allocation gate actually passed.
    ./build/bench/micro_serve --train-iters 10 --seconds 0.4 \
        --connections 2 --models vgg_19,alexnet --qps-targets 50,0 \
        --out build/check_serve.json
    grep -q identity_ok build/check_serve.json
    grep -q p999_us build/check_serve.json
    grep -q '"alloc_gate_ok": true' build/check_serve.json
    # ceerd smoke through the CLI: serve a freshly trained model,
    # drive it briefly with the loadgen, then require a clean SIGTERM
    # drain (exit 0) and a well-formed loadgen JSON. The server sends
    # with MSG_NOSIGNAL and retries EINTR, so the mid-run signal must
    # not break in-flight replies.
    ./build/tools/ceer profile --iters 15 --models vgg_11,inception_v1 \
        --out build/check_serve_profiles.csv
    ./build/tools/ceer train --profiles build/check_serve_profiles.csv \
        --out build/check_serve_model.txt
    rm -f build/check_serve_port.txt
    ./build/tools/ceer serve --ceer-model build/check_serve_model.txt \
        --port 0 --port-file build/check_serve_port.txt &
    local serve_pid=$!
    for _ in $(seq 1 100); do
        if [[ -s build/check_serve_port.txt ]]; then
            break
        fi
        sleep 0.1
    done
    ./build/tools/ceer loadgen \
        --port "$(cat build/check_serve_port.txt)" \
        --seconds 1 --connections 2 --models vgg_19 \
        --out build/check_serve_loadgen.json
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    grep -q throughput_qps build/check_serve_loadgen.json
    # The same smoke with two reactors: the round-robin deal of
    # accepted connections from reactor 0, sessions on both reactors
    # and the reactor-aware SIGTERM drain must all survive a real
    # process lifecycle, not just the in-process tests.
    rm -f build/check_serve_port.txt
    ./build/tools/ceer serve --ceer-model build/check_serve_model.txt \
        --port 0 --reactors 2 \
        --port-file build/check_serve_port.txt &
    serve_pid=$!
    for _ in $(seq 1 100); do
        if [[ -s build/check_serve_port.txt ]]; then
            break
        fi
        sleep 0.1
    done
    ./build/tools/ceer loadgen \
        --port "$(cat build/check_serve_port.txt)" \
        --seconds 1 --connections 3 --models vgg_19 \
        --out build/check_serve_loadgen2.json
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    grep -q throughput_qps build/check_serve_loadgen2.json
    # Cross-predictor evaluation smoke: train -> evaluate over the
    # checked-in fixture must reproduce the golden report byte for
    # byte, serially and under a parallel sweep (the same gate ctest
    # runs as cli_evaluate_golden, here exercised through check.sh's
    # release binaries).
    ./build/tools/ceer evaluate \
        --profiles tests/data/eval_fixture_profiles.csv \
        --models alexnet,inception_v1 --ks 1,2,4 --eval-iters 10 \
        --threads 1 --out build/check_eval_report.csv
    cmp tests/data/eval_report_golden.csv build/check_eval_report.csv
    ./build/tools/ceer evaluate \
        --profiles tests/data/eval_fixture_profiles.csv \
        --models alexnet,inception_v1 --ks 1,2,4 --eval-iters 10 \
        --threads 4 --out build/check_eval_report_par.csv
    cmp tests/data/eval_report_golden.csv build/check_eval_report_par.csv
    # The extended Table-5 bench: every registered predictor swept
    # over the held-out test CNNs, with Ceer required to win.
    ./build/bench/tab_predictor_errors --iters 25 --eval-iters 25
}

pass_tsan() {
    cmake -B build-tsan -S . -DCEER_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-tsan -j "$JOBS" \
          --target obs_test thread_pool_test profile_test sim_test \
                   predict_plan_test serve_test baselines_test

    # Run the TSan binaries directly (ctest discovery would require
    # every test target to be built). TSAN_OPTIONS makes races hard
    # failures.
    export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
    # The sharded metrics registry: 16-thread hammer, snapshots taken
    # mid-record, and the span sink under concurrent writers.
    ./build-tsan/tests/obs_test
    ./build-tsan/tests/thread_pool_test
    ./build-tsan/tests/profile_test \
        --gtest_filter='SeedingTest.*:DatasetTest.LoadedDatasetServesIndexedQueries'
    # Exercise the iteration-parallel run() under TSan: chunked
    # fan-out across the thread pool with deterministic merge.
    ./build-tsan/tests/sim_test \
        --gtest_filter='SimulatorTest.ParallelRunIsByteIdenticalToSerial:SimulatorTest.RunIsByteIdenticalWithObservabilityOn'
    # The parallel recommender sweep (shared PredictPlan memo under
    # concurrent first-touch) and the parallel trainer fits under
    # TSan, with and without observability.
    ./build-tsan/tests/predict_plan_test \
        --gtest_filter='ParallelRecommenderTest.*:ParallelTrainerTest.*:SerialAndParallel/*'
    # The cross-predictor evaluation sweep under TSan: every engine
    # predicting concurrently (the Ceer variants' first-touch plan
    # memo included) while per-cell simulators run on the pool.
    ./build-tsan/tests/baselines_test \
        --gtest_filter='EvalSweepTest.ParallelSweepIsByteIdentical'
    # The full ceerd stack under TSan: the round-robin fd handoff
    # across reactors, the shared plan cache's concurrent compile-once
    # path, reactors entering the shared pool's candidate sweep at once
    # (sweepThreads > 1), engine hot-swap, admission counters and the
    # loadgen's dedicated client threads all race-checked end to end.
    ./build-tsan/tests/serve_test
}

pass_ubsan() {
    cmake -B build-ubsan -S . -DCEER_SANITIZE=undefined \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-ubsan -j "$JOBS" \
          --target obs_test util_test regression_test robustness_test \
                   roundtrip_test profile_cache_test io_test

    # Checked parsing must be UB-free on adversarial input:
    # overflowing integers, huge exponents, garbled bytes.
    # halt_on_error turns any report into a hard failure.
    export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
    ./build-ubsan/tests/obs_test --gtest_filter='ObsJsonTest.*'
    ./build-ubsan/tests/util_test --gtest_filter='CsvTest.*:ParseTest.*'
    ./build-ubsan/tests/regression_test \
        --gtest_filter='LinearModelTest.*'
    ./build-ubsan/tests/robustness_test \
        --gtest_filter='CsvRobustnessTest.*:ModelFileTest.*'
    ./build-ubsan/tests/roundtrip_test
    ./build-ubsan/tests/profile_cache_test
    # The CBF reader's corruption matrix under UBSan: misaligned and
    # short sections must be validation failures, never UB.
    ./build-ubsan/tests/io_test
}

pass_scaling() {
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" \
          --target micro_sim micro_profile micro_ceer micro_obs
    mkdir -p build/scaling
    ./build/bench/micro_sim --out build/scaling/BENCH_sim.json
    ./build/bench/micro_profile --out build/scaling/BENCH_profile.json
    ./build/bench/micro_ceer --out build/scaling/BENCH_ceer.json
    ./build/bench/micro_obs --out build/scaling/BENCH_obs.json

    # On >= 2 hardware threads any below-serial row is a hard failure
    # and the recommender sweep must clear 1.5x at 2 threads; on one
    # hardware thread the benches must have declared the scaling
    # numbers meaningless instead of reporting them as regressions.
    python3 - <<'EOF'
import json, os, sys

multi_core = (os.cpu_count() or 1) >= 2
failures = []
for name in ("sim", "profile", "ceer", "obs"):
    path = f"build/scaling/BENCH_{name}.json"
    with open(path) as f:
        doc = json.load(f)
    skipped = doc.get("skipped_scaling")
    below = doc.get("below_serial_measurements")
    if multi_core:
        if skipped is not False:
            failures.append(f"{path}: skipped_scaling={skipped!r} "
                            "on a multi-core host")
        if below != 0:
            failures.append(f"{path}: {below} below-serial scaling "
                            "row(s)")
    elif skipped is not True:
        failures.append(f"{path}: single-core host but "
                        f"skipped_scaling={skipped!r}")

if multi_core:
    with open("build/scaling/BENCH_ceer.json") as f:
        ceer = json.load(f)
    two = [r for r in ceer["recommender_sweep"] if r["threads"] == 2]
    if not two:
        failures.append("BENCH_ceer.json: no 2-thread sweep row")
    elif two[0]["speedup"] < 1.5:
        failures.append("BENCH_ceer.json: recommender speedup at 2 "
                        f"threads is {two[0]['speedup']:.2f}x (< 1.5x)")

for failure in failures:
    print(f"FAIL: {failure}")
if failures:
    sys.exit(1)
print(f"scaling gate clean (multi_core={multi_core})")
EOF
}

pass_coverage() {
    cmake -B build-cov -S . -DCEER_COVERAGE=ON \
          -DCMAKE_BUILD_TYPE=Debug >/dev/null
    cmake --build build-cov -j "$JOBS"
    ctest --test-dir build-cov --output-on-failure -j "$JOBS"
    python3 tools/coverage_summary.py --build-dir build-cov
}

if [[ "$MODE" == "coverage" ]]; then
    run_pass "coverage build + tests + line-coverage floor" pass_coverage
elif [[ "$MODE" == "scaling" ]]; then
    run_pass "micro-bench scaling gate (below-serial rows)" pass_scaling
else
    run_pass "release build + tests" pass_release
    run_pass "microbenchmark smoke runs" pass_bench_smoke
    run_pass "ThreadSanitizer (concurrency-sensitive pieces)" pass_tsan
    run_pass "UBSanitizer (serialization/I-O boundary)" pass_ubsan
fi

echo
echo "==> summary"
for i in "${!PASS_NAMES[@]}"; do
    printf '  %-48s %s\n' "${PASS_NAMES[$i]}" "${PASS_RESULTS[$i]}"
done
if [[ "$FAILED" -ne 0 ]]; then
    echo "RESULT: FAIL"
    exit 1
fi
echo "RESULT: PASS"
