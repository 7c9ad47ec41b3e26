#!/usr/bin/env bash
# Full verification pipeline: configure, build, run the test suite,
# regenerate every paper artifact (each bench exits nonzero on mismatch),
# collect the machine-readable bench records, and prove the parallel sweep
# engine's thread-count invariance.
#
#   scripts/check.sh             the full default pipeline
#   scripts/check.sh --sanitize  additionally build and run the concurrency
#                                and differential tests under TSan and
#                                ASan+UBSan (docs/PARALLELISM.md)
#   scripts/check.sh --chaos     additionally run the fault-injection chaos
#                                sweep, the coordination chaos suite
#                                (docs/COORDINATION.md), and validate the
#                                reliability bench records end to end
#                                (docs/FAULTS.md). Failing scenarios drop
#                                replayable seed+plan JSON artifacts into
#                                build/chaos-artifacts (POSTAL_CHAOS_ARTIFACTS),
#                                which the nightly CI job uploads.
#   scripts/check.sh --perf      additionally regenerate the tick-engine
#                                timing records: E22 plus the
#                                sweep-dominated benches with record
#                                collection on, validated end to end; any
#                                tick result that disagrees with its
#                                independent reference (GenFib f_lambda, the
#                                validator, bcast_schedule) is a hard
#                                failure (docs/PERFORMANCE.md). Then run the
#                                benchmark's self-test (perfbench/README.md)
#   scripts/check.sh --soak      additionally run the service long-soak: the
#                                200+-scenario admission-queue invariant
#                                sweep, then a 10^6-job open-loop run driven
#                                end to end through `postal_cli serve`,
#                                byte-compared across threads=1 and
#                                threads=4, plus a shed-heavy ON/OFF run at
#                                the same scale (docs/SERVICE.md). Nightly
#                                in CI (docs/CI.md).
#   scripts/check.sh --format    check-only formatting + docs gate: every
#                                tracked C++ file must be clang-format clean
#                                per the committed .clang-format, and every
#                                relative Markdown link must resolve
#                                (scripts/check_docs_links.py, docs/CI.md).
#                                Runs alone -- no build -- so CI can gate on
#                                it in seconds. Set CLANG_FORMAT to pick a
#                                specific binary.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=0
CHAOS=0
PERF=0
SOAK=0
FORMAT=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    --chaos) CHAOS=1 ;;
    --perf) PERF=1 ;;
    --soak) SOAK=1 ;;
    --format) FORMAT=1 ;;
    *) echo "unknown argument: $arg (supported: --sanitize, --chaos, --perf, --soak, --format)" >&2; exit 2 ;;
  esac
done

if [ "$FORMAT" -eq 1 ]; then
  # Check-only: print a unified diff per drifted file and exit nonzero on
  # any drift. Never rewrites the tree (CI must not).
  FMT="${CLANG_FORMAT:-clang-format}"
  if ! command -v "$FMT" > /dev/null 2>&1; then
    echo "error: '$FMT' not found; install clang-format or set CLANG_FORMAT" >&2
    echo "       (the CI format job installs it; see docs/CI.md)" >&2
    exit 2
  fi
  echo "== format gate ($("$FMT" --version))"
  STATUS=0
  while IFS= read -r f; do
    if ! diff -u "$f" <("$FMT" --style=file "$f") > /dev/null; then
      echo "format drift: $f" >&2
      diff -u "$f" <("$FMT" --style=file "$f") | head -40 >&2 || true
      STATUS=1
    fi
  done < <(git ls-files '*.cpp' '*.hpp')
  [ "$STATUS" -eq 0 ] && echo "all tracked C++ files are clang-format clean"

  # Docs lint rides the same fast gate: every relative Markdown link must
  # point at a file that exists (documentation rot guard, docs/CI.md).
  echo "== docs link gate"
  python3 scripts/check_docs_links.py || STATUS=1
  exit "$STATUS"
fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Every paper bench runs with record collection on: benches exit nonzero on
# a paper mismatch, and the collected BENCH_postal.json is validated below.
rm -f build/BENCH_postal.json
for b in build/bench/bench_*; do
  [ "$(basename "$b")" = "bench_micro" ] && continue
  echo "== $(basename "$b")"
  POSTAL_BENCH_JSON=build/BENCH_postal.json "$b" > /dev/null
done

# Machine-readable bench output (schema: docs/OBSERVABILITY.md). A missing
# file, an unparseable line, a missing stable key, a MISMATCH verdict, or --
# critically -- ZERO records is a hard error: a silently empty record file
# means the POSTAL_BENCH_JSON pipeline broke, which is exactly the failure
# this stage exists to catch. (sys.exit, not assert: the check must survive
# python3 -O.)
echo "== BENCH_postal.json records"
python3 scripts/validate_bench_records.py build/BENCH_postal.json \
  --expect bench_fig1_tree --expect bench_bcast_optimality \
  --expect bench_theorem7_bounds --expect bench_repeat \
  --expect bench_pipeline --expect bench_dtree \
  --expect bench_multimessage_shootout --expect bench_collectives \
  --expect bench_network_transfer --expect bench_par_sweep \
  --expect bench_fault_recovery --expect bench_tick_domain \
  --expect bench_oracle --expect bench_par_machine \
  --expect bench_service --expect bench_coord --expect bench_log --svc

# Perf-trajectory drift guard (bench/trajectory/README.md): verdict
# regressions against the committed baselines are hard failures; wall-time
# and throughput drift only warns (trajectory numbers are snapshots of
# whichever box committed them).
echo "== perf trajectory vs committed baselines"
python3 scripts/compare_trajectory.py build/BENCH_postal.json

# Thread-count invariance of the sweep engine, end to end through the CLI:
# the per-point records of a threads=4 sweep must be identical to a
# threads=1 sweep once wall-time fields (and the thread count itself) are
# ignored (docs/PARALLELISM.md).
echo "== sweep determinism (threads=1 vs threads=4)"
rm -f build/SWEEP_t1.json build/SWEEP_t4.json
POSTAL_BENCH_JSON=build/SWEEP_t1.json \
  build/examples/postal_cli sweep 2,8,64,256 1,3/2,5/2,4 1 > /dev/null
POSTAL_BENCH_JSON=build/SWEEP_t4.json \
  build/examples/postal_cli sweep 2,8,64,256 1,3/2,5/2,4 4 > /dev/null
python3 scripts/compare_sweep_records.py build/SWEEP_t1.json build/SWEEP_t4.json

if [ "$CHAOS" -eq 1 ]; then
  # The chaos sweep (docs/FAULTS.md): >= 100 seeded fault scenarios against
  # the reliable broadcast protocol, the fault-free byte-identical
  # regression, and the data-model tests -- run explicitly so a chaos
  # failure is loud even if ctest filtering above ever changes. Any failing
  # scenario dumps its seed + resolved FaultPlan JSON to stderr and into
  # $POSTAL_CHAOS_ARTIFACTS for replay with `postal_cli faults --plan`
  # (the nightly CI job uploads that directory on failure, docs/CI.md).
  export POSTAL_CHAOS_ARTIFACTS=build/chaos-artifacts
  rm -rf "$POSTAL_CHAOS_ARTIFACTS" && mkdir -p "$POSTAL_CHAOS_ARTIFACTS"
  echo "== chaos: fault-injection sweep"
  ./build/tests/test_fault_plan
  ./build/tests/test_machine_faults
  ./build/tests/test_reliable_bcast
  ./build/tests/test_chaos

  # The coordination chaos suite (docs/COORDINATION.md): 150+ seeded
  # scenarios against leader election and view-change consensus, holding
  # the validator's safety clauses and the guarded liveness clause on
  # every one, plus the protocol unit suites.
  echo "== chaos: coordination suite"
  ./build/tests/test_coord_election
  ./build/tests/test_coord_consensus
  ./build/tests/test_coord_chaos

  # The replicated-log chaos suite (docs/COORDINATION.md): 60+ seeded
  # scenarios against the multi-decree log -- leader crash mid-batch,
  # lease-boundary races on the grid, reconfig under crash -- holding the
  # log validator's safety clauses on every one, plus the log unit suite.
  echo "== chaos: replicated-log suite"
  ./build/tests/test_coord_log
  ./build/tests/test_coord_log_chaos

  # Reliability bench records end to end through the CLI: a crash run and a
  # crash+loss run must both emit postal_cli_faults records (schema:
  # docs/OBSERVABILITY.md) with a RECOVERED verdict.
  echo "== chaos: CLI fault records"
  rm -f build/FAULTS_records.json
  POSTAL_BENCH_JSON=build/FAULTS_records.json \
    build/examples/postal_cli faults 64 5/2 7 3 > /dev/null
  POSTAL_BENCH_JSON=build/FAULTS_records.json \
    build/examples/postal_cli faults 48 2 11 2 1/8 > /dev/null
  python3 scripts/validate_bench_records.py build/FAULTS_records.json \
    --expect postal_cli_faults
  grep -q '"verdict":"RECOVERED"' build/FAULTS_records.json
fi

if [ "$PERF" -eq 1 ]; then
  # The perf trajectory (docs/PERFORMANCE.md): E22 times every tick hot
  # loop and exits nonzero if any section disagrees with its independent
  # reference (dp == greedy == GenFib f_lambda, validator passes, Machine
  # schedule == bcast_schedule, sweep == f_lambda); the sweep-dominated
  # benches run with records on so the trajectory stays comparable release
  # to release. A MISMATCH verdict in any record also hard-fails record
  # validation.
  echo "== perf: tick-engine timing records"
  rm -f build/PERF_records.json
  for b in bench_tick_domain bench_par_sweep bench_bcast_optimality \
           bench_theorem7_bounds bench_multimessage_shootout; do
    echo "== $b"
    POSTAL_BENCH_JSON=build/PERF_records.json "build/bench/$b" > /dev/null
  done
  POSTAL_BENCH_JSON=build/PERF_records.json \
    build/bench/bench_micro \
    --benchmark_filter='BM_Rational|BM_Tick|BM_EventQueue|BM_MailboxFlush|BM_MergeReplay' \
    > /dev/null
  python3 scripts/validate_bench_records.py build/PERF_records.json \
    --expect bench_tick_domain --expect bench_par_sweep \
    --expect bench_bcast_optimality --expect bench_theorem7_bounds \
    --expect bench_multimessage_shootout --expect bench_micro
  grep -q '"bench":"bench_tick_domain".*"verdict":"CONSISTENT"' \
    build/PERF_records.json
  # The bench_micro record must carry the ParMachine barrier sections and
  # prove the arena steady state: a warm rerun on one engine grows nothing.
  grep -q '"bench":"bench_micro".*"mailbox_flush_ms"' build/PERF_records.json
  grep -q '"bench":"bench_micro".*"merge_replay_ms"' build/PERF_records.json
  grep -q '"bench":"bench_micro".*"arena_growths_warm":"0"' \
    build/PERF_records.json

  # The benchmark's gates (perfbench/README.md): every workload at smoke
  # size, traced and untraced, must pass its correctness checks and print
  # every metric BENCHMARK.json declares, and a BCAST schedule with one send
  # moved by 1/q must fail. It builds its own tree under $CARGO_TARGET_DIR
  # (default .bench_build).
  echo "== perf: perfbench self-test"
  python3 perfbench/selftest.py
fi

if [ "$SOAK" -eq 1 ]; then
  # The service long-soak (docs/SERVICE.md): the seeded admission-queue
  # invariant sweep (200+ scenarios), then 10^6-job open-loop runs driven
  # end to end through the CLI. stdout carries only virtual-time
  # quantities, so the threads=1 and threads=4 runs must be byte-identical
  # -- any diff is a determinism break in the service layer, never noise.
  echo "== soak: admission-queue invariant sweep"
  ./build/tests/test_svc_soak

  echo "== soak: 10^6-job Poisson replay (threads=1 vs threads=4)"
  SOAK_SPEC='poisson;grid=16;rate=1/16;jobs=1000000;mix=w3:n64:l2:m1|w1:n256:l5/2:m1'
  rm -f build/SOAK_t1.json build/SOAK_t4.json
  POSTAL_BENCH_JSON=build/SOAK_t1.json build/examples/postal_cli \
    serve "$SOAK_SPEC" 7 --queue 512 --exec-every 65536 --threads 1 \
    > build/SOAK_t1.out
  POSTAL_BENCH_JSON=build/SOAK_t4.json build/examples/postal_cli \
    serve "$SOAK_SPEC" 7 --queue 512 --exec-every 65536 --threads 4 \
    > build/SOAK_t4.out
  diff build/SOAK_t1.out build/SOAK_t4.out

  # A shed-heavy ON/OFF burst at the same scale: the back-pressure path at
  # depth, with the svc record contract validated on the collected records.
  echo "== soak: 10^6-job ON/OFF bursts (back-pressure at depth)"
  BURST_SPEC='onoff;grid=16;rate=8;on=64;off=192;jobs=1000000;mix=w1:n128:l3:m1'
  POSTAL_BENCH_JSON=build/SOAK_t1.json build/examples/postal_cli \
    serve "$BURST_SPEC" 11 --queue 64 --exec-every 65536 > /dev/null
  head -1 build/SOAK_t1.json | grep -q '"shed":"0"'    # Poisson: sheds nothing
  ! tail -1 build/SOAK_t1.json | grep -q '"shed":"0"'  # bursts: must shed
  python3 scripts/validate_bench_records.py build/SOAK_t1.json \
    --expect postal_cli_serve --svc
fi

if [ "$SANITIZE" -eq 1 ]; then
  # ThreadSanitizer over the concurrency surface: the thread pool, the
  # sharded caches, the sweep engine, and the sharded ParMachine (whose
  # shard loops write shared per-rank arrays and merge at barriers --
  # exactly the access pattern TSan exists to audit), plus the differential
  # test (which drives the caches from gtest's single thread -- a
  # TSan-clean baseline), plus the service tests that run sampled broadcasts
  # on the sharded engine (the svc differential loops threads 1/2/4; the
  # soak and chaos sweeps stress the same path under load and faults).
  echo "== sanitize: thread"
  cmake -B build-tsan -G Ninja -DPOSTAL_SANITIZE=thread
  cmake --build build-tsan --target test_par test_differential test_chaos \
    test_par_machine test_par_differential \
    test_svc_service test_svc_soak test_svc_chaos
  ./build-tsan/tests/test_par
  ./build-tsan/tests/test_differential
  ./build-tsan/tests/test_chaos
  ./build-tsan/tests/test_par_machine
  ./build-tsan/tests/test_par_differential
  ./build-tsan/tests/test_svc_service
  ./build-tsan/tests/test_svc_soak
  ./build-tsan/tests/test_svc_chaos

  # ASan+UBSan over the randomized tests: the differential pass, the
  # validator mutation fuzzer, the par tests again (allocation-heavy), the
  # fault-injection paths (crash truncation exercises every simulator
  # early-exit; the chaos sweep stresses them with random plans), the
  # pinned tick-engine corpora with the mid-run grid rescale and the
  # OverflowError paths (test_tick_differential), and the
  # whole service layer (parser edge cases, the 200+-scenario soak, the
  # histogram's bucket math at 2^64 extremes, and the faulted exec tier).
  echo "== sanitize: address,undefined"
  cmake -B build-asan -G Ninja -DPOSTAL_SANITIZE=address,undefined
  cmake --build build-asan --target test_differential test_validator_fuzz \
    test_validator_order test_par test_machine_faults test_reliable_bcast test_chaos \
    test_ticks test_event_queue test_tick_differential test_par_machine \
    test_par_differential test_svc_workload test_svc_service \
    test_svc_soak test_svc_percentile test_svc_chaos
  ./build-asan/tests/test_differential
  ./build-asan/tests/test_validator_fuzz
  ./build-asan/tests/test_validator_order
  ./build-asan/tests/test_par
  ./build-asan/tests/test_machine_faults
  ./build-asan/tests/test_reliable_bcast
  ./build-asan/tests/test_chaos
  ./build-asan/tests/test_ticks
  ./build-asan/tests/test_event_queue
  ./build-asan/tests/test_tick_differential
  ./build-asan/tests/test_par_machine
  ./build-asan/tests/test_par_differential
  ./build-asan/tests/test_svc_workload
  ./build-asan/tests/test_svc_service
  ./build-asan/tests/test_svc_soak
  ./build-asan/tests/test_svc_percentile
  ./build-asan/tests/test_svc_chaos
fi

echo "ALL CHECKS PASSED"
