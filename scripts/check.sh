#!/usr/bin/env bash
# Repo check: tier-1 tests plus a fast benchmark-collection pass.
#
# The benchmark modules are named bench_*.py, which pytest's default
# python_files glob silently skips — so they can rot without anyone
# noticing.  This script runs them with --benchmark-disable (experiment
# logic + assertions execute; no timing calibration) so CI catches
# import errors and stale APIs in benchmarks/ as well.
#
# Every pytest run carries a per-test --timeout (the hand-rolled
# watchdog in the root conftest.py): the serving/chaos suites' failure
# mode is a hang, and a hang must name its test and die, not eat the CI
# budget.
#
# Usage: scripts/check.sh [extra pytest args for the tier-1 run]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q --timeout 300 "$@"

# Named gate for the serving suites (also part of tier-1; kept explicit
# and cheap so a serving regression is unmissable in CI output): the
# in-process micro-batcher + arena, the shared metrics reservoir, the
# transport protocol (frame codec edge cases + credit backpressure),
# the multi-process cluster stack (spawned shard workers, shm AND
# loopback-TCP transports, crash recovery), and the resilience layer
# (retries, breakers, deadlines, slot hygiene), and the telemetry
# stack (metrics registry, cross-transport tracing, admin endpoint).
# The benchmarks pass below picks up the serving throughput benches
# (bench_serving_concurrent.py, bench_serving_cluster.py,
# bench_serving_chaos.py, bench_serving_tcp.py,
# bench_serving_observability.py, bench_serving_elastic.py,
# bench_serving_multitenant.py) via the glob — the observability bench
# gates tracing overhead, the elastic bench gates zero-error membership
# churn, and the multitenant bench gates bitwise per-model correctness
# of the consolidated two-model cluster even in the disabled fast pass.
echo "== serving concurrency + cluster stress tests =="
python -m pytest tests/runtime/test_serving.py tests/runtime/test_arena.py \
                 tests/runtime/test_metrics.py tests/runtime/test_transport.py \
                 tests/runtime/test_shm_ring.py tests/runtime/test_cluster.py \
                 tests/runtime/test_resilience.py tests/runtime/test_telemetry.py \
                 -q --timeout 300

# The chaos matrix is the resilience acceptance gate: seeded fault
# injection (crash/stall/slow/corrupt/slot-exhaust) against the full
# stack — every request must resolve as the correct result or a typed
# error, with the run's counters matching the plan's replay exactly,
# over the shm transport and over loopback TCP alike.
echo "== chaos suite (seeded fault injection, shm + tcp) =="
python -m pytest tests/runtime/test_chaos.py -q --timeout 300

# Elastic membership is its own named gate: runtime add/remove with
# drain-before-remove must be invisible to clients — remove-under-load
# with zero client-visible errors, add-under-load demonstrably serving
# traffic, SIGKILL-mid-drain resolving futures typed — on the shm
# transport and over loopback TCP alike, plus the shard-file watcher
# and the admin POST routes that drive the same code paths.
echo "== elastic membership suite (runtime add/remove, shm + tcp) =="
python -m pytest tests/runtime/test_membership.py -q --timeout 300

# Multi-tenancy is its own named gate: a two-model registry served
# concurrently with bitwise per-model correctness, typed unknown-model
# rejection, hot load-then-serve under live load, drained unload with
# zero client-visible errors, and mixed-model SIGKILL recovery through
# the retry budget — on the shm transport and over loopback TCP alike,
# plus the admin model routes and per-model /metrics labels.
echo "== multi-tenant suite (model registry, hot load/unload, shm + tcp) =="
python -m pytest tests/runtime/test_multitenant.py -q --timeout 300

echo "== benchmarks (benchmark-disabled fast pass) =="
python -m pytest benchmarks/ -q --benchmark-disable --timeout 600 \
                 -o python_files='bench_*.py test_*.py'

# The benchmark checks every output (VGG against ReferenceExecutor
# within 1e-4) but run.py exits 0 when a check fails, so this gate
# reads its result line instead: a kernel that breaks the benchmark's
# output check fails CI here.
echo "== perfbench smoke (session-vgg output check) =="
python3 perfbench/run.py --workload session-vgg --seed 1 --seconds 1 --trace 0 \
    | tail -n 1 \
    | python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench smoke failed: correct=%s failed=%s" % (r.get("correct"), r.get("failed")))'

echo "== check.sh OK =="
