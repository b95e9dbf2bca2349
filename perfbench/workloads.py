"""The benchmark's workloads, driven through the program's public API.

``session-vgg`` runs an in-process ``InferenceSession``;
``serve-shm-light`` runs a ``ShardedServer``.  Each run reports the end-to-end
metrics untraced (``trace=False``) or, in a separate traced run, the
per-layer metrics (``trace=True``): ``profile_layers`` for the session,
100%-sampled ``get_trace`` timelines for the servers.  A metric of a
layer that a workload never runs reads 0.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import numpy as np

import harness
import layers
from repro.runtime import ReferenceExecutor, TelemetryConfig, profile_layers
from repro.runtime.cluster import ShardedServer

#: single-threaded BLAS for the workers, as for this process
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS: dict[str, dict] = {
    # the paper's real-time single-image case: compiler, executor and
    # kernels do all the work, no serving layer runs
    "session-vgg": {
        "kind": "session", "model": "vgg16",
        "model_kwargs": {"depth": "full", "width_scale": 0.25, "in_size": 64},
        "num_patterns": 8, "connectivity_rate": 3.6,
        "batch": 1, "pool": 16, "setups": 5, "warmup_s": 1.0,
    },
    # one closed-loop client of a tiny model: admission, transport, the
    # worker queue and the micro-batcher's wait dominate, not kernels.
    # One request is in flight at a time, so one CPU serves it; pinned
    # there (workers inherit the affinity), its p90 no longer swings
    # 4-8 ms between runs with where a 2-vCPU guest wakes each process.
    "serve-shm-light": {
        "kind": "serve", "transport": "shm", "shards": 2, "cpus": 1, "model": "smallcnn",
        "model_kwargs": {"channels": (8, 16), "in_size": 8},
        "num_patterns": 8, "connectivity_rate": 2.0,
        "batch": 1, "pool": 32, "setups": 3, "warmup_s": 2.0,
    },
}

#: closed loops run at least this many operations (two blocks)
MIN_OPS = 2 * harness.BLOCK_OPS
REQUEST_TIMEOUT_S = 30.0
#: cap on the in-process reference / arena replays of traced batches
REPLAY_MAX = 100
#: rounds of graph build / passes / packing / codegen per traced run
COMPILE_REPEATS = 5
#: more than any run sends, so the trace store never evicts
TRACE_CAPACITY = 1_000_000
#: a worker refreshes its serving stats on the router every health tick
STATS_SETTLE_S = 1.2

LAYER_ZEROS = dict.fromkeys((
    "serving.queue_wait_ms", "serving.execute_ms", "serving.mean_batch",
    "serving.effective_wait_ms", "cluster.admission_ms", "cluster.dispatch_ms",
    "transport.self_ms", "worker.worker_queue_ms", "worker.reply_ms",
    "cluster.attempts_per_request", "cluster.shed", "cluster.timed_out",
    "cluster.corrupt", "cluster.router_p99_ms",
), 0.0)


class ResourceLeak(RuntimeError):
    """A closed server left a worker process or shm segment behind."""


class Run:
    """State of one benchmark run: its seeded spec and request pool (the
    bundle is written under ``workdir``), length, output check, operation
    tally and span log."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path) -> None:
        self.params = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.outcomes = harness.Outcomes()
        self.log = harness.SpanLog()
        self.spec = layers.build_spec(self.params, str(workdir / f"{name}.npz"), seed)
        self.pool = layers.request_pool(self.spec, seed, self.params["pool"], self.params["batch"])
        #: ``check(i, output)``: is the output for ``pool[i % len(pool)]`` right
        self.check = None


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; returns ``(outcomes, metric values, span log)``."""
    r = Run(name, seed, seconds, workdir)
    if "cpus" in r.params:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: r.params["cpus"]])
    if r.params["kind"] == "session":
        values = _session(r, trace)
    else:
        values = _serve(r, trace)
    return r.outcomes, values, r.log


def e2e_metrics(setups_s, measured: harness.Outcomes, total: harness.Outcomes) -> dict:
    stats = harness.block_stats(measured.records)
    stats["setup_s"] = harness.median(setups_s)
    stats["success_rate"] = 1.0 - total.error_rate
    return stats


# ----------------------------------------------------------------------
# session-vgg
# ----------------------------------------------------------------------
def _close_to(expected):
    """Compiled output within float tolerance of the dense reference."""
    def check(i: int, out) -> bool:
        ref = expected[i % len(expected)]
        if out.shape != ref.shape:
            return False
        scale = max(float(np.abs(ref).max()), 1e-30)
        return bool(np.abs(out - ref).max() <= 1e-4 * scale)
    return check


def _session(r: Run, trace: bool) -> dict:
    p, pool = r.params, r.pool
    outcomes = harness.Outcomes()
    spans, firsts = [], []
    for k in range(p["setups"]):
        t0 = time.monotonic()
        session = r.spec.build()
        firsts.append(session.run(pool[0]))
        t1 = time.monotonic()
        spans.append((t0, t1))
        r.log.add(-1, "setup", t0, t1, round=k)
    setups = [t1 - t0 for t0, t1 in spans]
    ref = ReferenceExecutor(session.graph)
    r.check = check = _close_to([ref.run(x) for x in pool])
    for first, (t0, t1) in zip(firsts, spans):
        if check(0, first):
            outcomes.ok(t0, t1)
        else:
            outcomes.fail("wrong output")

    def call(i):
        return session.run(pool[i % len(pool)]), None

    harness.closed_loop(call, check, p["warmup_s"], outcomes, 0)
    r.outcomes.absorb(outcomes)
    if trace:
        return _session_layers(r, session, call)
    measured = harness.Outcomes()
    harness.closed_loop(call, check, r.seconds, measured, MIN_OPS)
    r.outcomes.absorb(measured)
    return e2e_metrics(setups, measured, r.outcomes)


def _session_layers(r: Run, session, call) -> dict:
    """Profiled and plain runs alternate, so the tracing overhead compares
    runs made in the same machine state."""
    pool = r.pool

    def alternate(i):
        if i % 2 == 0:
            return call(i)
        sink: list = []
        with profile_layers(sink):
            out = session.run(pool[i % len(pool)])
        return out, sink

    traced = harness.Outcomes()
    harness.closed_loop(alternate, r.check, r.seconds, traced, 2 * MIN_OPS)
    r.outcomes.absorb(traced)
    compiled = layers.NodeTimes()
    rows, plain = [], []
    for k, (start, end, sink) in enumerate(traced.records):
        latency = (end - start) * 1e3
        if sink is None:
            plain.append(latency)
            continue
        spans = [
            {"name": f"layer:{node}", "op": op, "t0_ms": (t0 - start) * 1e3,
             "dur_ms": (t1 - t0) * 1e3}
            for node, op, t0, t1 in sink
        ]
        r.log.add(k, "run", start, end)
        r.log.extend_trace(k, spans, base_ms=(start - r.log.t0) * 1e3)
        compiled.add_profile(sink)
        # time inside run() that no layer covers
        root = {"name": "run", "t0_ms": 0.0, "dur_ms": latency}
        rows.append((latency, {"unattributed": harness.self_times([root, *spans])[0]}))
    reference = layers.profile_reference(
        session.graph, [pool[i % len(pool)] for i in range(REPLAY_MAX)], r.log, -2
    )
    values = _executor_metrics(r, compiled, reference)
    values.update(layers.arena_metrics(session.arena))
    values.update(LAYER_ZEROS)
    values.update(_trace_metrics(rows, harness.median(plain))[0])
    return values


def _executor_metrics(r: Run, compiled, reference) -> dict:
    values, estimates = layers.compile_path(r.spec, COMPILE_REPEATS, r.log, -3)
    values.update(compiled.group_medians("executor"))
    values.update(reference.group_medians("reference"))
    values["executor.nodes_slower_than_reference"] = layers.slower_nodes(compiled, reference)
    values["cost_model.residual"] = layers.cost_residual(compiled, estimates)
    return values


def _trace_metrics(rows, untraced_p50: float) -> tuple[dict, dict]:
    """Traced p50, its unattributed part, and the overhead over the
    untraced p50; plus the p50-band means of every part."""
    traced_p50 = harness.median([lat for lat, _ in rows])
    parts = harness.band_means(rows)
    return {
        "trace.p50_ms": traced_p50,
        "trace.unattributed_ms": parts["unattributed"],
        "trace.overhead_p50_ms": traced_p50 - untraced_p50,
    }, parts


# ----------------------------------------------------------------------
# serve-shm-light
# ----------------------------------------------------------------------
def _bitwise(expected):
    """Served output bitwise equal to an in-process run of the request."""
    def check(i: int, out) -> bool:
        ref = expected[i % len(expected)]
        return out.dtype == ref.dtype and out.shape == ref.shape and np.array_equal(out, ref)
    return check


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _close(server: ShardedServer, shm_before: set[str]) -> None:
    """Close ``server`` and fail loudly if anything it started survives."""
    pids = [pid for pid in server.worker_pids() if pid]
    server.close()
    children = multiprocessing.active_children()  # also reaps exited ones
    alive = sorted({pid for pid in pids if _alive(pid)} | {c.pid for c in children})
    leaked = sorted(_shm_segments() - shm_before)
    if alive or leaked:
        raise ResourceLeak(
            f"after close(): worker processes still alive {alive}, "
            f"shm segments left {leaked}"
        )


def _start(r: Run, telemetry) -> tuple[ShardedServer, float]:
    """Construct a server and get one correct reply from every shard;
    returns the server and the seconds that took."""
    p = r.params
    t0 = time.monotonic()
    server = ShardedServer(
        r.spec, num_shards=p["shards"], transport=p["transport"],
        worker_env=WORKER_ENV, telemetry=telemetry,
    )
    outs = []
    try:
        while not all(s["requests"] for s in server.cluster_stats["shards"]):
            if len(outs) >= 20 * p["shards"]:
                raise RuntimeError("a shard never replied during set-up")
            futures = [server.submit(r.pool[0]) for _ in range(p["shards"])]
            outs += [f.result(timeout=REQUEST_TIMEOUT_S) for f in futures]
        t1 = time.monotonic()
    except BaseException:
        server.close()
        raise
    for out in outs:
        if r.check(0, out):
            r.outcomes.ok(t0, t1)
        else:
            r.outcomes.fail("wrong output")
    return server, t1 - t0


def _drive(r: Run, server: ShardedServer, outcomes) -> None:
    """One closed-loop client for ``warmup_s`` (operations checked and
    counted, latencies dropped), then for ``seconds``."""
    pool = r.pool

    def call(i):
        fut = server.submit(pool[i % len(pool)])
        return fut.result(timeout=REQUEST_TIMEOUT_S), getattr(fut, "trace_id", None)

    warm = harness.Outcomes()
    harness.closed_loop(call, r.check, r.params["warmup_s"], warm, 0)
    r.outcomes.absorb(warm)
    harness.closed_loop(call, r.check, r.seconds, outcomes, MIN_OPS)


def _serve(r: Run, trace: bool) -> dict:
    p = r.params
    # expected replies: the same spec built in this process
    reference_session = r.spec.build()
    r.check = _bitwise([reference_session.run(x) for x in r.pool])
    shm_before = _shm_segments()
    setups, server = [], None
    untraced = TelemetryConfig(trace_sample_rate=0.0)
    for k in range(p["setups"]):
        if server is not None:
            _close(server, shm_before)
        server, elapsed = _start(r, untraced)
        setups.append(elapsed)
    outcomes = harness.Outcomes()
    try:
        _drive(r, server, outcomes)
        if trace:
            time.sleep(STATS_SETTLE_S)
            stats = server.cluster_stats
    finally:
        _close(server, shm_before)
    r.outcomes.absorb(outcomes)
    if not trace:
        return e2e_metrics(setups, outcomes, r.outcomes)

    untraced_p50 = harness.median(outcomes.latencies_ms)
    values = dict(LAYER_ZEROS)
    admitted = sum(m["requests"] for m in stats["models"].values())
    values.update({
        "serving.mean_batch": stats["mean_batch"],
        "serving.effective_wait_ms": max(
            (s["serving"] or {}).get("effective_wait_ms", 0.0) for s in stats["shards"]
        ),
        # attempts sent (initial + retries + hedges) per admitted request
        "cluster.attempts_per_request": stats["requests"] / admitted,
        "cluster.shed": stats["shed"],
        "cluster.timed_out": stats["timed_out"],
        "cluster.corrupt": stats["corrupt"],
        "cluster.router_p99_ms": stats["router_p99_ms"],
    })

    # traced run: every request sampled, timelines read back per trace id
    server, _ = _start(r, TelemetryConfig(
        trace_sample_rate=1.0, trace_capacity=TRACE_CAPACITY))
    traced = harness.Outcomes()
    try:
        _drive(r, server, traced)
        timelines = _collect_traces(server, traced.records)
    finally:
        _close(server, shm_before)
    r.outcomes.absorb(traced)

    compiled = layers.NodeTimes()
    rows, batches = [], []
    for (start, end, tid), spans in zip(traced.records, timelines):
        if spans is None:
            continue  # the trace never arrived
        r.log.add(tid, "request", start, end)
        r.log.extend_trace(tid, spans, base_ms=(start - r.log.t0) * 1e3)
        parts = harness.breakdown((end - start) * 1e3, spans)
        if parts is None:
            continue
        batch = next(s["batch"] for s in spans if s["name"] == "execute")
        compiled.add([
            (s["name"][len("layer:"):], s["op"], s["dur_ms"])
            for s in spans if s["name"].startswith("layer:")
        ], batch)
        rows.append(((end - start) * 1e3, parts))
        batches.append(batch)
    if not rows:
        raise RuntimeError("no traced request produced a complete timeline")

    replay = _replay_batches(r, batches)
    reference = layers.profile_reference(reference_session.graph, replay, r.log, -2)
    for x in replay:  # the program's arena under the same batch mix
        reference_session.run(x)
    values.update(_executor_metrics(r, compiled, reference))
    values.update(layers.arena_metrics(reference_session.arena))
    trace_values, parts = _trace_metrics(rows, untraced_p50)
    values.update(trace_values)
    values.update({
        "serving.queue_wait_ms": parts["queue_wait"],
        "serving.execute_ms": parts["execute"],
        "cluster.admission_ms": parts["admission"],
        "cluster.dispatch_ms": parts["dispatch"],
        "transport.self_ms": parts["transport"],
        "worker.worker_queue_ms": parts["worker_queue"],
        "worker.reply_ms": parts["reply"],
    })
    return values


def _collect_traces(server: ShardedServer, records, settle_s: float = 5.0) -> list:
    """Span lists of each record's trace, waiting briefly for worker spans
    (they arrive just after the reply); ``None`` for a missing trace."""
    deadline = time.monotonic() + settle_s
    out = []
    for _, _, tid in records:
        trace = None
        while tid is not None:
            trace = server.get_trace(tid)
            done = trace is not None and any(s["name"] == "reply" for s in trace["spans"])
            if done or time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        out.append(None if trace is None else trace["spans"])
    return out


def _replay_batches(r: Run, batches: list[int]) -> list[np.ndarray]:
    """Inputs of the traced batch sizes, evenly sampled, for in-process
    reference and arena replays."""
    step = max(1, len(batches) // REPLAY_MAX)
    per = r.params["batch"]
    out = []
    for k, n in enumerate(batches[::step][:REPLAY_MAX]):
        parts = [r.pool[(k + j) % len(r.pool)] for j in range(max(1, n // per))]
        out.append(np.concatenate(parts)[:n])
    return out
