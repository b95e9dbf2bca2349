"""Micro-batching serving front-end for the compiled runtime.

PatDNN's batched FKW kernels are cheaper per sample at batch 8 than at
batch 1 (every per-node dispatch around the per-sample GEMMs amortises
over the whole batch), but real traffic arrives as
single samples from many concurrent clients.  :class:`MicroBatchServer`
bridges the two: client threads :meth:`~MicroBatchServer.submit`
individual samples (or small batches) and get back
:class:`concurrent.futures.Future`\\ s, while a single dispatcher thread
coalesces queued requests into micro-batches — up to
:attr:`ServingConfig.max_batch` samples, waiting at most
:attr:`ServingConfig.max_wait_ms` for stragglers — runs them through the
shared executor in one call, and scatters the result rows back to each
request's future.

Because all model execution happens on the dispatcher thread against
one shared :class:`~repro.runtime.executor.CompiledExecutor`, the kernel
cache and buffer arena are maximally warm; because the executor stack is
itself thread-safe, callers may *also* bypass the queue and call
``session.run`` directly from other threads (mixed traffic is fine).

Usage::

    from repro.runtime import InferenceSession, MicroBatchServer, ServingConfig

    session = InferenceSession(model, (3, 32, 32), pattern_set=ps,
                               assignments=result.assignments)

    # explicit server ...
    with MicroBatchServer(session.run, ServingConfig(max_batch=8)) as server:
        futures = [server.submit(x) for x in samples]          # many threads
        logits = [f.result() for f in futures]
        print(server.stats.mean_batch)                         # > 1 under load

    # ... or the session's built-in front-end
    fut = session.run_async(sample)                            # lazy server
    logits = fut.result()
    session.close()

Requests whose samples have different (C, H, W) shapes are coalesced
into the same dispatch window but executed as separate shape groups, so
heterogeneous traffic is correct (just not cross-shape batched).

Overload and latency budgets are first-class (SLO-aware admission):

* ``submit(x, timeout=...)`` bounds how long a caller waits for queue
  capacity — a full backlog raises the typed
  :class:`~repro.runtime.resilience.QueueFullError` instead of blocking
  forever (``timeout=None`` keeps the legacy blocking behaviour).
* ``submit(x, deadline=...)`` attaches a latency budget; a request whose
  deadline passes while it waits in the queue is *shed* before dispatch
  with :class:`~repro.runtime.resilience.DeadlineExceededError` — the
  executor never burns cycles on an answer nobody is waiting for.
* :class:`ServingStats` counts ``shed`` (admission refusals) and
  ``timed_out`` (deadline expiries) separately from ``errors``, so
  overload shows up as load shedding in the stats, not as failures.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import weakref
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.metrics import DEFAULT_RESERVOIR, LatencyReservoir
from repro.runtime.resilience import (
    DeadlineExceededError,
    InjectedFaultError,
    QueueFullError,
)
from repro.runtime.telemetry import MetricsRegistry, profile_layers

__all__ = ["ServingConfig", "ServingStats", "MicroBatchServer"]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for the micro-batching dispatcher.

    Attributes:
        max_batch: target samples per dispatched micro-batch; the
            dispatcher stops collecting once the batch reaches this many
            samples (a multi-sample request arriving last may overflow
            it slightly rather than be split).
        max_wait_ms: upper bound on how long the dispatcher waits for
            more requests after the first one arrives — the latency
            price paid for batching opportunity.  0 disables
            coalescing-by-waiting (only requests already queued are
            batched).
        queue_depth: bound on queued requests; ``submit`` blocks once
            the backlog reaches this many (simple backpressure).
        adaptive_wait: load-aware batching window.  When the backlog at
            a window's start is already ``max_batch`` requests deep,
            waiting buys nothing (the batch fills straight from the
            queue), so the effective window halves; a window that
            expires without filling its batch (light load) grows it
            back toward ``max_wait_ms``.  The current effective window
            is exposed as :attr:`ServingStats.effective_wait_ms`.
    """

    max_batch: int = 8
    max_wait_ms: float = 2.0
    queue_depth: int = 1024
    adaptive_wait: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")


#: latency reservoir size (re-exported from :mod:`repro.runtime.metrics`,
#: where the shared sliding-window implementation now lives)
_LATENCY_RESERVOIR = DEFAULT_RESERVOIR


class ServingStats:
    """Counters accumulated by the dispatcher (read any time).

    Registry-backed: every counter/gauge lives in a
    :class:`~repro.runtime.telemetry.MetricsRegistry` (one is created
    per stats object unless an external registry is passed in), so the
    same numbers the legacy attributes expose (``stats.requests``...)
    are also scrapeable as ``serving_*`` Prometheus series and travel
    inside :meth:`snapshot` (the ``"metrics"`` key) to the router, which
    merges worker and router metrics under one namespace.

    All metrics share the registry's reentrant lock, exposed as
    ``_lock``: multi-field updates in the dispatcher and whole-snapshot
    reads (:meth:`snapshot` / ``repr``) take it once, so concurrent
    increments can never produce torn multi-field views.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        labels: dict[str, str] | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: labels stamped on every serving_* series (a multi-tenant
        #: worker passes ``{"model": name}`` so per-model stats share one
        #: registry without colliding)
        self.labels = dict(labels or {})
        # the registry lock is reentrant by design: holding it around a
        # group of metric ops (each re-acquiring internally) makes the
        # group atomic relative to snapshot()
        self._lock = self.registry._lock
        reg, lbl = self.registry, self.labels
        self._requests = reg.counter(
            "serving_requests_total", "requests resolved by the micro-batch dispatcher",
            **lbl)
        self._samples = reg.counter(
            "serving_samples_total", "input samples executed (batch rows)", **lbl)
        self._batches = reg.counter(
            "serving_batches_total", "micro-batches dispatched to the runner", **lbl)
        self._errors = reg.counter(
            "serving_errors_total", "requests resolved with an execution error", **lbl)
        self._shed = reg.counter(
            "serving_shed_total", "admission refusals (queue full past timeout)", **lbl)
        self._timed_out = reg.counter(
            "serving_timed_out_total", "requests shed after their deadline expired", **lbl)
        self._max_batch_seen = reg.gauge(
            "serving_max_batch_seen", "largest micro-batch dispatched so far", **lbl)
        self._effective_wait_ms = reg.gauge(
            "serving_effective_wait_ms", "current adaptive coalescing window (ms)", **lbl)
        self._latency_hist = reg.histogram(
            "serving_request_latency_ms", "submit-to-resolution request latency (ms)",
            **lbl)
        # Sliding-window reservoir of per-request latencies (queue wait +
        # dispatch + kernel time, submit to resolution) — the shared
        # implementation from repro.runtime.metrics, also used by the
        # router's per-shard attempt tracking in repro.runtime.cluster.
        # Kept alongside the histogram: percentiles over a *window*
        # describe recent traffic; cumulative buckets describe lifetime.
        self._latency = LatencyReservoir()

    # -- legacy attribute views (read any time) ------------------------
    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def samples(self) -> int:
        return int(self._samples.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def errors(self) -> int:
        return int(self._errors.value)

    @property
    def shed(self) -> int:
        """Admission refusals: ``submit`` gave up waiting for queue
        capacity (:class:`QueueFullError`) — distinct from ``errors``."""
        return int(self._shed.value)

    @property
    def timed_out(self) -> int:
        """Deadline expiries: requests dropped (queued past their budget)
        with :class:`DeadlineExceededError` before reaching the runner."""
        return int(self._timed_out.value)

    @property
    def max_batch_seen(self) -> int:
        return int(self._max_batch_seen.value)

    @property
    def effective_wait_ms(self) -> float:
        """Current effective coalescing window (== ``max_wait_ms`` unless
        ``adaptive_wait`` has shrunk it under sustained backlog)."""
        return self._effective_wait_ms.value

    @effective_wait_ms.setter
    def effective_wait_ms(self, value: float) -> None:
        self._effective_wait_ms.set(value)

    @property
    def mean_batch(self) -> float:
        """Average samples per dispatched batch (1.0 = no coalescing)."""
        with self._lock:
            samples, batches = self._samples.value, self._batches.value
        return samples / batches if batches else 0.0

    # -- mutation (dispatcher side) ------------------------------------
    def count(self, **deltas: int) -> None:
        """Atomically bump named counters (``count(shed=1)``)."""
        with self._lock:
            for name, n in deltas.items():
                getattr(self, f"_{name}").inc(n)

    def record_batch(self, n_requests: int, n_samples: int,
                     latencies_ms: list[float]) -> None:
        """Record one successfully dispatched micro-batch atomically."""
        with self._lock:
            self._requests.inc(n_requests)
            self._samples.inc(n_samples)
            self._batches.inc(1)
            if n_samples > self._max_batch_seen.value:
                self._max_batch_seen.set(n_samples)
            for ms in latencies_ms:
                self._latency.record(ms)
                self._latency_hist.observe(ms)

    # -- latency views -------------------------------------------------
    @property
    def _latency_ring(self) -> np.ndarray:
        """The reservoir's backing ring (tests / introspection)."""
        return self._latency._ring

    def _record_latency(self, latency_ms: float) -> None:
        """Append one request latency (reservoir has its own lock)."""
        self._latency.record(latency_ms)
        self._latency_hist.observe(latency_ms)

    def _latency_percentile(self, q: float) -> float:
        return self._latency.percentile(q)

    @property
    def p50_ms(self) -> float:
        """Median request latency over the sliding window (0.0 = none)."""
        return self._latency.p50_ms

    @property
    def p95_ms(self) -> float:
        """95th-percentile request latency over the sliding window."""
        return self._latency.p95_ms

    @property
    def p99_ms(self) -> float:
        """99th-percentile request latency over the sliding window."""
        return self._latency.p99_ms

    def snapshot(self) -> dict:
        """Picklable point-in-time copy (for cross-process reporting).

        Taken under ``_lock`` as one atomic read — concurrent dispatcher
        increments cannot produce an inconsistent tuple (e.g. ``samples``
        from before a batch and ``batches`` from after it).  The
        ``"metrics"`` key carries the full registry snapshot so the
        router can merge this worker's series into its ``/metrics`` page.
        """
        with self._lock:
            counters = {
                "requests": int(self._requests.value),
                "samples": int(self._samples.value),
                "batches": int(self._batches.value),
                "max_batch_seen": int(self._max_batch_seen.value),
                "errors": int(self._errors.value),
                "shed": int(self._shed.value),
                "timed_out": int(self._timed_out.value),
                "effective_wait_ms": self._effective_wait_ms.value,
                "metrics": self.registry.snapshot(),
            }
        counters["mean_batch"] = (
            counters["samples"] / counters["batches"] if counters["batches"] else 0.0
        )
        lat = self._latency.snapshot()
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"):
            counters[key] = lat[key]
        return counters

    def __repr__(self) -> str:
        with self._lock:  # one atomic multi-field read, like snapshot()
            return (
                f"ServingStats(requests={self._requests.value}, "
                f"samples={self._samples.value}, batches={self._batches.value}, "
                f"errors={self._errors.value}, shed={self._shed.value}, "
                f"timed_out={self._timed_out.value})"
            )


class _Request:
    __slots__ = ("x", "n", "future", "t_submit", "deadline_at", "fault", "trace")

    def __init__(
        self,
        x: np.ndarray,
        n: int,
        future: Future,
        deadline_at: float | None = None,
        fault: str | None = None,
        trace=None,
    ) -> None:
        self.x = x
        self.n = n
        self.future = future
        self.t_submit = time.monotonic()
        #: absolute ``time.monotonic()`` deadline (None = no budget)
        self.deadline_at = deadline_at
        #: fault-injection decision made at submit time (None = serve)
        self.fault = fault
        #: span sink for a sampled request (a
        #: :class:`~repro.runtime.telemetry.SpanCollector` /
        #: :class:`~repro.runtime.telemetry.Trace`, or None = untraced);
        #: the dispatcher records queue_wait / execute / layer:* spans
        self.trace = trace


_SHUTDOWN = object()


def _fail_pending(q: queue.Queue, capacity: threading.BoundedSemaphore) -> None:
    """Fail whatever is still queued after the server object itself died."""
    while True:
        try:
            item = q.get_nowait()
        except queue.Empty:
            return
        if item is _SHUTDOWN:
            continue
        capacity.release()
        if item.future.set_running_or_notify_cancel():
            item.future.set_exception(
                RuntimeError("MicroBatchServer was garbage-collected with requests pending")
            )


def _dispatch_worker(server_ref, q: queue.Queue, capacity: threading.BoundedSemaphore) -> None:
    """Dispatcher thread body.

    Module-level on purpose: the thread must not keep the server alive.
    It blocks on the bare queue holding only a weak server reference,
    takes a strong reference per dispatch window, and exits when it sees
    the shutdown sentinel — enqueued by ``close()`` or by the server's
    ``weakref.finalize`` when the object is garbage-collected.
    """
    while True:
        item = q.get()
        server = server_ref()
        if server is None:
            if item is not _SHUTDOWN:
                q.put(item)  # fail it along with the rest of the backlog
            _fail_pending(q, capacity)
            return
        if item is _SHUTDOWN:
            server._drain_remaining()
            return
        shutdown = server._collect_and_dispatch(item)
        del server  # drop the strong ref before blocking on the queue again
        if shutdown:
            return


class MicroBatchServer:
    """Coalesce concurrent inference requests into micro-batches.

    Args:
        runner: batched inference callable ``(N, C, H, W) -> (N, ...)``
            — typically ``session.run`` or ``executor.run``.  Executed
            only on the dispatcher thread.
        config: batching knobs (:class:`ServingConfig`); a default one
            is used when omitted.
        faults: optional deterministic :class:`~repro.runtime.faults.FaultPlan`
            for chaos testing — ``crash`` decisions raise
            :class:`InjectedFaultError` on the affected requests,
            ``stall``/``slow`` delay their dispatch window (``corrupt``
            and ``slot_exhaust`` are transport-level kinds and no-ops
            here).  ``None`` (production) injects nothing.
        stats: externally built :class:`ServingStats` (a multi-tenant
            worker passes one per model, labeled, over a shared
            registry); a private unlabeled one is created when omitted.

    The server is a context manager; :meth:`close` drains the queue and
    joins the dispatcher.  ``submit`` after close raises
    ``RuntimeError``.
    """

    def __init__(
        self,
        runner: Callable[[np.ndarray], np.ndarray],
        config: ServingConfig | None = None,
        faults: FaultPlan | None = None,
        stats: ServingStats | None = None,
    ) -> None:
        if not callable(runner):
            run = getattr(runner, "run", None)
            if not callable(run):
                raise TypeError("runner must be callable or expose a .run method")
            runner = run
        self._runner = runner
        self.config = config if config is not None else ServingConfig()
        self.stats = stats if stats is not None else ServingStats()
        self._injector = FaultInjector(faults) if faults is not None else None
        self._fault_seq = itertools.count()
        # effective coalescing window, adapted per dispatch window when
        # config.adaptive_wait is set (dispatcher-thread-only state)
        self._wait_ms = self.config.max_wait_ms
        self.stats.effective_wait_ms = self._wait_ms
        # Backpressure lives in the semaphore, not the queue: submit
        # blocks on _capacity *outside* _submit_lock, so a full backlog
        # can never wedge the lock and stop close() from closing.  The
        # queue itself is unbounded; put_nowait under the lock cannot
        # block.  The dispatcher releases one permit per request taken.
        self._queue: queue.Queue = queue.Queue()
        self._capacity = threading.BoundedSemaphore(self.config.queue_depth)
        self._closed = threading.Event()
        # serialises the closed-check+enqueue in submit against close()
        # setting the flag: once close() holds this lock, no request can
        # slip into the queue behind the shutdown sentinel and hang.
        self._submit_lock = threading.Lock()
        # The worker holds only a *weak* reference to the server (strong
        # ref taken per window, dropped before each blocking get), and
        # the finalizer wakes it with the shutdown sentinel when the
        # server is garbage-collected — a server dropped without close()
        # must not leak its dispatcher thread or pin the executor/arena.
        self._dispatcher = threading.Thread(
            target=_dispatch_worker,
            args=(weakref.ref(self), self._queue, self._capacity),
            name="repro-microbatch-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()
        self._finalizer = weakref.finalize(self, self._queue.put, _SHUTDOWN)

    # ------------------------------------------------------------------
    def submit(
        self,
        x: np.ndarray,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
        deadline_at: float | None = None,
        trace=None,
    ) -> Future:
        """Enqueue one request; returns a future of the logits.

        ``x`` is one ``(C, H, W)`` sample or a small ``(N, C, H, W)``
        batch.  The future resolves to the corresponding ``(N, ...)``
        output rows (a bare sample is promoted to ``N == 1``, matching
        ``InferenceSession.run``).

        Args:
            timeout: seconds to wait for queue capacity when
                ``queue_depth`` requests are already backed up.  ``None``
                (default) blocks indefinitely — the pre-existing
                behaviour; any finite value raises the typed
                :class:`QueueFullError` once exhausted (counted under
                ``stats.shed``).
            deadline: latency budget in seconds from now.  The request
                is shed with :class:`DeadlineExceededError` if the
                budget expires before dispatch (``stats.timed_out``), and
                admission itself never waits past the budget.
            deadline_at: absolute ``time.monotonic()`` deadline —
                overrides ``deadline``; used for budgets propagated from
                another process/tier.
            trace: optional span sink
                (:class:`~repro.runtime.telemetry.SpanCollector`) for a
                sampled request — the dispatcher records ``queue_wait``,
                ``execute``, and per-layer ``layer:<node>`` spans into
                it.  ``None`` (default) records nothing.
        """
        x = np.asarray(x)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4:
            raise ValueError(f"expected (C, H, W) or (N, C, H, W) input, got shape {x.shape}")
        if deadline_at is None and deadline is not None:
            deadline_at = time.monotonic() + deadline
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:  # dead on arrival: shed at the door
                self.stats.count(timed_out=1)
                raise DeadlineExceededError(
                    "request deadline already expired at submission"
                )
            # never wait for capacity past the point the answer is useless
            timeout = remaining if timeout is None else min(timeout, remaining)
        future: Future = Future()
        fault = self._injector.decide(next(self._fault_seq)) if self._injector else None
        # backpressure: block outside the lock (bounded by timeout/deadline)
        if not self._capacity.acquire(timeout=timeout):
            self.stats.count(shed=1)
            raise QueueFullError(
                f"queue held {self.config.queue_depth} requests for "
                f"{timeout:.3f} s; request shed"
            )
        try:
            with self._submit_lock:
                if self._closed.is_set():
                    raise RuntimeError("MicroBatchServer is closed")
                self._queue.put_nowait(
                    _Request(x, x.shape[0], future, deadline_at, fault, trace)
                )
        except BaseException:
            self._capacity.release()  # permit travels with the request
            raise
        return future

    def run(self, x: np.ndarray, timeout: float | None = None, **submit_kwargs) -> np.ndarray:
        """Synchronous convenience: ``submit(x).result(timeout)``."""
        return self.submit(x, **submit_kwargs).result(timeout)

    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Stop accepting requests, drain the backlog, join the thread."""
        with self._submit_lock:
            if self._closed.is_set():
                return
            self._closed.set()
        self._finalizer.detach()
        # every request that passed submit's closed-check is already in
        # the queue, ahead of this sentinel — none can be stranded
        self._queue.put(_SHUTDOWN)
        self._dispatcher.join(timeout)

    def __enter__(self) -> MicroBatchServer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _collect_and_dispatch(self, first: _Request) -> bool:
        """One dispatch window, seeded by ``first``; True means shutdown."""
        self._capacity.release()
        depth_at_start = self._queue.qsize()
        batch = [first]
        samples = first.n
        deadline = time.monotonic() + self._wait_ms / 1e3
        shutdown = False
        expired = False
        while samples < self.config.max_batch:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    nxt = self._queue.get(timeout=remaining)
                else:  # window over: take only what is already queued
                    nxt = self._queue.get_nowait()
            except queue.Empty:
                expired = True
                break
            if nxt is _SHUTDOWN:
                shutdown = True
                break
            self._capacity.release()
            batch.append(nxt)
            samples += nxt.n
        self._adapt_wait(depth_at_start, samples, expired)
        self._dispatch(batch)
        if shutdown:
            self._drain_remaining()
        return shutdown

    def _adapt_wait(self, depth_at_start: int, samples: int, expired: bool) -> None:
        """Load-aware window sizing (dispatcher thread only).

        A backlog already ``max_batch`` requests deep at window start
        means waiting is pure latency (the batch fills straight from the
        queue) — halve the window.  A window that expired with an
        unfilled batch means load is light and batching opportunity is
        being left on the table — grow it back toward the configured
        maximum (additive term so growth restarts from a zero window).
        """
        cfg = self.config
        if not cfg.adaptive_wait or cfg.max_wait_ms == 0:
            return
        if depth_at_start >= cfg.max_batch:
            self._wait_ms *= 0.5
            if self._wait_ms < 1e-3:  # below clock resolution: stop pretending
                self._wait_ms = 0.0
        elif expired and samples < cfg.max_batch:
            self._wait_ms = min(cfg.max_wait_ms, self._wait_ms * 1.5 + 0.05)
        else:
            return
        self.stats.effective_wait_ms = self._wait_ms

    def _drain_remaining(self) -> None:
        """Serve everything still queued at shutdown (no coalescing wait).

        The backlog is dispatched in ``max_batch``-sized chunks — at the
        default ``queue_depth`` a single concatenated mega-batch would be
        a large transient allocation (and a batch size the arena scratch
        was never warmed for).
        """
        chunk: list[_Request] = []
        samples = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            self._capacity.release()
            chunk.append(item)
            samples += item.n
            if samples >= self.config.max_batch:
                self._dispatch(chunk)
                chunk, samples = [], 0
        if chunk:
            self._dispatch(chunk)

    def _shed_expired(self, batch: list[_Request]) -> list[_Request]:
        """Drop requests whose deadline passed while queued (SLO-aware
        admission): their futures get the typed error *now* and the
        runner never executes work nobody is waiting for."""
        now = time.monotonic()
        live: list[_Request] = []
        expired: list[_Request] = []
        for req in batch:
            if req.deadline_at is not None and now >= req.deadline_at:
                expired.append(req)
            else:
                live.append(req)
        if expired:
            self.stats.count(timed_out=len(expired))
            for req in expired:
                if req.future.set_running_or_notify_cancel():
                    req.future.set_exception(
                        DeadlineExceededError(
                            f"request queued {(now - req.t_submit) * 1e3:.1f} ms, "
                            "past its deadline; shed before dispatch"
                        )
                    )
        return live

    def _dispatch(self, batch: list[_Request]) -> None:
        """Group a dispatch window by sample shape, run, scatter results."""
        batch = self._shed_expired(batch)
        # Claim every future first: set_running_or_notify_cancel() returns
        # False for a future the client already cancelled (dropped here)
        # and transitions the rest to RUNNING, after which a racing
        # cancel() can no longer succeed — set_result/set_exception below
        # cannot hit InvalidStateError and kill the dispatcher.
        batch = [req for req in batch if req.future.set_running_or_notify_cancel()]
        # group by sample shape AND dtype: concatenating mixed dtypes
        # would silently promote one client's request because of what
        # unrelated traffic happened to share its dispatch window
        groups: dict[tuple, list[_Request]] = {}
        for req in batch:
            groups.setdefault((req.x.shape[1:], req.x.dtype.str), []).append(req)
        for group in groups.values():
            # The whole group — concatenate, run, scatter — is guarded:
            # any failure (runner raised, runner returned garbage the
            # scatter chokes on, MemoryError in concatenate) resolves
            # every not-yet-resolved future instead of killing the
            # dispatcher thread with clients blocked forever.
            try:
                if self._injector is not None:
                    # injected chaos: delays first (stall/slow), then a
                    # crash decision fails the group with the typed error
                    for req in group:
                        self._injector.apply_delay(req.fault)
                    if any(req.fault == "crash" for req in group):
                        raise InjectedFaultError(
                            "injected crash (FaultPlan) in dispatch window"
                        )
                xs = group[0].x if len(group) == 1 else np.concatenate([r.x for r in group])
                traced = [req for req in group if req.trace is not None]
                exec_start = time.monotonic()
                for req in traced:
                    req.trace.add("queue_wait", req.t_submit, exec_start)
                if traced:
                    # ambient per-layer hook: the executor times each graph
                    # node into layer_sink while any request is traced
                    layer_sink: list = []
                    with profile_layers(layer_sink):
                        out = self._runner(xs)
                else:
                    out = self._runner(xs)
                exec_end = time.monotonic()
                for req in traced:
                    req.trace.add("execute", exec_start, exec_end, batch=int(xs.shape[0]))
                    for name, op, t0, t1 in layer_sink:
                        req.trace.add(f"layer:{name}", t0, t1, op=op)
                if out.shape[0] != xs.shape[0]:
                    # a wrong leading dim would not choke the scatter —
                    # it would silently hand co-batched clients truncated
                    # or empty rows; make it an error on every future
                    raise ValueError(
                        f"runner returned {out.shape[0]} rows for a batch of "
                        f"{xs.shape[0]} samples"
                    )
                offset = 0
                for req in group:
                    # copy the rows so one request's result doesn't pin
                    # the whole micro-batch array in memory
                    rows = out[offset : offset + req.n]
                    offset += req.n
                    req.future.set_result(rows.copy() if len(group) > 1 else rows)
                resolved = time.monotonic()
                self.stats.record_batch(
                    len(group),
                    int(xs.shape[0]),
                    [(resolved - req.t_submit) * 1e3 for req in group],
                )
            except BaseException as exc:  # propagate to every waiting client
                self.stats.count(errors=len(group))
                for req in group:
                    if not req.future.done():
                        req.future.set_exception(exc)
