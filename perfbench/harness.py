"""Measurement utilities shared by every workload of the benchmark.

Nothing here imports the program under test: percentiles, operation
outcomes, the closed-loop client, span recording and the span-tree
arithmetic (parents by interval containment, self time), and the final
result line.  ``tests/test_perfbench_harness.py`` checks each piece.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager

import numpy as np

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: a percentile is reported only when this many samples lie beyond it
MIN_TAIL_SAMPLES = 10

#: containment slack between span ends, in ms (timestamps are rounded
#: floats; 1 ns keeps touching boundaries from flipping the tree)
_EPS_MS = 1e-6


def valid_name(name: str) -> bool:
    """Metric and workload names: ``[A-Za-z0-9_.-]+``, leading letter or
    digit, at most 64 characters."""
    return bool(NAME_RE.fullmatch(name))


def min_samples_for(q: float) -> int:
    """Smallest sample count that puts ``MIN_TAIL_SAMPLES`` beyond the
    ``q``-th percentile."""
    beyond = 1.0 - q / 100.0
    return 0 if beyond <= 0 else int(np.ceil(MIN_TAIL_SAMPLES / beyond - 1e-9))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), refused with
    ``ValueError`` unless at least ten samples lie beyond it."""
    arr = np.asarray(values, dtype=np.float64)
    need = min_samples_for(q)
    if arr.size == 0 or arr.size < need:
        raise ValueError(
            f"p{q:g} needs at least {need} samples (ten beyond it), got {arr.size}"
        )
    return float(np.percentile(arr, q))


def median(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("median of no samples")
    return float(np.median(arr))


class Outcomes:
    """Tally of operations: ``(start, end, tag)`` of each one that
    returned a correct output, and a count by reason of every one that
    raised, timed out or returned a wrong output."""

    def __init__(self) -> None:
        self.records: list[tuple[float, float, object]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}

    def ok(self, start_s: float, end_s: float, tag=None) -> None:
        self.attempted += 1
        self.records.append((start_s, end_s, tag))

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def absorb(self, other: "Outcomes") -> None:
        """Count another tally's attempts and failures (not its records)."""
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, n in other.errors.items():
            self.errors[reason] = self.errors.get(reason, 0) + n

    @property
    def latencies_ms(self) -> list[float]:
        return [(end - start) * 1e3 for start, end, _ in self.records]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: operations per block of the block statistics (p90 has 20 beyond it)
BLOCK_OPS = 200


def block_stats(records, block: int = BLOCK_OPS) -> dict:
    """p90 latency of consecutive blocks of ``block`` operations (in start
    order), reported as its median over the blocks, so a burst of host
    noise that spoils a few blocks does not move the run's figure; p50
    over all operations; throughput as operations over the span from the
    first start to the last end.  Records are ``(start_s, end_s, tag)``;
    a remainder shorter than a block is left out of the p90."""
    rows = sorted(records, key=lambda rec: rec[0])
    blocks = [rows[k:k + block] for k in range(0, len(rows) - block + 1, block)]
    if not blocks:
        raise ValueError(f"block statistics need at least {block} operations, got {len(rows)}")
    p90 = [percentile([(end - start) * 1e3 for start, end, _ in b], 90) for b in blocks]
    return {
        "throughput_rps": len(rows) / (max(end for _, end, _ in rows) - rows[0][0]),
        "latency_p50_ms": median([(end - start) * 1e3 for start, end, _ in rows]),
        "latency_p90_ms": median(p90),
    }


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
def closed_loop(call, check, seconds: float, outcomes: Outcomes, min_ops: int) -> int:
    """One client issuing ``call(i)`` back to back for ``seconds`` (and at
    least ``min_ops`` operations).  ``call`` returns ``(output, tag)``;
    only the call is timed, ``check(i, output)`` runs after it.  Returns
    the number of operations."""
    start = time.monotonic()
    i = 0
    while True:
        t0 = time.monotonic()
        try:
            out, tag = call(i)
        except Exception as exc:  # typed serving errors count as failures
            outcomes.fail(type(exc).__name__)
        else:
            t1 = time.monotonic()
            if check(i, out):
                outcomes.ok(t0, t1, tag)
            else:
                outcomes.fail("wrong output")
        i += 1
        if i >= min_ops and time.monotonic() - start >= seconds:
            return i


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans recorded around calls into the program, written
    out once when the run ends (``dump``).  Spans of one operation share
    a trace id; times are ``t0_ms``/``dur_ms`` from the log's start, on
    the ``time.monotonic`` clock the program's own spans use."""

    def __init__(self) -> None:
        self.t0 = time.monotonic()
        self.spans: list[dict] = []

    def add(self, trace: int, name: str, start_s: float, end_s: float, **attrs) -> None:
        span = {
            "trace": trace,
            "name": name,
            "t0_ms": (start_s - self.t0) * 1e3,
            "dur_ms": (end_s - start_s) * 1e3,
        }
        span.update(attrs)
        self.spans.append(span)

    @contextmanager
    def span(self, trace: int, name: str, **attrs):
        start = time.monotonic()
        try:
            yield
        finally:
            self.add(trace, name, start, time.monotonic(), **attrs)

    def timed(self, trace: int, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span; returns ``(result, ms)``."""
        start = time.monotonic()
        out = fn(*args)
        end = time.monotonic()
        self.add(trace, name, start, end)
        return out, (end - start) * 1e3

    def extend_trace(self, trace: int, spans: list[dict], base_ms: float = 0.0) -> None:
        """Append program-exported spans (``t0_ms`` relative to their own
        trace start) under ``trace``."""
        for s in spans:
            row = dict(s)
            row["trace"] = trace
            row["t0_ms"] = base_ms + s["t0_ms"]
            self.spans.append(row)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def span_parents(spans: list[dict]) -> list[int | None]:
    """Parent index of each span of one trace, by interval containment:
    the shortest other span whose interval holds this one.  Equal
    intervals nest in list order, so the tree has no cycles."""
    bounds = [(s["t0_ms"], s["t0_ms"] + s["dur_ms"]) for s in spans]
    parents: list[int | None] = []
    for i, (a, b) in enumerate(bounds):
        best = None
        for j, (pa, pb) in enumerate(bounds):
            if j == i or pa > a + _EPS_MS or pb < b - _EPS_MS:
                continue
            dur_i, dur_j = b - a, pb - pa
            if dur_j < dur_i or (dur_j == dur_i and j > i):
                continue  # equal intervals: the earlier span is the parent
            if best is None or dur_j <= bounds[best][1] - bounds[best][0]:
                best = j
        parents.append(best)
    return parents


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    parents = span_parents(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p is not None:
            s = spans[i]
            children.setdefault(p, []).append((s["t0_ms"], s["t0_ms"] + s["dur_ms"]))
    return [
        max(0.0, s["dur_ms"] - _covered(children.get(i, [])))
        for i, s in enumerate(spans)
    ]


#: spans on a served request's blocking path, in order
BLOCKING_PATH = ("admission", "dispatch", "transport", "worker_queue", "queue_wait",
                 "execute", "reply")


def breakdown(latency_ms: float, spans: list[dict]) -> dict | None:
    """Split one served request's latency into self times along
    ``BLOCKING_PATH``.

    The request is the root span (``[0, latency_ms]``) and ``spans``
    are the program's spans of it, relative to its start.  ``layer:``
    spans count toward ``execute``; the root's own self time, and any
    span kind not on the path, is ``unattributed``.  ``None`` when a
    span of the path is missing (trace incomplete)."""
    if not set(BLOCKING_PATH) <= {s["name"] for s in spans}:
        return None
    tree = [{"name": "request", "t0_ms": 0.0, "dur_ms": latency_ms}, *spans]
    parts = dict.fromkeys(("unattributed", *BLOCKING_PATH), 0.0)
    for span, own in zip(tree, self_times(tree)):
        name = "execute" if span["name"].startswith("layer:") else span["name"]
        parts[name if name in parts else "unattributed"] += own
    return parts


def band_means(rows: list[tuple[float, dict]], lo: float = 40.0, hi: float = 60.0) -> dict:
    """Mean of each part over the operations whose latency lies between
    the ``lo`` and ``hi`` percentiles, so the parts add up to (about)
    the median latency."""
    lats = np.array([lat for lat, _ in rows])
    a, b = np.percentile(lats, [lo, hi])
    band = [parts for lat, parts in rows if a <= lat <= b]
    return {k: float(np.mean([p[k] for p in band])) for k in band[0]}


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
def result_line(outcomes: Outcomes, values: dict[str, float], catalogue: list[dict]) -> str:
    """The final JSON object: every metric of ``catalogue`` (name, unit),
    no more and no fewer."""
    names = [m["name"] for m in catalogue]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in catalogue
    }
    return json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": int(outcomes.attempted),
        "failed": int(outcomes.failed),
        "metrics": metrics,
    })
