"""Self-tests of the benchmark harness (no server is started).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert harness.min_samples_for(50) == 20
    assert harness.min_samples_for(90) == 100
    assert harness.min_samples_for(99) == 1000
    with pytest.raises(ValueError, match="p90 needs at least 100"):
        harness.percentile(range(99), 90)
    assert harness.percentile(range(100), 90) == pytest.approx(np.percentile(range(100), 90))
    with pytest.raises(ValueError):
        harness.percentile(range(999), 99)
    harness.percentile(range(1000), 99)


def test_block_stats_take_the_median_over_blocks():
    # 5 blocks of 200 ops, 1 ms apart; block 3 is a noise burst (50x slower)
    records = []
    for k in range(1000):
        lat = 0.05 if k // 200 == 3 else 0.001
        records.append((k * 0.001, k * 0.001 + lat, None))
    stats = harness.block_stats(records)
    assert stats["latency_p90_ms"] == pytest.approx(1.0)
    assert stats["latency_p50_ms"] == pytest.approx(1.0)
    assert stats["throughput_rps"] == pytest.approx(1000 / 1.0, rel=0.01)
    with pytest.raises(ValueError, match="at least 200"):
        harness.block_stats(records[:199])


def test_percentile_and_median_refuse_no_samples():
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.median([])


# ----------------------------------------------------------------------
# span trees
# ----------------------------------------------------------------------
def _span(name, t0, t1):
    return {"name": name, "t0_ms": float(t0), "dur_ms": float(t1 - t0)}


def test_parents_by_containment_and_self_time():
    spans = [
        _span("root", 0, 10),
        _span("a", 1, 4),
        _span("a.x", 2, 3),
        _span("b", 5, 9),
        _span("b.x", 5, 7),
        _span("b.y", 6, 8),  # overlaps its sibling: coverage is a union
    ]
    assert harness.span_parents(spans) == [None, 0, 1, 0, 3, 3]
    assert harness.self_times(spans) == pytest.approx([3, 2, 1, 1, 2, 2])


def test_equal_intervals_nest_in_list_order():
    spans = [_span("outer", 0, 5), _span("inner", 0, 5), _span("innermost", 0, 5)]
    assert harness.span_parents(spans) == [None, 0, 1]
    assert harness.self_times(spans) == pytest.approx([0, 0, 5])


def test_breakdown_accounts_for_the_whole_latency():
    spans = [
        _span("admission", 0.1, 0.5),
        _span("dispatch", 0.2, 0.4),
        _span("transport", 0.5, 4.0),
        _span("worker_queue", 0.5, 0.7),
        _span("queue_wait", 0.7, 2.0),
        _span("execute", 2.0, 3.5),
        _span("layer:conv_0", 2.1, 3.0),
        _span("reply", 3.5, 3.8),
    ]
    parts = harness.breakdown(4.5, spans)
    assert parts == pytest.approx({
        "unattributed": 0.6, "admission": 0.2, "dispatch": 0.2, "transport": 0.2,
        "worker_queue": 0.2, "queue_wait": 1.3, "execute": 1.5, "reply": 0.3,
    })
    assert sum(parts.values()) == pytest.approx(4.5)
    assert harness.breakdown(4.5, [s for s in spans if s["name"] != "reply"]) is None


def test_band_means_average_the_middle_of_the_distribution():
    rows = [(float(lat), {"x": float(lat) / 2}) for lat in range(1, 101)]
    assert harness.band_means(rows)["x"] == pytest.approx(25.25)


def test_span_log_round_trip(tmp_path):
    log = harness.SpanLog()
    with log.span(1, "outer"):
        _, ms = log.timed(1, "inner", sum, [1, 2])
    log.extend_trace(2, [_span("remote", 0, 1)], base_ms=5.0)
    path = tmp_path / "spans.jsonl"
    log.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["inner", "outer", "remote"]
    assert rows[2]["trace"] == 2 and rows[2]["t0_ms"] == 5.0
    assert ms >= 0 and rows[1]["dur_ms"] >= rows[0]["dur_ms"]


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_name_validity():
    for good in ("session-vgg", "latency_p50_ms", "cluster.router_p99_ms", "9lives"):
        assert harness.valid_name(good)
    for bad in ("", "a b", "-lead", ".lead", "x" * 65, "p99/ms", "naïve"):
        assert not harness.valid_name(bad)


def test_benchmark_json_names_are_valid_and_unique():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(harness.valid_name(n) for n in names + metrics)
    assert len(set(names)) == len(names) and len(set(metrics)) == len(metrics)
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_result_line_reports_exactly_the_catalogue():
    catalogue = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]
    outcomes = harness.Outcomes()
    outcomes.ok(0.0, 0.001)
    outcomes.fail("wrong output")
    res = json.loads(harness.result_line(outcomes, {"a_ms": 1.5, "b": 2}, catalogue))
    assert res == {
        "correct": False, "attempted": 2, "failed": 1,
        "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}, "b": {"value": 2.0, "unit": "count"}},
    }
    with pytest.raises(RuntimeError, match="missing"):
        harness.result_line(outcomes, {"a_ms": 1.0}, catalogue)
    with pytest.raises(RuntimeError, match="unexpected"):
        harness.result_line(outcomes, {"a_ms": 1.0, "b": 1, "c": 1}, catalogue)


# ----------------------------------------------------------------------
# output checks in the load generators
# ----------------------------------------------------------------------
class FakeServer:
    """Replies ``x * 2`` at once; request ``corrupt_at`` gets one flipped
    bit and request ``raise_at`` a typed error."""

    def __init__(self, corrupt_at=None, raise_at=None):
        self.corrupt_at, self.raise_at = corrupt_at, raise_at
        self.n = 0

    def submit(self, x):
        k, self.n = self.n, self.n + 1
        fut = Future()
        if k == self.raise_at:
            fut.set_exception(TimeoutError("injected"))
            return fut
        out = x * 2
        if k == self.corrupt_at:
            out = out.copy()
            out.view(np.uint32)[0, 0] ^= 1
        fut.set_result(out)
        return fut


def test_corrupted_and_raised_replies_count_in_error_rate():
    pool = [np.full((1, 4), i, np.float32) for i in range(1, 5)]
    expected = [x * 2 for x in pool]
    server = FakeServer(corrupt_at=3, raise_at=7)
    outcomes = harness.Outcomes()
    n = harness.closed_loop(
        lambda i: (server.submit(pool[i % 4]).result(), None),
        lambda i, out: np.array_equal(out, expected[i % 4]),
        0.0, outcomes, min_ops=50,
    )
    assert n == outcomes.attempted == 50
    assert outcomes.failed == 2
    assert outcomes.errors == {"wrong output": 1, "TimeoutError": 1}
    assert outcomes.error_rate == pytest.approx(2 / 50)
    assert len(outcomes.latencies_ms) == 48


def test_session_check_tolerates_rounding_not_errors():
    pytest.importorskip("repro")
    import workloads

    ref = np.array([[1e-3, -2e-3, 5e-4]], np.float32)
    check = workloads._close_to([ref])
    assert check(0, ref + np.float32(1e-9))
    assert not check(0, ref * 1.01)
    assert not check(0, ref[:, :2])
    bitwise = workloads._bitwise([ref])
    assert bitwise(0, ref.copy())
    assert not bitwise(0, ref + np.float32(1e-9))
    assert not bitwise(0, ref.astype(np.float64))


def test_workloads_match_benchmark_json():
    pytest.importorskip("repro")
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
