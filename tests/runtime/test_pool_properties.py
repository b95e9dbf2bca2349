"""Pooling properties: exact against a naive per-window loop on any layout.

``ops._pool`` reduces over strided window slices, so its speed and its
result must not depend on the memory layout it receives: NCHW-contiguous,
channels-last strided and float64 inputs all give the same float32
output, bitwise for max pooling.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.ir import Node, OpKind
from repro.runtime.ops import eval_node

LAYOUTS = ("nchw", "channels_last", "float64")


def _in_layout(x: np.ndarray, layout: str) -> np.ndarray:
    if layout == "channels_last":
        # same logical NCHW array, channels fastest in memory
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "float64":
        return x.astype(np.float64)
    return x


def _pool(x: np.ndarray, reducer: str, k: int, s: int, p: int) -> np.ndarray:
    op = OpKind.MAXPOOL if reducer == "max" else OpKind.AVGPOOL
    return eval_node(Node("pool", op, attrs={"kernel_size": k, "stride": s, "padding": p}), [x])


def _naive(x: np.ndarray, reducer: str, k: int, s: int, p: int) -> np.ndarray:
    fill = -np.inf if reducer == "max" else 0.0
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=fill)
    n, c, h, w = xp.shape
    ho, wo = (h - k) // s + 1, (w - k) // s + 1
    out = np.empty((n, c, ho, wo), np.float64)
    for i in range(ho):
        for j in range(wo):
            win = xp[:, :, i * s : i * s + k, j * s : j * s + k].astype(np.float64)
            out[:, :, i, j] = win.max(axis=(2, 3)) if reducer == "max" else win.mean(axis=(2, 3))
    return out.astype(np.float32)


@st.composite
def _pool_case(draw):
    k = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    p = draw(st.integers(0, 1))
    h = draw(st.integers(max(1, k - 2 * p), 9))
    w = draw(st.integers(max(1, k - 2 * p), 9))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    x = np.random.default_rng(seed).standard_normal((n, c, h, w)).astype(np.float32)
    return x, k, s, p


@settings(max_examples=60, deadline=None)
@given(_pool_case(), st.sampled_from(LAYOUTS))
def test_max_pool_is_bitwise_the_naive_window_max(case, layout):
    x, k, s, p = case
    got = _pool(_in_layout(x, layout), "max", k, s, p)
    want = _naive(x, "max", k, s, p)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@settings(max_examples=60, deadline=None)
@given(_pool_case(), st.sampled_from(LAYOUTS))
def test_avg_pool_matches_the_naive_window_mean(case, layout):
    x, k, s, p = case
    got = _pool(_in_layout(x, layout), "mean", k, s, p)
    want = _naive(x, "mean", k, s, p)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * float(np.abs(x).max()))


@settings(max_examples=40, deadline=None)
@given(_pool_case(), st.sampled_from(("max", "mean")), st.sampled_from(LAYOUTS))
def test_pool_is_bitwise_batch_invariant(case, reducer, layout):
    x, k, s, p = case
    x = _in_layout(x, layout)
    whole = _pool(x, reducer, k, s, p)
    for i in range(x.shape[0]):
        alone = _pool(x[i : i + 1], reducer, k, s, p)
        np.testing.assert_array_equal(whole[i : i + 1].view(np.uint32), alone.view(np.uint32))


@settings(max_examples=40, deadline=None)
@given(_pool_case(), st.sampled_from(("max", "mean")))
def test_pool_result_does_not_depend_on_layout(case, reducer):
    x, k, s, p = case
    base = _pool(x, reducer, k, s, p)
    other = _pool(_in_layout(x, "channels_last"), reducer, k, s, p)
    np.testing.assert_array_equal(base.view(np.uint32), other.view(np.uint32))
