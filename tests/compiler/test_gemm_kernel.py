"""Properties of the default ``gemm`` kernel: one gather plus one GEMM per
sample over the stacked pattern-union matrix.

The kernel writes its output without zeroing it first and gathers into a
reused column scratch, so beyond accuracy against the dense reference the
properties pin what that makes fragile: recycled (garbage-filled) arena
buffers, empty and partial pattern unions, bitwise batch-invariance and
stateless scratch reuse across calls of different shapes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.codegen import generate_kernel, generate_source
from repro.compiler.storage import FKWLayer
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_connectivity, project_kernel_pattern
from repro.runtime.arena import BufferArena
from repro.runtime.ops import _apply_activation, conv2d


def _layer(seed: int, f: int, c: int, num_patterns: int, keep_frac: float):
    rng = np.random.default_rng(seed)
    candidates = enumerate_candidate_patterns()
    picks = rng.choice(len(candidates), size=num_patterns, replace=False)
    ps = PatternSet([candidates[i] for i in sorted(picks)])
    w = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
    w, assignment = project_kernel_pattern(w, ps)
    w, mask = project_connectivity(w, max(1, int(round(f * c * keep_frac))))
    return w, FKWLayer.from_pruned(w, assignment * mask, ps), rng


def _reference(x, w, bias, stride, padding, activation):
    return _apply_activation(conv2d(x, w, bias, stride, padding), activation, inplace=True)


def _run(fn, x, arena):
    """One call as the executor makes it: copy the result out of arena
    memory, then hand every buffer back for the next call."""
    if arena is None:
        return fn(x)
    out = fn(x, arena=arena).copy()
    arena.reclaim()
    return out


def _poison(arena, *shapes):
    """Leave NaN-filled float32 buffers of ``shapes`` in the arena's free
    pool, so a kernel that relies on zeroed scratch reads garbage."""
    bufs = [arena.acquire(shape) for shape in shapes]
    for buf in bufs:
        buf.fill(np.nan)
        arena.release(buf)


@st.composite
def _conv_case(draw):
    f = draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, 3 - 2 * padding), 9))
    w = draw(st.integers(max(1, 3 - 2 * padding), 9))
    n = draw(st.integers(1, 8))
    layer = _layer(
        draw(st.integers(0, 2**16)), f, c,
        num_patterns=draw(st.integers(1, 8)),
        keep_frac=draw(st.floats(0.1, 1.0)),
    )
    return layer, (n, c, h, w), stride, padding


@settings(max_examples=60, deadline=None)
@given(
    _conv_case(),
    st.booleans(),
    st.sampled_from([None, "relu", "relu6"]),
    st.booleans(),
)
def test_gemm_matches_dense_conv(case, with_bias, activation, with_arena):
    (w, fkw, rng), shape, stride, padding = case
    x = rng.standard_normal(shape).astype(np.float32) * 3.0
    bias = rng.standard_normal(w.shape[0]).astype(np.float32) * 4.0 if with_bias else None
    fn = generate_kernel(fkw, stride, padding, "gemm", bias=bias, activation=activation)
    arena = BufferArena() if with_arena else None
    want = _reference(x, w, bias, stride, padding, activation)
    if arena is not None:
        _poison(arena, want.shape)
    got = _run(fn, x, arena)
    assert got.dtype == np.float32 and got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * scale)


@settings(max_examples=40, deadline=None)
@given(_conv_case(), st.booleans(), st.sampled_from([None, "relu", "relu6"]))
def test_gemm_is_bitwise_batch_invariant(case, with_arena, activation):
    (w, fkw, rng), shape, stride, padding = case
    x = rng.standard_normal(shape).astype(np.float32)
    bias = rng.standard_normal(w.shape[0]).astype(np.float32)
    fn = generate_kernel(fkw, stride, padding, "gemm", bias=bias, activation=activation)
    arena = BufferArena() if with_arena else None
    whole = _run(fn, x, arena)
    for i in range(x.shape[0]):
        alone = _run(fn, x[i : i + 1], arena)
        np.testing.assert_array_equal(whole[i : i + 1].view(np.uint32), alone.view(np.uint32))


@settings(max_examples=30, deadline=None)
@given(_conv_case(), st.integers(0, 2**16))
def test_reused_arena_scratch_carries_no_state(case, other_seed):
    (w, fkw, rng), shape, stride, padding = case
    x = rng.standard_normal(shape).astype(np.float32)
    n, c, h, wd = shape
    # same channels, another batch and spatial size: other scratch shapes
    other = np.random.default_rng(other_seed).standard_normal((n % 3 + 1, c, h + 2, wd + 1)).astype(np.float32)
    fn = generate_kernel(fkw, stride, padding, "gemm", activation="relu")
    arena = BufferArena()
    first = _run(fn, x, arena)
    _run(fn, other, arena)
    _run(fn, x[:1], arena)
    again = _run(fn, x, arena)
    np.testing.assert_array_equal(first.view(np.uint32), again.view(np.uint32))
    np.testing.assert_array_equal(first.view(np.uint32), _run(fn, x, None).view(np.uint32))


def test_fully_pruned_layer_returns_bias_plus_activation_only():
    f, c = 4, 3
    ps = PatternSet(enumerate_candidate_patterns()[:4])
    fkw = FKWLayer.from_pruned(np.zeros((f, c, 3, 3), np.float32), np.zeros((f, c), np.int32), ps)
    assert fkw.num_kernels == 0
    bias = np.array([-1.0, 0.5, 3.0, 9.0], np.float32)
    x = np.random.default_rng(0).standard_normal((2, c, 5, 5)).astype(np.float32)
    for activation, expect in [(None, bias), ("relu", [0.0, 0.5, 3.0, 9.0]), ("relu6", [0.0, 0.5, 3.0, 6.0])]:
        fn = generate_kernel(fkw, 1, 1, "gemm", bias=bias, activation=activation)
        for arena in (None, BufferArena()):
            if arena is not None:
                _poison(arena, (2, f, 5, 5))
            got = _run(fn, x, arena)
            want = np.broadcast_to(np.asarray(expect, np.float32).reshape(1, f, 1, 1), (2, f, 5, 5))
            np.testing.assert_array_equal(got, want)
    assert "pattern-union coordinates: 0/9" in generate_source(fkw, "gemm")


def test_single_pattern_layer_gathers_only_its_coordinates():
    pattern = enumerate_candidate_patterns()[5]
    ps = PatternSet([pattern])
    rng = np.random.default_rng(3)
    f, c = 5, 4
    w, assignment = project_kernel_pattern(rng.standard_normal((f, c, 3, 3)).astype(np.float32), ps)
    fkw = FKWLayer.from_pruned(w, assignment, ps)
    u = len(pattern.coords)
    assert u < 9
    x = rng.standard_normal((3, c, 7, 7)).astype(np.float32)
    fn = generate_kernel(fkw, 1, 1, "gemm")
    arena = BufferArena()
    # garbage in every scratch the kernel may be handed
    _poison(arena, (3, f, 7, 7), (u, c, 7, 7))
    got = _run(fn, x, arena)
    np.testing.assert_allclose(got, conv2d(x, w, None, 1, 1), rtol=0, atol=1e-5 * float(np.abs(got).max()))
    # the kernel reused both poisoned buffers, so its column scratch
    # holds exactly the U gathered shifted slices, not all nine
    assert arena.allocations == 2 and arena.reuses == 2
    assert f"pattern-union coordinates: {u}/9" in generate_source(fkw, "gemm")
