"""Execution code generation (paper Figure 7).

Two products per layer:

* :func:`generate_kernel` — an executable Python convolution closure over
  the FKW arrays, in three optimization variants that mirror the paper's
  code skeletons.  All variants are **batched**: they consume an
  ``(N, C, H, W)`` input natively and return ``(N, F, Ho, Wo)`` (a bare
  ``(C, H, W)`` sample is promoted and squeezed back for convenience).
  The opt-level matrix:

  ============  =====================================================
  level         execution strategy
  ============  =====================================================
  ``no-opt``    per-kernel ``switch (style[oc][ic])`` dispatch in the
                innermost loop (correct, branchy, slow)
  ``reorder``   branchless pattern runs after FKR, grouped filters
  ``lre``       each pattern's kernels computed as one vectorised
                shifted-slice gather over the whole batch, accumulated
                scatter-free: kernels are owner-sorted at compile time
                so runtime accumulation is a contiguous
                ``np.add.reduceat`` segment reduction instead of an
                ``np.add.at`` scatter
  ``gemm``      load-redundancy elimination taken to its numpy limit:
                one gather plus one GEMM per sample over the stacked
                union matrix — the FKW arrays are scattered (at compile
                time) into one dense (F, U·C) matrix over the U kernel
                coordinates of the *pattern union*, so each shifted
                input slice is loaded once and reused across every
                filter.  This is the production serving level; the
                first three mirror the Figure 7 ladder structurally.
  ============  =====================================================

  The epilogue (bias add + fused activation) is baked into the closure
  when ``bias`` / ``activation`` are given, so a compiled conv node is
  one kernel call instead of three array passes.  When ``padding == 0``
  the input is used in place — no ``np.pad`` copy is made at any level.

  Kernels optionally cooperate with a
  :class:`repro.runtime.arena.BufferArena` (``fn(x, arena=...)``): the
  padded-input scratch and output accumulator then come from the arena's
  reusable pools instead of fresh allocations (``gemm`` also takes its
  column scratch from there).

* :class:`KernelCache` — memoises compiled closures by FKW signature +
  ``(stride, padding, opt_level, bias, activation)`` so repeated
  identical layers (e.g. VGG's stacked same-shape blocks) compile once.

* :func:`generate_source` — C-like source text of the same structure
  (what PatDNN would hand to the NDK/OpenCL compiler), used by docs,
  the LR example, and golden tests.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Callable

import numpy as np

from repro.compiler.storage import FKWLayer

KernelFn = Callable[..., np.ndarray]

_OPT_LEVELS = ("no-opt", "reorder", "lre", "gemm")
_ACTIVATIONS = (None, "relu", "relu6")


def _normalize_input(x: np.ndarray, c: int) -> tuple[np.ndarray, bool]:
    """Promote (C, H, W) to (1, C, H, W); validate the channel count."""
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    if x.ndim != 4 or x.shape[1] != c:
        raise ValueError(f"expected (N, C={c}, H, W) or (C={c}, H, W) input, got shape {x.shape}")
    return x, squeeze


def _padded(x: np.ndarray, padding: int, arena) -> np.ndarray:
    """Zero-pad H/W — skipping the copy entirely when padding == 0."""
    if padding == 0:
        return x
    if arena is not None:
        return arena.padded(x, padding)
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _alloc_out(shape: tuple[int, ...], arena, zero: bool = True) -> np.ndarray:
    if arena is not None:
        return arena.acquire(shape, zero=zero)
    return np.zeros(shape, np.float32) if zero else np.empty(shape, np.float32)


def _epilogue(out: np.ndarray, bias: np.ndarray | None, activation: str | None) -> np.ndarray:
    """Fused bias + activation, in place on the accumulator."""
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "relu6":
        np.clip(out, 0.0, 6.0, out=out)
    return out


def _finish(out: np.ndarray, squeeze: bool, arena) -> np.ndarray:
    if not squeeze:
        return out
    # Squeezed results escape as views; detach them from arena memory.
    return out[0].copy() if arena is not None else out[0]


def generate_kernel(
    fkw: FKWLayer,
    stride: int = 1,
    padding: int = 1,
    opt_level: str = "lre",
    bias: np.ndarray | None = None,
    activation: str | None = None,
) -> KernelFn:
    """Build an executable batched conv closure for one FKW layer.

    Args:
        fkw: packed layer.
        opt_level: ``'no-opt'`` | ``'reorder'`` | ``'lre'`` | ``'gemm'``.
        bias: optional (F,) bias fused into the kernel epilogue.
        activation: optional fused activation (``'relu'`` | ``'relu6'``).

    Returns:
        ``fn(x, arena=None)`` mapping ``(N, C, H, W) -> (N, F, Ho, Wo)``
        float32 (``(C, H, W) -> (F, Ho, Wo)`` for a bare sample),
        accumulating to the *original* output-channel order via the
        reorder array.  ``arena`` is an optional
        :class:`repro.runtime.arena.BufferArena` supplying reusable
        padded-input and output scratch.
    """
    if opt_level not in _OPT_LEVELS:
        raise ValueError(f"opt_level must be one of {_OPT_LEVELS}, got {opt_level!r}")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {activation!r}")
    if opt_level == "no-opt":
        return _kernel_no_opt(fkw, stride, padding, bias, activation)
    if opt_level == "reorder":
        return _kernel_reorder(fkw, stride, padding, bias, activation)
    if opt_level == "lre":
        return _kernel_lre(fkw, stride, padding, bias, activation)
    return _kernel_gemm(fkw, stride, padding, bias, activation)


def _out_hw(h: int, k: int, stride: int, padding: int) -> int:
    return (h + 2 * padding - k) // stride + 1


def _kernel_no_opt(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """Figure 7 '+No-opt': per-kernel switch on pattern style.

    Kernels iterate in original channel order (identity reorder not
    required — FKW already stores an order; dispatch is per kernel).
    """
    f, c, kh, kw = fkw.shape
    pattern_coords = {
        pid: fkw.pattern_set[pid].coords for pid in range(1, len(fkw.pattern_set) + 1)
    }

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        n, _, h, w = x.shape
        ho, wo = _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)
        xp = _padded(x, padding, arena)
        out = _alloc_out((n, f, ho, wo), arena)
        for pos in range(f):
            oc = int(fkw.reorder[pos])
            for k in range(*fkw.filter_slice(pos).indices(fkw.num_kernels)):
                pid = int(fkw.pattern_ids[k])
                ic = int(fkw.index[k])
                weights = fkw.weights[k]
                # the switch(style) — one branch per kernel instance
                coords = pattern_coords[pid]
                for widx, (r, cc) in enumerate(coords):
                    out[:, oc] += weights[widx] * xp[:, ic, r : r + stride * ho : stride, cc : cc + stride * wo : stride]
        _epilogue(out, bias, activation)
        return _finish(out, squeeze, arena)

    return fn


def _kernel_reorder(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """Figure 7 '+Reorder': branchless pattern runs inside each filter."""
    f, c, kh, kw = fkw.shape
    pattern_coords = {
        pid: fkw.pattern_set[pid].coords for pid in range(1, len(fkw.pattern_set) + 1)
    }
    runs = [fkw.pattern_runs(pos) for pos in range(f)]

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        n, _, h, w = x.shape
        ho, wo = _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)
        xp = _padded(x, padding, arena)
        out = _alloc_out((n, f, ho, wo), arena)
        for pos in range(f):
            oc = int(fkw.reorder[pos])
            acc = out[:, oc]
            for pid, start, end in runs[pos]:
                coords = pattern_coords[pid]  # hoisted: one dispatch per run
                for k in range(start, end):
                    ic = int(fkw.index[k])
                    weights = fkw.weights[k]
                    for widx, (r, cc) in enumerate(coords):
                        acc += weights[widx] * xp[:, ic, r : r + stride * ho : stride, cc : cc + stride * wo : stride]
        _epilogue(out, bias, activation)
        return _finish(out, squeeze, arena)

    return fn


def _kernel_owner_map(fkw: FKWLayer) -> np.ndarray:
    """(K,) original output channel owning each kernel (via reorder)."""
    owners = np.empty(fkw.num_kernels, dtype=np.int64)
    for pos in range(fkw.shape[0]):
        owners[fkw.filter_slice(pos)] = int(fkw.reorder[pos])
    return owners


def _iter_pattern_selections(fkw: FKWLayer):
    """Yield ``(pid, sel, owners, channels)`` per non-empty pattern id.

    Shared compile-time preamble of the ``lre`` and ``gemm`` variants:
    ``sel`` indexes the kernels of pattern ``pid``; ``owners`` /
    ``channels`` are their original output channels and input channels.
    """
    if not fkw.num_kernels:
        return
    owner_map = _kernel_owner_map(fkw)
    for pid in range(1, len(fkw.pattern_set) + 1):
        sel = np.nonzero(fkw.pattern_ids == pid)[0]
        if len(sel) == 0:
            continue
        yield pid, sel, owner_map[sel], fkw.index[sel].astype(np.int64)


def _kernel_lre(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """'+LRE': per pattern id, all kernels of the whole batch computed as
    shifted slices — inputs gathered once per (pattern, shift), the numpy
    analogue of register reuse across kernels and unrolled filters.

    Accumulation is scatter-free: kernels are sorted by owning output
    channel at compile time, so the runtime reduction is a contiguous
    ``np.add.reduceat`` over owner segments followed by a unique-index
    add — no ``np.add.at`` scatter in the hot path.
    """
    f, c, kh, kw = fkw.shape
    # Precompute owner-sorted gather/segment metadata per pattern id.
    plans: list[dict] = []
    for pid, sel, owners, channels in _iter_pattern_selections(fkw):
        order = np.argsort(owners, kind="stable")
        sel, owners, channels = sel[order], owners[order], channels[order]
        seg_starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
        plans.append(
            {
                "channels": channels,
                "weights": np.ascontiguousarray(fkw.weights[sel]),  # (n_k, entries)
                "coords": fkw.pattern_set[pid].coords,
                "seg_starts": seg_starts,
                "seg_owners": owners[seg_starts],
                # every kernel its own segment -> reduction is the identity
                "trivial_segments": len(seg_starts) == len(owners),
            }
        )

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        n, _, h, w = x.shape
        ho, wo = _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)
        xp = _padded(x, padding, arena)
        out = _alloc_out((n, f, ho, wo), arena)
        for plan in plans:
            channels = plan["channels"]
            weights = plan["weights"]
            # contributions (n, n_kernels, ho, wo), built entry by entry
            # from shifted input slices shared across every kernel of this
            # pattern and every batch sample — the load-once semantics of
            # LRE, amortised over the batch.
            contrib = None
            for widx, (r, cc) in enumerate(plan["coords"]):
                patch = xp[:, channels, r : r + stride * ho : stride, cc : cc + stride * wo : stride]
                term = weights[:, widx][None, :, None, None] * patch
                if contrib is None:
                    contrib = term  # freshly allocated by the multiply — ours
                else:
                    contrib += term
            if plan["trivial_segments"]:
                reduced = contrib
            else:
                reduced = np.add.reduceat(contrib, plan["seg_starts"], axis=1)
            out[:, plan["seg_owners"]] += reduced
        _epilogue(out, bias, activation)
        return _finish(out, squeeze, arena)

    return fn


def _kernel_gemm(
    fkw: FKWLayer, stride: int, padding: int, bias: np.ndarray | None, activation: str | None
) -> KernelFn:
    """'+GEMM': one gather plus one GEMM per sample over the stacked union matrix.

    The LRE idea taken to its numpy limit.  At compile time the FKW arrays
    are scattered into one dense (F, U·C) matrix over the U kernel
    coordinates of the used patterns (the pattern union).  At run time
    each sample gathers its U shifted input slices once into a (U·C, Ho·Wo)
    column scratch, and one BLAS GEMM writes the sample's output rows
    straight into the un-zeroed output.  Coordinates outside the union are
    never gathered.  Every sample runs the same-shaped GEMM, so results
    are bitwise batch-invariant.
    """
    f, c, kh, kw = fkw.shape
    selections = list(_iter_pattern_selections(fkw))
    union = sorted({rc for pid, *_ in selections for rc in fkw.pattern_set[pid].coords})
    stacked = np.zeros((f, len(union), c), np.float32)
    for pid, sel, owners, channels in selections:
        for widx, rc in enumerate(fkw.pattern_set[pid].coords):
            # each (filter, channel) kernel occurs exactly once across all
            # patterns, so the index pairs are unique: plain assignment
            stacked[owners, union.index(rc), channels] = fkw.weights[sel, widx]
    stacked = stacked.reshape(f, len(union) * c)

    def fn(x: np.ndarray, arena=None) -> np.ndarray:
        x, squeeze = _normalize_input(x, c)
        n, _, h, w = x.shape
        ho, wo = _out_hw(h, kh, stride, padding), _out_hw(w, kw, stride, padding)
        xp = _padded(x, padding, arena)
        # both fully overwritten below, so neither is zeroed
        out = _alloc_out((n, f, ho, wo), arena, zero=False)
        col = _alloc_out((len(union), c, ho, wo), arena, zero=False)
        for i in range(n):
            for u, (r, cc) in enumerate(union):
                col[u] = xp[i, :, r : r + stride * ho : stride, cc : cc + stride * wo : stride]
            np.matmul(stacked, col.reshape(len(union) * c, ho * wo), out=out[i].reshape(f, ho * wo))
        if arena is not None:
            arena.release(col)
        _epilogue(out, bias, activation)
        return _finish(out, squeeze, arena)

    return fn


# ----------------------------------------------------------------------
# Kernel cache
# ----------------------------------------------------------------------
def _bias_digest(bias: np.ndarray | None) -> str | None:
    if bias is None:
        return None
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{bias.dtype.str}{bias.shape}".encode())
    h.update(np.ascontiguousarray(bias).tobytes())
    return h.hexdigest()


class KernelCache:
    """Compile-once cache for generated kernels.

    Keys combine the layer's :meth:`FKWLayer.signature` (structure *and*
    values) with the schedule knobs and fused epilogue, so two graph
    nodes with identical pruned weights, stride/padding, bias, and
    activation share one closure — repeated VGG-style blocks compile
    once per distinct layer.  ``hits`` / ``misses`` expose the effect.

    Thread-safe: lookups, compiles, and counter updates run under an
    internal lock, so one cache may back executors shared across
    threads (compilation of a given key happens exactly once).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kernels: dict[tuple, KernelFn] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self,
        fkw: FKWLayer,
        stride: int = 1,
        padding: int = 1,
        opt_level: str = "lre",
        bias: np.ndarray | None = None,
        activation: str | None = None,
    ) -> KernelFn:
        key = (fkw.signature(), stride, padding, opt_level, _bias_digest(bias), activation)
        with self._lock:
            fn = self._kernels.get(key)
            if fn is not None:
                self.hits += 1
                return fn
            self.misses += 1
            fn = generate_kernel(fkw, stride, padding, opt_level, bias=bias, activation=activation)
            self._kernels[key] = fn
            return fn

    def clear(self) -> None:
        with self._lock:
            self._kernels.clear()
            self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._kernels)


# ----------------------------------------------------------------------
# C-like source emission
# ----------------------------------------------------------------------
def generate_source(fkw: FKWLayer, opt_level: str = "lre", unroll_oc: int = 4, device: str = "cpu") -> str:
    """Emit C-like source text with the structure of Figure 7's skeletons.

    This is documentation-grade output (the real PatDNN emits vectorised
    C++/OpenCL); tests assert its structural properties — e.g. the
    reorder variant contains no ``switch``.
    """
    if opt_level not in _OPT_LEVELS:
        raise ValueError(f"opt_level must be one of {_OPT_LEVELS}, got {opt_level!r}")
    f, c, kh, kw = fkw.shape
    k = len(fkw.pattern_set)
    header = [
        f"// PatDNN generated {device.upper()} kernel: conv {f}x{c}x{kh}x{kw}",
        f"// format=FKW kernels={fkw.num_kernels} patterns={k} opt={opt_level}",
    ]
    body: list[str] = []
    if opt_level == "no-opt":
        body += [
            "for (oc = 0; oc < tile_oc; oc += 1)",
            "  for (oh = 0; oh < tile_oh; oh += unroll_h)",
            "    for (ow = 0; ow < tile_ow; ow += unroll_w)",
            "      for (ic = 0; ic < in_channel; ic += 1) {",
            "        switch (style[oc][ic]) {",
            "          case 0: break; // skip empty kernel",
        ]
        for pid in range(1, k + 1):
            coords = ", ".join(f"({r},{cc})" for r, cc in fkw.pattern_set[pid].coords)
            body.append(f"          case {pid}: /* pattern {pid}: {coords} */ break;")
        body += ["        }", "      }"]
    elif opt_level == "gemm":
        union = sorted({rc for pid in np.unique(fkw.pattern_ids) for rc in fkw.pattern_set[int(pid)].coords})
        offsets = ", ".join(f"({r},{cc})" for r, cc in union)
        body += [
            f"// pattern-union coordinates: {len(union)}/{kh * kw}: {offsets}",
            "for (n = 0; n < batch; n += 1) {",
            f"  im2col(col, input[n], union, {len(union)}); // each shifted slice loaded once",
            f"  sgemm(out[n], W_union, col, {f}, {len(union)} * {c}, out_hw); // reused across all filters",
            "}",
        ]
    else:
        body += [
            "for (oc = 0; oc < tile_oc; oc += unroll_oc)" if opt_level == "lre" else "for (oc = 0; oc < tile_oc; oc += 1)",
            "  for (oh = 0; oh < tile_oh; oh += unroll_h)",
            "    for (ow = 0; ow < tile_ow; ow += unroll_w) {",
        ]
        for pid in range(1, k + 1):
            coords = fkw.pattern_set[pid].coords
            rows = sorted({r for r, _ in coords})
            body.append(f"      for (ic = stride[{pid - 1}]; ic < stride[{pid}]; ic += unroll_ic) {{")
            if opt_level == "lre":
                for r in rows:
                    body.append(f"        vin_r{r} = vload(input, index[ic], oh + {r}, ow); // reused across entries")
                for widx, (r, cc) in enumerate(coords):
                    body.append(f"        acc = vfma(acc, w[ic][{widx}], vshift(vin_r{r}, {cc}));")
            else:
                body.append(f"        // compute pattern {pid} here")
            body.append("      }")
        body.append("    }")
    footer = ["// reorder[] folded into the rows of W_union at compile time" if opt_level == "gemm"
              else "// accumulate via reorder[] to original output channels"]
    return "\n".join(header + body + footer)
