"""Graph executors: reference (numpy) and compiled (batched FKW kernels).

Both executors walk the topological order with an execution plan built
at construction time from :func:`~repro.graph.passes.memory_plan.compute_liveness`:
each intermediate value is dropped from the environment right after its
last consumer runs, so peak live memory during ``run()`` matches the
static memory-plan pass instead of retaining every tensor to the end.

:class:`CompiledExecutor` additionally dispatches pattern-pruned conv
nodes to **whole-batch** generated kernels (no per-sample Python loop),
with bias + activation fused into the closure, compiled closures shared
through a :class:`~repro.compiler.codegen.KernelCache` (identical layers
compile once), and padded-input/output scratch recycled across calls via
a :class:`~repro.runtime.arena.BufferArena`.  Dead intermediates produced
by compiled kernels are released back to the arena mid-run, so repeated
same-shape layers share physical buffers.

Both executors are safe to share across threads: per-run state lives in
locals, the kernel cache locks its lookups, and the arena tracks
in-flight scratch per thread (see :mod:`repro.runtime.arena`) — so one
``CompiledExecutor`` can back a multi-threaded serving front-end
(:mod:`repro.runtime.serving`) without per-thread executor copies.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compiler.codegen import KernelCache, KernelFn
from repro.compiler.reorder import filter_kernel_reorder
from repro.compiler.storage import FKWLayer
from repro.core.patterns import PatternSet
from repro.graph.ir import Graph, OpKind
from repro.graph.passes.memory_plan import compute_liveness
from repro.runtime.arena import BufferArena
from repro.runtime.ops import eval_node
from repro.runtime.telemetry import active_layer_profile


class ReferenceExecutor:
    """Interpret a graph with reference numpy kernels.

    Intermediates are freed as soon as their last consumer has run
    (liveness-driven retirement), so long graphs don't accumulate every
    activation in memory.
    """

    def __init__(self, graph: Graph) -> None:
        graph.validate()
        self.graph = graph
        self._order = graph.toposort()
        # Execution plan: which value names die after each step.  Graph
        # outputs have last_use == len(order), so they are never retired.
        steps = len(self._order)
        self._dies_at: dict[int, list[str]] = {}
        for name, last in compute_liveness(graph, self._order).items():
            if last < steps:
                self._dies_at.setdefault(last, []).append(name)

    # ------------------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute on a batched NCHW input; returns the graph output."""
        return self._execute(x, arena=None)

    def _dispatch(self, node, inputs: list[np.ndarray], arena) -> np.ndarray:
        """Evaluate one node; subclasses intercept compiled nodes here."""
        return eval_node(node, inputs)

    def _execute(self, x: np.ndarray, arena: BufferArena | None) -> np.ndarray:
        values: dict[str, np.ndarray] = {}
        out = None
        # Per-layer telemetry hook (repro.runtime.telemetry.profile_layers):
        # checked once per run — the unprofiled hot path pays a single
        # thread-local read, the profiled path two clock reads per node.
        profile = active_layer_profile()
        for step, node in enumerate(self._order):
            if node.op == OpKind.INPUT:
                value = np.asarray(x, dtype=np.float32)
            else:
                inputs = [values[i] for i in node.inputs]
                if profile is not None:
                    t0 = time.monotonic()
                    value = self._dispatch(node, inputs, arena)
                    profile.append((node.name, node.op.name, t0, time.monotonic()))
                else:
                    value = self._dispatch(node, inputs, arena)
            values[node.name] = value
            out = value
            self._retire(values, step, arena)
        result = values[self.graph.outputs[0]] if self.graph.outputs else out
        if arena is not None:
            # Never hand the caller a buffer the arena may recycle; then
            # pool every in-flight buffer (including ones whose release
            # was skipped because a since-dead view aliased them).
            result = arena.sanitize_output(result)
            values.clear()
            arena.reclaim()
        return result

    def _retire(self, values: dict[str, np.ndarray], step: int, arena: BufferArena | None) -> None:
        """Drop (and recycle) values whose last consumer was ``step``."""
        for name in self._dies_at.get(step, ()):
            dead = values.pop(name, None)
            if arena is None or dead is None:
                continue
            # A view of this buffer may still be live (e.g. FLATTEN's
            # reshape aliases the conv output) — keep it out of the pool.
            if any(dead is live or np.may_share_memory(dead, live) for live in values.values()):
                continue
            arena.release(dead)


class CompiledExecutor(ReferenceExecutor):
    """Execute pattern-pruned conv nodes through generated FKW kernels.

    Conv nodes whose name appears in ``assignments`` are packed to FKW
    (with FKR) and dispatched to whole-batch closures from
    :func:`~repro.compiler.codegen.generate_kernel` — bias and activation
    fused, one call per node per batch; every other node falls back to
    the reference kernel.  Output equality with
    :class:`ReferenceExecutor` is the compiler's end-to-end correctness
    property.

    Args:
        graph: optimized graph IR.
        pattern_set / assignments: pruning artifacts; ``assignments``
            maps conv node names to (F, C) pattern-id arrays.
        opt_level: codegen variant (``'no-opt'`` | ``'reorder'`` | ``'lre'``
            | ``'gemm'``).  ``'gemm'`` — the default — is the batch-serving
            production level (one gather plus one GEMM per sample over
            the stacked pattern-union matrix); the other three mirror
            the paper's Figure 7 ladder structurally.
        kernel_cache: compile-once cache; a private one is created when
            omitted.  Repeated identical layers share one closure
            (``kernel_cache.hits`` counts the saves).
        arena: scratch-buffer arena reused across ``run()`` calls; a
            private one is created when omitted.
        arena_max_bytes: retained-scratch cap for the private arena (LRU
            eviction under many-shape traffic); ignored when an explicit
            ``arena`` is passed.
    """

    def __init__(
        self,
        graph: Graph,
        pattern_set: PatternSet,
        assignments: dict[str, np.ndarray],
        opt_level: str = "gemm",
        kernel_cache: KernelCache | None = None,
        arena: BufferArena | None = None,
        arena_max_bytes: int | None = None,
    ) -> None:
        super().__init__(graph)
        self.pattern_set = pattern_set
        self.opt_level = opt_level
        self.kernel_cache = kernel_cache if kernel_cache is not None else KernelCache()
        self.arena = arena if arena is not None else BufferArena(max_bytes=arena_max_bytes)
        self._compiled: dict[str, KernelFn] = {}
        for name, assignment in assignments.items():
            if name not in graph.nodes:
                raise KeyError(f"assignment for unknown node {name!r}")
            node = graph.nodes[name]
            if node.op != OpKind.CONV2D:
                raise ValueError(f"{name!r} is not a conv node")
            weights = node.params["weight"]
            fkr = filter_kernel_reorder(assignment)
            fkw = FKWLayer.from_pruned(weights, assignment, pattern_set, fkr)
            self._compiled[name] = self.kernel_cache.get(
                fkw,
                node.attrs.get("stride", 1),
                node.attrs.get("padding", 0),
                opt_level,
                bias=node.params.get("bias"),
                activation=node.attrs.get("activation"),
            )

    def run(self, x: np.ndarray) -> np.ndarray:
        return self._execute(x, arena=self.arena)

    def _dispatch(self, node, inputs: list[np.ndarray], arena) -> np.ndarray:
        fn = self._compiled.get(node.name)
        if fn is not None:
            return fn(inputs[0], arena=arena)
        return eval_node(node, inputs)
