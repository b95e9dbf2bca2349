"""Seeded models and in-process per-layer measurements.

Every number here comes from timing calls into a module's public
functions (graph builder and pass pipeline, FKW packing, kernel
codegen, the analytical cost model, the compiled and reference
executors) or from counters the program already exposes (kernel cache,
buffer arena).  Models are pruned by one-shot projection, the same path
``projected_smallcnn_spec`` uses; ADMM training is out of scope.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro import nn
from repro.compiler.codegen import KernelCache
from repro.compiler.compile import OptLevel, compile_layer
from repro.compiler.reorder import filter_kernel_reorder
from repro.compiler.storage import FKWLayer
from repro.core.masking import apply_masks, extract_masks
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import project_kernel_pattern
from repro.graph.builder import build_graph
from repro.graph.ir import OpKind
from repro.graph.pass_manager import default_pipeline
from repro.hardware.cost_model import ConvCostModel
from repro.hardware.device import get_device
from repro.models import build_vgg
from repro.models.registry import get_trainable
from repro.models.spec import ConvSpec
from repro.runtime import ReferenceExecutor, SessionSpec, profile_layers
from repro.runtime.cluster import projected_smallcnn_spec
from repro.utils.serialize import load_session_bundle

#: per-op time is reported for these op kinds; every other op is "other"
OP_GROUPS = {"CONV2D": "conv2d", "MAXPOOL": "maxpool", "LINEAR": "linear"}
GROUPS = ("conv2d", "maxpool", "linear", "other")

#: the cost model's device: the paper's Snapdragon 855 CPU
COST_DEVICE = "snapdragon855"


def pruned_vgg_spec(bundle_path: str, *, seed: int, num_patterns: int,
                    connectivity_rate: float, **model_kwargs) -> SessionSpec:
    """A pattern- and connectivity-pruned VGG captured as a spec (weights
    drawn from ``seed``)."""
    kwargs = dict(model_kwargs, seed=seed)
    model = build_vgg(**kwargs)
    ps = PatternSet(enumerate_candidate_patterns()[:num_patterns])
    apply_masks(model, extract_masks(model, ps, connectivity_rate=connectivity_rate))
    model.eval()
    assignments = {}
    for name, module in model.named_modules():
        if isinstance(module, nn.Conv2d):
            w = module.weight.data
            _, a = project_kernel_pattern(w, ps)
            energy = (w.reshape(a.shape[0], a.shape[1], -1) ** 2).sum(axis=2)
            assignments[name] = (a * (energy > 0)).astype(np.int32)
    side = kwargs["in_size"]
    return SessionSpec.capture(
        "vgg16", model, (3, side, side), bundle_path,
        pattern_set=ps, assignments=assignments, model_kwargs=kwargs,
    )


def build_spec(params: dict, bundle_path: str, seed: int) -> SessionSpec:
    if params["model"] == "vgg16":
        return pruned_vgg_spec(
            bundle_path, seed=seed, num_patterns=params["num_patterns"],
            connectivity_rate=params["connectivity_rate"], **params["model_kwargs"],
        )
    return projected_smallcnn_spec(
        bundle_path, seed=seed, num_patterns=params["num_patterns"],
        connectivity_rate=params["connectivity_rate"], **params["model_kwargs"],
    )


def request_pool(spec: SessionSpec, seed: int, size: int, batch: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 1])
    return [
        rng.standard_normal((batch, *spec.input_shape)).astype(np.float32)
        for _ in range(size)
    ]


# ----------------------------------------------------------------------
# graph / compiler / cost model
# ----------------------------------------------------------------------
def compile_path(spec: SessionSpec, repeats: int, log, trace: int):
    """Graph build, pass pipeline, FKW packing and kernel codegen timed
    over ``repeats`` rounds (medians), plus the cost model's per-node
    conv estimate.  Returns ``(metrics, conv_estimates_ms)``."""
    model = get_trainable(spec.model, **spec.model_kwargs)
    state, ps, assignments = load_session_bundle(spec.bundle_path)
    model.load_state_dict(state)
    model.eval()
    build_ms, passes_ms, pack_ms, codegen_ms = [], [], [], []
    for _ in range(repeats):
        graph, ms = log.timed(trace, "graph.build", build_graph, model, spec.input_shape)
        build_ms.append(ms)
        passes_ms.append(log.timed(trace, "graph.passes", default_pipeline().run, graph)[1])
        convs = [n for n in graph.toposort() if n.op == OpKind.CONV2D]
        # the session maps pruner layers to conv nodes in traversal order
        pairs = list(zip(convs, assignments.values()))
        if len(convs) != len(assignments) or any(
            n.params["weight"].shape[:2] != a.shape for n, a in pairs
        ):
            raise RuntimeError("pruned layers do not map onto the graph's conv nodes")
        fkws, ms = log.timed(trace, "compiler.pack", lambda: [
            FKWLayer.from_pruned(n.params["weight"], a, ps, filter_kernel_reorder(a))
            for n, a in pairs
        ])
        pack_ms.append(ms)
        cache = KernelCache()
        codegen_ms.append(log.timed(trace, "compiler.codegen", lambda: [
            cache.get(fkw, n.attrs.get("stride", 1), n.attrs.get("padding", 0),
                      spec.opt_level, bias=n.params.get("bias"),
                      activation=n.attrs.get("activation"))
            for (n, _), fkw in zip(pairs, fkws)
        ])[1])

    cost_model = ConvCostModel(get_device(COST_DEVICE), "cpu")
    estimates = {}
    with log.span(trace, "cost_model.compile_layer"):
        for node, a in pairs:
            f, c, k, _ = node.params["weight"].shape
            in_hw = graph.nodes[node.inputs[0]].out_shape[-1]
            conv = ConvSpec(node.name, c, f, k, node.attrs.get("stride", 1),
                            node.attrs.get("padding", 0), in_hw=in_hw)
            layer = compile_layer(conv, node.params["weight"], a, ps, cost_model, OptLevel.LRE)
            estimates[node.name] = layer.estimated_ms
    dense_bytes = sum(n.params["weight"].nbytes for n, _ in pairs)
    metrics = {
        "graph.build_ms": np.median(build_ms),
        "graph.passes_ms": np.median(passes_ms),
        "compiler.pack_ms": np.median(pack_ms),
        "compiler.codegen_ms": np.median(codegen_ms),
        "compiler.kernel_cache_hits": cache.hits,
        "compiler.kernel_cache_misses": cache.misses,
        "compiler.weight_bytes_ratio": sum(f.total_bytes() for f in fkws) / dense_bytes,
        "cost_model.conv2d_est_ms": sum(estimates.values()),
    }
    return metrics, estimates


# ----------------------------------------------------------------------
# executor vs reference
# ----------------------------------------------------------------------
class NodeTimes:
    """Times of a series of executions, one entry per execution: per node,
    per node divided by the execution's batch size, and summed per op
    group."""

    def __init__(self) -> None:
        self.per_node: dict[str, list[float]] = defaultdict(list)
        self.per_group: dict[str, list[float]] = {g: [] for g in GROUPS}
        self.per_sample: dict[str, list[float]] = defaultdict(list)

    def add(self, rows, batch: int = 1) -> None:
        """``rows``: ``(node, op_name, ms)`` of one execution."""
        sums = dict.fromkeys(GROUPS, 0.0)
        for node, op, ms in rows:
            self.per_node[node].append(ms)
            self.per_sample[node].append(ms / batch)
            sums[OP_GROUPS.get(op, "other")] += ms
        for g, ms in sums.items():
            self.per_group[g].append(ms)

    def add_profile(self, sink, batch: int = 1) -> None:
        self.add([(n, op, (t1 - t0) * 1e3) for n, op, t0, t1 in sink], batch)

    def group_medians(self, prefix: str) -> dict[str, float]:
        return {
            f"{prefix}.{g}_ms": float(np.median(v)) if v else 0.0
            for g, v in self.per_group.items()
        }


def slower_nodes(compiled: NodeTimes, reference: NodeTimes) -> int:
    """Nodes whose median compiled time exceeds the reference's."""
    return sum(
        1 for node, times in compiled.per_node.items()
        if reference.per_node.get(node)
        and np.median(times) > np.median(reference.per_node[node])
    )


def cost_residual(compiled: NodeTimes, estimates: dict[str, float]) -> float:
    """Geometric mean over conv nodes of measured per-sample time over
    the cost model's estimate."""
    logs = [
        np.log(np.median(compiled.per_sample[node]) / est)
        for node, est in estimates.items()
        if compiled.per_sample.get(node) and est > 0
    ]
    return float(np.exp(np.mean(logs))) if logs else 0.0


def profile_reference(graph, xs, log, trace: int) -> NodeTimes:
    """Dense ``ReferenceExecutor`` on ``graph``, one profiled run per input."""
    ref = ReferenceExecutor(graph)
    times = NodeTimes()
    for x in xs:
        sink: list = []
        with log.span(trace, "reference.run", batch=int(x.shape[0])), profile_layers(sink):
            ref.run(x)
        times.add_profile(sink, batch=int(x.shape[0]))
    return times


def arena_metrics(arena) -> dict[str, float]:
    served = arena.reuses + arena.allocations
    return {
        "arena.footprint_bytes": arena.footprint_bytes,
        "arena.reuse_ratio": arena.reuses / served if served else 0.0,
        "arena.evictions": arena.evictions,
    }
