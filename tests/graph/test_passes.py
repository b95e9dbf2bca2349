"""Graph optimization passes: semantics preserved, rewrites applied."""

import numpy as np
import pytest

from repro.graph.builder import build_graph
from repro.graph.ir import Graph, Node, OpKind, run_shape_inference
from repro.graph.pass_manager import default_pipeline
from repro.graph.passes import (
    constant_fold,
    fold_batchnorm,
    fuse_activation,
    plan_memory,
    replace_ops,
)
from repro.models import build_small_cnn
from repro.runtime.executor import ReferenceExecutor
from repro.utils.rng import make_rng


def _trained_like_model():
    """Small CNN with non-trivial BN stats so folding is a real test."""
    model = build_small_cnn(channels=(8,), in_size=8, seed=4)
    rng = make_rng(9)
    for _, m in model.named_modules():
        if hasattr(m, "running_mean") and isinstance(getattr(m, "running_mean", None), np.ndarray):
            m._update_buffer("running_mean", rng.standard_normal(m.num_features).astype(np.float32) * 0.5)
            m._update_buffer("running_var", (rng.random(m.num_features).astype(np.float32) + 0.5))
    model.eval()
    return model


class TestFoldBatchnorm:
    def test_fold_preserves_output(self):
        model = _trained_like_model()
        x = make_rng(1).standard_normal((2, 3, 8, 8)).astype(np.float32)
        g1 = build_graph(model, (3, 8, 8))
        before = ReferenceExecutor(g1).run(x)
        g2 = build_graph(model, (3, 8, 8))
        folds = fold_batchnorm(g2)
        after = ReferenceExecutor(g2).run(x)
        assert folds == 1
        np.testing.assert_allclose(before, after, rtol=1e-4, atol=1e-4)

    def test_bn_nodes_removed(self):
        g = build_graph(_trained_like_model(), (3, 8, 8))
        fold_batchnorm(g)
        assert g.op_histogram().get("batchnorm", 0) == 0

    def test_conv_marked_folded(self):
        g = build_graph(_trained_like_model(), (3, 8, 8))
        fold_batchnorm(g)
        assert g.conv_nodes()[0].attrs.get("folded_bn")


class TestFuseActivation:
    def test_relu_fused_into_conv(self):
        g = build_graph(_trained_like_model(), (3, 8, 8))
        fold_batchnorm(g)
        fused = fuse_activation(g)
        assert fused >= 1
        assert g.conv_nodes()[0].attrs.get("activation") == "relu"
        assert g.op_histogram().get("relu", 0) == 0

    def test_fusion_preserves_output(self):
        model = _trained_like_model()
        x = make_rng(2).standard_normal((1, 3, 8, 8)).astype(np.float32)
        g1 = build_graph(model, (3, 8, 8))
        before = ReferenceExecutor(g1).run(x)
        g2 = build_graph(model, (3, 8, 8))
        fold_batchnorm(g2)
        fuse_activation(g2)
        after = ReferenceExecutor(g2).run(x)
        np.testing.assert_allclose(before, after, rtol=1e-4, atol=1e-4)


class TestConstantFold:
    def test_folds_const_chain(self):
        g = Graph()
        g.add(Node("c1", OpKind.CONSTANT, attrs={"shape": (2,)}, params={"value": np.array([1.0, -2.0], dtype=np.float32)}))
        g.add(Node("r", OpKind.RELU, inputs=["c1"]))
        g.add(Node("c2", OpKind.CONSTANT, attrs={"shape": (2,)}, params={"value": np.array([1.0, 1.0], dtype=np.float32)}))
        g.add(Node("a", OpKind.ADD, inputs=["r", "c2"]))
        g.outputs = ["a"]
        run_shape_inference(g)
        folds = constant_fold(g)
        assert folds == 2
        final = g.nodes[g.outputs[0]]
        np.testing.assert_array_equal(final.params["value"], [2.0, 1.0])


class TestReplaceOps:
    def test_full_avgpool_becomes_global(self):
        g = Graph()
        g.add(Node("in", OpKind.INPUT, attrs={"shape": (4, 7, 7)}))
        g.add(Node("p", OpKind.AVGPOOL, inputs=["in"], attrs={"kernel_size": 7, "stride": 7}))
        g.outputs = ["p"]
        run_shape_inference(g)
        assert replace_ops(g) == 1
        assert g.nodes["p"].op == OpKind.GLOBAL_AVGPOOL

    def test_unit_pool_dropped(self):
        g = Graph()
        g.add(Node("in", OpKind.INPUT, attrs={"shape": (4, 7, 7)}))
        g.add(Node("p", OpKind.MAXPOOL, inputs=["in"], attrs={"kernel_size": 1, "stride": 1}))
        g.outputs = ["p"]
        run_shape_inference(g)
        assert replace_ops(g) == 1
        assert "p" not in g.nodes


class TestMemoryPlan:
    def test_plan_never_overlaps_live_buffers(self):
        g = build_graph(build_small_cnn(channels=(8, 16), in_size=16), (3, 16, 16))
        plan = plan_memory(g)
        order = g.toposort()
        index = {n.name: i for i, n in enumerate(order)}
        # recompute liveness and assert no two live buffers overlap
        last_use = {}
        for node in order:
            for inp in node.inputs:
                last_use[inp] = max(last_use.get(inp, 0), index[node.name])
        from repro.utils.misc import prod

        allocs = []
        for node in order:
            if node.name not in plan.offsets:
                continue
            size = prod(node.out_shape) * 4
            allocs.append((plan.offsets[node.name], size, index[node.name], last_use.get(node.name, index[node.name] + 1)))
        for i, (o1, s1, b1, d1) in enumerate(allocs):
            for o2, s2, b2, d2 in allocs[i + 1 :]:
                overlap_time = b2 <= d1 and b1 <= d2
                overlap_space = o1 < o2 + s2 and o2 < o1 + s1
                assert not (overlap_time and overlap_space)

    def test_reuse_beats_naive(self):
        g = build_graph(build_small_cnn(channels=(8, 16), in_size=16), (3, 16, 16))
        plan = plan_memory(g)
        assert plan.peak_bytes < plan.naive_bytes
        assert plan.reuse_ratio > 1.0


class TestPipeline:
    def test_default_pipeline_runs_all(self):
        g = build_graph(_trained_like_model(), (3, 8, 8))
        report = default_pipeline().run(g)
        assert report.applied["fold_batchnorm"] == 1
        assert report.applied["fuse_activation"] >= 1
        assert report.total() >= 2

    def test_pipeline_preserves_semantics_on_resnet(self):
        from repro.models import build_resnet

        model = build_resnet(blocks_per_stage=(1,))
        model.eval()
        x = make_rng(3).standard_normal((1, 3, 8, 8)).astype(np.float32)
        g1 = build_graph(model, (3, 8, 8))
        before = ReferenceExecutor(g1).run(x)
        g2 = build_graph(model, (3, 8, 8))
        default_pipeline().run(g2)
        after = ReferenceExecutor(g2).run(x)
        np.testing.assert_allclose(before, after, rtol=1e-3, atol=1e-3)
