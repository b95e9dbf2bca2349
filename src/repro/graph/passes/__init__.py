"""Graph-optimization passes (the Table 1 'computation graph' knobs)."""

from repro.graph.passes.fold_batchnorm import fold_batchnorm
from repro.graph.passes.fuse_activation import fuse_activation
from repro.graph.passes.constant_fold import constant_fold
from repro.graph.passes.memory_plan import compute_liveness, plan_memory, MemoryPlan
from repro.graph.passes.op_replacement import replace_ops
from repro.graph.passes.dce import eliminate_dead_nodes

__all__ = [
    "fold_batchnorm",
    "fuse_activation",
    "constant_fold",
    "compute_liveness",
    "plan_memory",
    "MemoryPlan",
    "replace_ops",
    "eliminate_dead_nodes",
]
