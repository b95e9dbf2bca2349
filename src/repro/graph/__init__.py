"""Computational-graph IR and graph-level optimizations (paper §5, Table 1).

PatDNN "converts DNN models into computational graphs and applies
multiple graph-based optimizations" before its layerwise work.  This
package provides:

* :mod:`repro.graph.ir` — the node/graph types with shape inference,
* :mod:`repro.graph.builder` — build a graph from a ``repro.nn`` model
  or a :class:`~repro.models.spec.ModelSpec`,
* :mod:`repro.graph.passes` — conv+BN folding, activation fusion,
  constant folding, static memory planning,
  operation replacement,
* :mod:`repro.graph.pass_manager` — ordered pass application.
"""

from repro.graph.ir import Graph, Node, OpKind
from repro.graph.builder import build_graph, graph_from_spec
from repro.graph.pass_manager import PassManager, default_pipeline

__all__ = [
    "Graph",
    "Node",
    "OpKind",
    "build_graph",
    "graph_from_spec",
    "PassManager",
    "default_pipeline",
]
