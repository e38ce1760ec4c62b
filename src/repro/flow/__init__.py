"""Network-flow and vertex-cover substrate.

This package contains from-scratch implementations of the graph algorithms the
Delta decision framework relies on:

* :mod:`repro.flow.graph` -- a residual flow-network data structure,
* :mod:`repro.flow.maxflow` -- the Edmonds-Karp production solver and the
  Dinic oracle it is tested against,
* :mod:`repro.flow.incremental` -- an incremental max-flow solver that
  warm-starts from a previously computed flow when the network grows and
  searches only what the new vertices can reach (the key primitive behind
  the ``UpdateManager`` in VCover),
* :mod:`repro.flow.vertex_cover` -- minimum-weight vertex cover on bipartite
  graphs via max-flow / min-cut (Koenig-style construction).

The implementations are deliberately dependency-free (``networkx`` is used only
as a test oracle) so that the incremental variants can expose the internal
residual state that VCover needs.
"""

from repro.flow.graph import FlowNetwork
from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.maxflow import (
    dinic_max_flow,
    edmonds_karp_max_flow,
    solve_max_flow,
)
from repro.flow.vertex_cover import (
    BipartiteCoverInstance,
    CoverResult,
    min_weight_vertex_cover,
)

__all__ = [
    "FlowNetwork",
    "IncrementalMaxFlow",
    "dinic_max_flow",
    "edmonds_karp_max_flow",
    "solve_max_flow",
    "BipartiteCoverInstance",
    "CoverResult",
    "min_weight_vertex_cover",
]
