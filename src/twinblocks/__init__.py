"""Directed-graph connectivity toolkit.

Twinless strongly connected components, strong and twinless bridges,
2-edge blocks, 2-edge-twinless blocks (matrix and refinement algorithms,
plus a brute-force oracle layer), and a k-edge-twinless generalization.
"""

from .core import (Arc, BudgetError, Digraph, GraphError, ParseError,
                   PreconditionError, TwinPair, induced_subgraph,
                   parse_edge_list, remove_arcs, serialize, twin_arc_ids,
                   twin_pairs)
from .partition import Partition, partition_meet
from .connectivity import (CondensationTree, condensation_tscc,
                           is_strongly_connected,
                           is_twinless_strongly_connected,
                           strongly_connected_components,
                           twinless_strongly_connected_components)
from .cuts import BridgeReport, bridge_report, strong_bridges, twinless_bridges
from .blocks import (BlockSet, SeparationMatrix,
                     k_edge_twinless_blocks_bruteforce, tetb_alg1_matrix,
                     tetb_alg2_refine, two_edge_blocks,
                     two_edge_twinless_blocks)
from .testkit import (GeneratorConfig, UndirectedGraph, bridges_undirected,
                      connected_components, oracle_tscc,
                      oracle_twinless_related,
                      oracle_two_edge_twinless_blocks, random_digraph,
                      two_edge_connected_components, underlying_graph)
from . import fixtures

__version__ = "0.1.0"

__all__ = [
    "Arc", "BlockSet", "BridgeReport", "BudgetError", "CondensationTree",
    "Digraph", "GeneratorConfig", "GraphError", "ParseError", "Partition",
    "PreconditionError", "TwinPair", "UndirectedGraph", "bridge_report",
    "bridges_undirected", "condensation_tscc", "connected_components",
    "fixtures", "induced_subgraph", "is_strongly_connected",
    "is_twinless_strongly_connected", "k_edge_twinless_blocks_bruteforce",
    "oracle_tscc", "oracle_twinless_related",
    "oracle_two_edge_twinless_blocks", "parse_edge_list", "partition_meet",
    "random_digraph", "remove_arcs", "SeparationMatrix", "serialize",
    "strong_bridges", "strongly_connected_components", "tetb_alg1_matrix",
    "tetb_alg2_refine", "twin_arc_ids", "twin_pairs", "twinless_bridges",
    "twinless_strongly_connected_components", "two_edge_blocks",
    "two_edge_connected_components", "two_edge_twinless_blocks",
    "underlying_graph",
]
