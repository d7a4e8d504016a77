"""Enumeration of minimal Steiner trees within a cost bound.

The pipeline builds a binary decision diagram over the instance's edge
set with a frontier-based search, reduces it, and walks it to produce
the cheapest trees in ascending cost order.  Two lossless-by-expansion
preprocessing stages (seed-tree union and degree-2 contraction) keep
the diagram small on sparse instances.
"""

from .frontier import (
    Bdd,
    ConstructionError,
    FrontierSearch,
    NodeCapExceeded,
    construct_bdd,
)
from .graph import (
    EdgeOrder,
    Graph,
    GraphError,
    ParseError,
    SimplificationMap,
    SteinerTree,
    expand_tree,
    order_edges,
    parse_stp,
    simplify,
    write_stp,
)
from .oracle import OracleError, brute_force_minimal_steiner
from .pipeline import RunConfig, RunResult, resolve_theta, run
from .seeds import (
    SeedConfig,
    SeedSelection,
    select_seeds,
    tosp_tree,
    union_subgraph,
)
from .traverse import (
    EnumerationResult,
    TraversalError,
    count_trees,
    enumerate_trees,
    reduce_bdd,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Bdd",
    "ConstructionError",
    "EdgeOrder",
    "EnumerationResult",
    "FrontierSearch",
    "Graph",
    "GraphError",
    "NodeCapExceeded",
    "OracleError",
    "ParseError",
    "RunConfig",
    "RunResult",
    "SeedConfig",
    "SeedSelection",
    "SimplificationMap",
    "SteinerTree",
    "TraversalError",
    "brute_force_minimal_steiner",
    "construct_bdd",
    "count_trees",
    "enumerate_trees",
    "expand_tree",
    "order_edges",
    "parse_stp",
    "reduce_bdd",
    "resolve_theta",
    "run",
    "select_seeds",
    "simplify",
    "tosp_tree",
    "union_subgraph",
    "validate_tree",
    "write_stp",
]
