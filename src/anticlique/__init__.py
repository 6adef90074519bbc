"""Exact anticlique (independent set) toolkit built on five-valued row exclusion.

The library enumerates, counts and optimizes over the independent sets of a
simple graph by shrinking a compact row representation of the powerset, one
anti-implication per vertex, instead of visiting sets one by one.
"""

from .enumerator import (
    SearchStats,
    cover_degree_order,
    cover_order,
    degree_order,
    enumerate_anticliques,
    fibonacci_number,
    full_order,
    independence_polynomial,
    rows_polynomial,
    run_standard,
)
from .errors import (
    ConfigurationError,
    GraphFormatError,
    GuardExceeded,
    SearchTimeout,
)
from .graph import (
    Graph,
    bipartition,
    make_graph,
    parse_graph,
    random_graph,
    serialize_graph,
    to_complement,
)
from .imposition import ImpositionOutcome, Mutated, Split, Unchanged, impose
from .maximal import (
    ContainIndex,
    MaximalFamily,
    chromatic_number,
    chromatic_with_stats,
    maximal_anticliques,
    maximal_family,
    row_maximal_members,
    sieve_maximal,
)
from .oracle import OracleReport, oracle_matching, oracle_report
from .rows import Polynomial, Row, full_row, row_from_debug, spectrum_of_shapes
from .search import (
    MaxResult,
    SearchOptions,
    all_max_anticliques,
    bipartite_options,
    core,
    max_anticlique,
    max_weight_anticlique,
    maximum_sets,
    threshold_alpha,
    threshold_search,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContainIndex",
    "Graph",
    "GraphFormatError",
    "GuardExceeded",
    "ImpositionOutcome",
    "MaxResult",
    "MaximalFamily",
    "Mutated",
    "OracleReport",
    "Polynomial",
    "Row",
    "SearchOptions",
    "SearchStats",
    "SearchTimeout",
    "Split",
    "Unchanged",
    "all_max_anticliques",
    "bipartite_options",
    "bipartition",
    "chromatic_number",
    "chromatic_with_stats",
    "core",
    "cover_degree_order",
    "cover_order",
    "degree_order",
    "enumerate_anticliques",
    "fibonacci_number",
    "full_order",
    "full_row",
    "impose",
    "independence_polynomial",
    "make_graph",
    "max_anticlique",
    "max_weight_anticlique",
    "maximal_anticliques",
    "maximal_family",
    "maximum_sets",
    "oracle_matching",
    "oracle_report",
    "parse_graph",
    "random_graph",
    "row_from_debug",
    "row_maximal_members",
    "rows_polynomial",
    "run_standard",
    "serialize_graph",
    "sieve_maximal",
    "spectrum_of_shapes",
    "threshold_alpha",
    "threshold_search",
    "to_complement",
]
