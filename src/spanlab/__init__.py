"""Vertex spans of simple connected graphs.

Two actors walk a graph, each must visit every vertex, and they want to
stay as far apart as possible at every step.  The best achievable safety
distance depends on the movement rule (each may stay / both must move /
exactly one moves) and is computed here exactly, with witness walks and an
independent brute-force oracle.
"""

from . import families, io, verify
from .engine import (
    MoveAttribution,
    SpanReport,
    TrackPair,
    TrackValidation,
    compute_span,
    direct_to_lazy,
    extract_witness_tracks,
    lazy_to_direct,
    move_attribution,
    validate_tracks,
)
from .families import FamilySpec, expected_spans, generate, named_graph
from .errors import (
    BadCharError,
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListSyntaxError,
    EmptyGraphError,
    InvalidTracksError,
    LengthMismatchError,
    NotActiveConformantError,
    NotLazyConformantError,
    OrderTooSmallError,
    ParameterOutOfRangeError,
    SelfLoopError,
    SpanlabError,
    TooLargeError,
    UnknownGraphIdError,
    VertexOutOfRangeError,
)
from .graph import Graph, bridges, eccentricity
from .io import (
    emit_edge_list,
    emit_graph6,
    emit_witness_dot,
    parse_edge_list,
    parse_graph6,
)
from .product import MovementRule
from .verify import (
    GraphRecord,
    check_graph,
    check_theorems,
    cut_edge_bound,
    enumerate_connected,
    oracle_span,
    random_graphs,
)

__version__ = "0.1.0"
