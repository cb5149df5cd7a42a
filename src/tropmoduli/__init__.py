"""Exact-arithmetic toolkit for tropical moduli of curves.

Enumerates stable vertex-weighted marked graphs, assembles the tropical
moduli cone complex and its volume-1 link, computes the link's reduced
rational homology (equivalently, top-weight cohomology of the moduli space
of curves), tropicalizes curves from stable-model data, and computes
tropical plane curves from coefficient valuations.
"""

from .complexes import Cone, FacePoset, build_poset, complex_dimension, link_cells
from .enumeration import TypeCatalog, cone_point, count_types, enumerate_types, max_edges
from .errors import (
    ExtendedCurveError,
    GraphError,
    InternalConsistencyError,
    MalformedModelError,
    RejectedModelError,
    ResourceBoundExceeded,
    UnstableTypeError,
)
from .graphs import EdgeAutomorphismGroup, GraphIsoCertificate, WeightedMarkedGraph
from .homology import (
    ChainComplex,
    HomologyProfile,
    build_chain_complex,
    euler_characteristic,
    reduced_homology,
    top_weight_cohomology,
)
from .metric import MetricGraph, StableModelDescription, tropicalize_model
from .plane import (
    NewtonSubdivision,
    TropicalPlaneCurve,
    TropicalPolynomial,
    newton_subdivision,
    render_svg,
    tropical_curve,
)
from .rationals import INF, Infinity, format_rational, parse_length, parse_rational

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "FacePoset",
    "build_poset",
    "complex_dimension",
    "link_cells",
    "TypeCatalog",
    "cone_point",
    "count_types",
    "enumerate_types",
    "max_edges",
    "ExtendedCurveError",
    "GraphError",
    "InternalConsistencyError",
    "MalformedModelError",
    "RejectedModelError",
    "ResourceBoundExceeded",
    "UnstableTypeError",
    "EdgeAutomorphismGroup",
    "GraphIsoCertificate",
    "WeightedMarkedGraph",
    "ChainComplex",
    "HomologyProfile",
    "build_chain_complex",
    "euler_characteristic",
    "reduced_homology",
    "top_weight_cohomology",
    "MetricGraph",
    "StableModelDescription",
    "tropicalize_model",
    "NewtonSubdivision",
    "TropicalPlaneCurve",
    "TropicalPolynomial",
    "newton_subdivision",
    "render_svg",
    "tropical_curve",
    "INF",
    "Infinity",
    "format_rational",
    "parse_length",
    "parse_rational",
    "__version__",
]
