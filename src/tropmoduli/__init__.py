"""Exact-arithmetic toolkit for tropical moduli of curves.

Enumerates stable vertex-weighted marked graphs, assembles the tropical
moduli cone complex and its volume-1 link, computes the link's reduced
rational homology (equivalently, top-weight cohomology of the moduli space
of curves), tropicalizes curves from stable-model data, and computes
tropical plane curves from coefficient valuations.

Each exported name is imported from its module on first use (PEP 562), so
importing the package, or one of its modules, loads no other module.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "complexes": ("Cone", "FacePoset", "build_poset", "complex_dimension", "link_cells"),
    "enumeration": ("TypeCatalog", "cone_point", "count_types", "enumerate_types", "max_edges"),
    "errors": (
        "ExtendedCurveError",
        "GraphError",
        "InternalConsistencyError",
        "MalformedModelError",
        "RejectedModelError",
        "ResourceBoundExceeded",
        "UnstableTypeError",
    ),
    "graphs": ("EdgeAutomorphismGroup", "GraphIsoCertificate", "WeightedMarkedGraph"),
    "homology": (
        "ChainComplex",
        "HomologyProfile",
        "build_chain_complex",
        "euler_characteristic",
        "reduced_homology",
        "top_weight_cohomology",
    ),
    "metric": ("MetricGraph", "StableModelDescription", "tropicalize_model"),
    "plane": (
        "NewtonSubdivision",
        "TropicalPlaneCurve",
        "TropicalPolynomial",
        "newton_subdivision",
        "render_svg",
        "tropical_curve",
    ),
    "rationals": ("INF", "Infinity", "format_rational", "parse_length", "parse_rational"),
}

#: The defining module of each exported name.
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
