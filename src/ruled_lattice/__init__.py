"""Integer intersection lattices of blown-up rational and ruled surfaces,
the reflection groups acting on them, and the bookkeeping those groups
support: fundamental-domain reduction with word certificates, orbit
membership of exceptional classes, Lagrangian sphere systems, adjunction
style integer constraints, and descriptive models of diffeotopy groups."""

from importlib import import_module

__version__ = "0.1.0"

# public names by home module; each is imported on first access (PEP 562)
_EXPORTS = {
    "catalog": (
        "CatalogError",
        "GroupDescription",
        "SMALL_CASE_LABELS",
        "decompose_O12",
        "describe_diffeotopy",
        "evaluate_o12_word",
        "o12_generators",
        "o12_model",
    ),
    "coxeter": (
        "CoxeterError",
        "CoxeterSystem",
        "CrystallographicStructure",
        "INF",
        "crystallographic_lattice_invariance",
        "from_name",
        "is_finite_type",
        "standard_crystal",
        "verify_crystallographic",
    ),
    "lattice": (
        "HomologyClass",
        "Kind",
        "LatticeAutomorphism",
        "LatticeError",
        "ManifoldModel",
        "ModelMismatchError",
        "UnsupportedReflectionError",
        "anticanonical_class",
        "exceptional_class",
        "fiber_class",
        "line_class",
        "pairing",
        "positive_cone_contains",
        "rational_model",
        "reflection_along",
        "ruled_model",
        "section_class",
    ),
    "sw": (
        "SWError",
        "SphereCandidate",
        "Verdict",
        "certify_sphere_class",
        "dichotomy_search",
        "dolgachev_candidate",
        "extremal_sequence",
        "sw_inequality_holds",
    ),
    "weyl": (
        "ClassReduction",
        "GeneratorSet",
        "GroupWord",
        "InternalConsistencyError",
        "LagrangianSystem",
        "OutsideConeError",
        "NotReducedError",
        "PeriodReduction",
        "PeriodVector",
        "expected_coxeter_system",
        "generator_set",
        "lagrangian_system",
        "maximal_system_membership",
        "orbit",
        "rational_periods",
        "reduce_class",
        "reduce_periods",
        "ruled_periods",
        "verify_presentation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("catalog", "coxeter", "lattice", "qsqrt2", "sw", "weyl"))

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
