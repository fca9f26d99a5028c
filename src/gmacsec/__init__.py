"""Rate regions and exact code simulation for two-sender channels where
each sender doubles as the other's eavesdropper.

The library is organized bottom-up: channel descriptions and validation
(channel), exact discrete information measures over assembled joints
(infotheory), polytope and region machinery (regions), the single- and
two-confidential-message bound constructions (one_set, two_set), scheme
search (optimizer), and an exact small-blocklength binning simulator
(wiretap_sim). The cli module exposes all of it over files.

Importing the package loads no submodule. Each exported name is imported
from its submodule on first use, so a program pays only for the layers it
touches: `gmacsec.simulate` never loads the region and search stack.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# export name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ChannelSpec",
        "DegradednessCertificate",
        "check_physically_degraded",
        "check_stochastically_degraded",
        "compose_degraded_channel",
        "load_channel",
        "marginal_kernel",
        "save_channel",
        "validate_channel",
    ), "channel"),
    **dict.fromkeys((
        "DimensionMismatch",
        "EmptySlice",
        "EnumerationTooLarge",
        "GmacError",
        "GridTooLarge",
        "InternalError",
        "NegativeProbability",
        "NotDegradedWarning",
        "RowSumViolation",
        "SolverStall",
        "Unbounded",
        "UnknownVariable",
        "VertexEnumerationOverflow",
        "max_states",
    ), "errors"),
    **dict.fromkeys((
        "SchemeDegraded",
        "SchemeOneSet",
        "SchemeOneSetOuter",
        "SchemeTwoSet",
        "scheme_from_dict",
        "scheme_to_dict",
    ), "infotheory"),
    **dict.fromkeys((
        "secrecy_capacity_value",
    ), "one_set"),
    **dict.fromkeys((
        "BOUNDS",
        "SearchConfig",
        "assemble_region",
        "full_cardinalities",
        "maximize_secrecy_capacity",
        "refine_local",
    ), "optimizer"),
    **dict.fromkeys((
        "FrontierSample",
        "RatePolytope",
        "RateRegion",
        "bound_pieces",
        "convexify",
        "frontier",
        "frontier_sweep",
        "piece_is_empty",
        "piece_vertices",
        "polytope",
        "region_contains",
        "region_support",
    ), "regions"),
    **dict.fromkeys((
        "equivocation_set_explicit",
    ), "two_set"),
    **dict.fromkeys((
        "Codebook",
        "SimReport",
        "build_codebook",
        "equivocation_joint",
        "exact_equivocation",
        "exact_error_probability",
        "simulate",
    ), "wiretap_sim"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # PEP 562: called only for names not yet in the module's globals
    if name in _EXPORTS:
        value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _EXPORTS.values():
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS.values()})
