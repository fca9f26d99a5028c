"""Rate regions and exact code simulation for two-sender channels where
each sender doubles as the other's eavesdropper.

The library is organized bottom-up: channel descriptions and validation
(channel), exact discrete information measures over assembled joints
(infotheory), polytope and region machinery (regions), the single- and
two-confidential-message bound constructions (one_set, two_set), scheme
search (optimizer), and an exact small-blocklength binning simulator
(wiretap_sim). The cli module exposes all of it over files.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelSpec,
    DegradednessCertificate,
    check_physically_degraded,
    check_stochastically_degraded,
    compose_degraded_channel,
    load_channel,
    marginal_kernel,
    perturb_preserving_marginals,
    save_channel,
    validate_channel,
)
from .errors import (
    DimensionMismatch,
    EmptySlice,
    EnumerationTooLarge,
    GmacError,
    GridTooLarge,
    InternalError,
    NegativeProbability,
    NotDegradedWarning,
    RowSumViolation,
    SolverStall,
    Unbounded,
    UnknownVariable,
    VertexEnumerationOverflow,
    max_states,
)
from .infotheory import (
    JointPMF,
    SchemeDegraded,
    SchemeOneSet,
    SchemeOneSetOuter,
    SchemeTwoSet,
    assemble_joint_degraded,
    assemble_joint_one_set,
    assemble_joint_one_set_outer,
    assemble_joint_two_set,
    entropy,
    mutual_information,
    scheme_from_dict,
    scheme_to_dict,
)
from .one_set import (
    degraded_polytope,
    degraded_secrecy_capacity_value,
    degraded_secrecy_polytope,
    degraded_terms,
    inner_polytope,
    one_set_terms,
    outer_polytope,
    secrecy_capacity_value,
    secrecy_polytope,
)
from .optimizer import (
    BOUNDS,
    SearchConfig,
    assemble_region,
    enumerate_schemes_grid,
    full_cardinalities,
    maximize_secrecy_capacity,
    refine_local,
    sample_schemes_random,
)
from .regions import (
    FrontierSample,
    RatePolytope,
    RateRegion,
    clip_plus_split,
    convexify,
    frontier,
    frontier_sweep,
    piece_contains,
    piece_is_empty,
    piece_support,
    piece_vertices,
    polytope,
    region_contains,
    region_support,
    slice_piece,
)
from .two_set import (
    equivocation_set_explicit,
    equivocation_set_oracle,
    mac_polytope,
    secrecy_inner_pieces,
    two_set_region_piece,
    two_set_terms,
)
from .wiretap_sim import (
    Codebook,
    SimReport,
    build_codebook,
    equivocation_joint,
    exact_equivocation,
    exact_error_probability,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
