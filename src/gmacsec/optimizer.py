"""Search over input schemes: grid and random sampling, local refinement,
secrecy-capacity maximization, and region assembly.

Scheme parameter spaces are products of probability simplices (one per
conditional row plus one joint block). All strategies walk those simplices
in a fixed deterministic order, so identical configurations reproduce
identical outputs bit for bit.
"""

from __future__ import annotations

import itertools
# Unused here: perfbench/spans.py reads and patches optimizer.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelSpec, check_stochastically_degraded
from .errors import GridTooLarge
from . import one_set as _one
from . import two_set as _two
from .infotheory import _SCHEME_FIELDS, scheme_to_dict
from .regions import RateRegion, bound_pieces, convexify, piece_is_empty

GRID_CEILING = 100_000_000

# Each bound: the scheme variant searched, and its constraint table.
_BOUND_TABLES = {
    "inner-one-set": ("one_set", _one.INNER),
    "outer-one-set": ("one_set_outer", _one.OUTER),
    "secrecy-one-set": ("one_set", _one.SECRECY),
    "degraded": ("degraded", _one.DEGRADED),
    "two-set": ("two_set", _two.TWO_SET),
    "secrecy-two-set": ("two_set", _two.SECRECY),
}
BOUNDS = tuple(_BOUND_TABLES)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for scheme search.

    cardinalities are (|Q|, |U|, |V|); variants that do not use U or V
    ignore the respective entry. strategy is one of "grid", "random",
    "random+refine". grid_resolution counts points per simplex axis, so a
    k-simplex gets the compositions of grid_resolution - 1 into k parts.
    refine_step is the initial perturbation size for hill climbing and
    shrinks by half whenever a full sweep yields no improvement.
    """

    cardinalities: tuple[int, int, int] = (2, 3, 2)
    strategy: str = "random"
    grid_resolution: int = 3
    sample_count: int = 200
    seed: int = 12345
    refine_iterations: int = 40
    refine_step: float = 0.25

    def __post_init__(self):
        cards = tuple(int(c) for c in self.cardinalities)
        if len(cards) != 3 or any(c < 1 for c in cards):
            raise ValueError(f"cardinalities must be three ints >= 1: {cards}")
        object.__setattr__(self, "cardinalities", cards)
        if self.strategy not in ("grid", "random", "random+refine"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be nonnegative")
        if not (0 < self.refine_step <= 1):
            raise ValueError("refine_step must lie in (0, 1]")

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown SearchConfig keys: {sorted(unknown)}")
        kwargs = dict(doc)
        if "cardinalities" in kwargs:
            kwargs["cardinalities"] = tuple(kwargs["cardinalities"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {**asdict(self), "cardinalities": list(self.cardinalities)}


def full_cardinalities(channel: ChannelSpec, degraded: bool = False) -> tuple[int, int, int]:
    """Auxiliary alphabet sizes large enough to exhaust the bounds.

    For the general forms |Q| = |X1||X2| + 3 and |U| = |X1|^2 |X2|^2 +
    4 |X1||X2| + 3 suffice; the degraded forms need only |Q| = |X1||X2| + 1
    and no auxiliary at all. |V| gets the |U| ceiling since no tighter one
    is known.
    """
    k = channel.size_x1 * channel.size_x2
    if degraded:
        return (k + 1, 1, 1)
    cu = k * k + 4 * k + 3
    return (k + 3, cu, cu)


def _blocks(variant: str, channel: ChannelSpec, config: SearchConfig):
    """Simplex blocks (name, rows, cols, reshape) for one scheme variant, in
    the order of its fields.

    reshape gives the final array shape when it differs from (rows, cols);
    p_q_x2 is sampled as a single long simplex and folded into its matrix.
    """
    if variant not in _SCHEME_FIELDS:
        raise ValueError(f"unknown scheme variant {variant!r}")
    nq, nu, nv = config.cardinalities
    nx1, nx2 = channel.size_x1, channel.size_x2
    shapes = {
        "p_q": (1, nq, (nq,)),
        "p_q_x2": (1, nq * nx2, (nq, nx2)),
        "p_u_given_q": (nq, nu, None),
        "p_x1_given_u": (nu, nx1, None),
        "p_v_given_q": (nq, nv, None),
        "p_x2_given_v": (nv, nx2, None),
        "p_x1_given_q": (nq, nx1, None),
    }
    return [(name, *shapes[name]) for name in _SCHEME_FIELDS[variant][1]]


def _build(variant, blocks, arrays):
    kwargs = {}
    for (name, rows, cols, reshape), arr in zip(blocks, arrays):
        arr = np.asarray(arr, dtype=float)
        kwargs[name] = arr.reshape(reshape) if reshape is not None else arr
    return _SCHEME_FIELDS[variant][0](**kwargs)


def _split(params: np.ndarray, blocks) -> list:
    """Parameter rows, shape (..., P), cut into their simplex blocks, each
    of shape (..., rows, cols)."""
    out = []
    pos = 0
    for name, rows, cols, reshape in blocks:
        block = params[..., pos:pos + rows * cols]
        out.append(block.reshape(*params.shape[:-1], rows, cols))
        pos += rows * cols
    return out


def _simplex_grid(k: int, resolution: int):
    """All length-k probability vectors with entries on an m-step grid,
    m = resolution - 1, in lexicographic order."""
    m = resolution - 1
    if k == 1:
        return [np.array([1.0])]
    out = []
    for cuts in itertools.combinations(range(m + k - 1), k - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(m + k - 2 - prev)
        out.append(np.array(counts, dtype=float) / m)
    return out


def _grid_rows(blocks, config: SearchConfig):
    """Parameter rows of the grid, in row-major order of the simplex rows."""
    row_grids = []
    total = 1
    for name, rows, cols, reshape in blocks:
        grid = _simplex_grid(cols, config.grid_resolution)
        for _ in range(rows):
            row_grids.append(grid)
            total *= len(grid)
            if total > GRID_CEILING:
                raise GridTooLarge(
                    f"grid enumeration would visit more than {GRID_CEILING} schemes"
                )
    for combo in itertools.product(*row_grids):
        yield np.concatenate(combo)


def _random_rows(blocks, config: SearchConfig, count: int):
    """Parameter rows drawn flat Dirichlet, block by block, scheme by scheme."""
    rng = np.random.default_rng(config.seed)
    for _ in range(count):
        yield np.concatenate([rng.dirichlet(np.ones(cols), size=rows).ravel()
                              for name, rows, cols, reshape in blocks])


def parameter_rows(variant: str, channel: ChannelSpec, config: SearchConfig):
    """The configured search's schemes as raw parameter rows.

    Each row is one scheme: its simplex rows as drawn (not renormalized),
    concatenated in the variant's block order. The grid strategy walks
    enumerate_schemes_grid's order and the random ones sample
    sample_schemes_random's stream. Every scheme a search or a region
    assembly visits comes from here, once.
    """
    blocks = _blocks(variant, channel, config)
    if config.strategy == "grid":
        yield from _grid_rows(blocks, config)
    else:
        yield from _random_rows(blocks, config, config.sample_count)


def enumerate_schemes_grid(variant: str, channel: ChannelSpec, config: SearchConfig):
    """Deterministic grid enumeration of schemes for one variant.

    Every simplex row independently walks the grid; the full product is
    yielded in row-major order. Raises GridTooLarge when the product of the
    per-row grid sizes exceeds 1e8.
    """
    blocks = _blocks(variant, channel, config)
    for row in _grid_rows(blocks, config):
        yield _build(variant, blocks, _split(row, blocks))


def sample_schemes_random(variant: str, channel: ChannelSpec, config: SearchConfig,
                          count: int | None = None):
    """Sample schemes with every simplex row drawn flat Dirichlet.

    The stream is a pure function of the seed; rows are drawn in block
    order, schemes in sequence.
    """
    blocks = _blocks(variant, channel, config)
    n = config.sample_count if count is None else int(count)
    for row in _random_rows(blocks, config, n):
        yield _build(variant, blocks, _split(row, blocks))


def _scheme_rows(scheme, blocks):
    rows = []
    for name, nrows, cols, reshape in blocks:
        arr = np.asarray(getattr(scheme, name), dtype=float).reshape(nrows, cols)
        rows.append(arr)
    return rows


def _project_row(row: np.ndarray) -> np.ndarray:
    row = np.clip(row, 0.0, None)
    s = row.sum()
    if s <= 0:
        return np.full(row.shape, 1.0 / row.size)
    return row / s


def refine_local(objective, scheme, variant: str, channel: ChannelSpec,
                 config: SearchConfig):
    """Deterministic perturb-and-project hill climbing from one scheme.

    Sweeps every simplex coordinate with +/- step nudges (renormalizing the
    row each time), keeps strict improvements, and halves the step after any
    sweep without one. Returns (best_value, best_scheme); the value never
    drops below the starting objective.
    """
    blocks = _blocks(variant, channel, config)
    best_rows = _scheme_rows(scheme, blocks)
    best_scheme = scheme
    best_value = objective(scheme)
    step = config.refine_step
    for _ in range(config.refine_iterations):
        improved = False
        for bi, rows in enumerate(best_rows):
            for ri in range(rows.shape[0]):
                for ci in range(rows.shape[1]):
                    for sign in (1.0, -1.0):
                        cand_rows = [r.copy() for r in best_rows]
                        cand_rows[bi][ri, ci] += sign * step
                        cand_rows[bi][ri] = _project_row(cand_rows[bi][ri])
                        cand = _build(variant, blocks, cand_rows)
                        value = objective(cand)
                        if value > best_value + 1e-12:
                            best_rows = cand_rows
                            best_scheme = cand
                            best_value = value
                            improved = True
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return best_value, best_scheme


# Schemes scored at once hold at most this many joint cells between them.
BLOCK_CELLS = 1 << 18

def _normalized(raw: np.ndarray, blocks) -> list:
    """The stacked tables of a block of parameter rows, each simplex row
    divided by its sum as the scheme dataclasses divide it."""
    tables = []
    for (name, rows, cols, reshape), arr in zip(blocks, _split(raw, blocks)):
        arr = arr / arr.sum(axis=2, keepdims=True)
        tables.append(arr.reshape(len(raw), *reshape) if reshape is not None else arr)
    return tables


def maximize_secrecy_capacity(channel: ChannelSpec, r0: float = 0.0,
                              config: SearchConfig | None = None,
                              variant: str = "general"):
    """Best achievable confidential rate at common rate r0 over the search.

    variant "general" searches one-auxiliary schemes and scores them with
    secrecy_capacity_value; "degraded" searches plain input schemes with the
    degraded-channel score. Returns (value, scheme).

    The parameter rows are scored in blocks of at most BLOCK_CELLS joint
    cells: one einsum and one entropy pass per block (secrecy_capacities),
    each value the bits the scheme's own score gives. A scan in stream order
    then keeps the winner: a value wins if it beats the best by more than
    1e-15, or ties within 1e-15 with a lexicographically smaller normalized
    parameter vector, so the winner is stable. Only the winner becomes a
    scheme; random+refine then refines it.
    """
    config = config or SearchConfig()
    # the scheme variant, its stacked terms and scalar score, and the
    # auxiliary alphabets its joint adds to (X1, X2, Y, Y2)
    nq, nu, _ = config.cardinalities
    if variant == "general":
        scheme_variant, terms, scalar_score, aux = (
            "one_set", _one.stacked_one_set_terms, _one.secrecy_capacity_value, nq * nu)
    elif variant == "degraded":
        scheme_variant, terms, scalar_score, aux = (
            "degraded", _one.stacked_degraded_terms,
            _one.degraded_secrecy_capacity_value, nq)
    else:
        raise ValueError(f"variant must be 'general' or 'degraded', got {variant!r}")
    blocks = _blocks(scheme_variant, channel, config)
    cells = aux * channel.size_x1 * channel.size_x2 * channel.size_y * channel.size_y2
    stream = parameter_rows(scheme_variant, channel, config)
    # value, raw row, normalized row, and its key tuple once a tie needs it
    best = None
    while raw := list(itertools.islice(stream, max(1, BLOCK_CELLS // cells))):
        raw = np.array(raw)
        tables = _normalized(raw, blocks)
        keys = np.concatenate([t.reshape(len(raw), -1) for t in tables], axis=1)
        values = _one.secrecy_capacities(terms, tables, channel, r0).tolist()
        for i, value in enumerate(values):
            if best is None or value > best[0] + 1e-15:
                best = [value, raw[i], keys[i], None]
            elif value >= best[0] - 1e-15:
                key = tuple(keys[i].tolist())
                if best[3] is None:
                    best[3] = tuple(best[2].tolist())
                if key < best[3]:
                    best = [value, raw[i], keys[i], key]
    if best is None:
        raise ValueError("empty scheme stream")
    value = best[0]
    scheme = _build(scheme_variant, blocks, _split(best[1], blocks))
    if config.strategy == "random+refine" and config.refine_iterations > 0:
        value, scheme = refine_local(lambda s: scalar_score(s, channel, r0), scheme,
                                     scheme_variant, channel, config)
    return value, scheme


def assemble_region(channel: ChannelSpec, bound: str,
                    config: SearchConfig | None = None) -> RateRegion:
    """Search schemes, collect their pieces, and convexify the union.

    bound picks the construction (see BOUNDS). Schemes are evaluated in
    stream order. Every expanded piece is tested for emptiness once; empty
    ones are dropped but counted in the result's info.
    """
    config = config or SearchConfig()
    if bound not in _BOUND_TABLES:
        raise ValueError(f"unknown bound {bound!r}; expected one of {BOUNDS}")
    variant, table = _BOUND_TABLES[bound]
    certificate = None
    if bound == "degraded":
        certificate = check_stochastically_degraded(channel)
        _one._flag_if_not_degraded(channel, certificate)
    blocks = _blocks(variant, channel, config)
    visited = 0
    pieces = []
    provenance = []
    dropped = 0
    for row in parameter_rows(variant, channel, config):
        visited += 1
        scheme = _build(variant, blocks, _split(row, blocks))
        doc = scheme_to_dict(scheme)
        for piece in bound_pieces(table, table.terms(scheme, channel), drop_empty=False):
            if piece_is_empty(piece):
                dropped += 1
                continue
            pieces.append(piece)
            provenance.append(doc)
    info = {
        "bound": bound,
        "config": config.to_dict(),
        "schemes_visited": visited,
        "empty_pieces_dropped": dropped,
    }
    if certificate is not None:
        info["degradedness_verdict"] = certificate.verdict
        info["degradedness_residual"] = certificate.residual
    return convexify(pieces, coords=table.coords, provenance=provenance, info=info)
