"""Search over input schemes: grid and random sampling, local refinement,
secrecy-capacity maximization, and region assembly.

Scheme parameter spaces are products of probability simplices (one per
conditional row plus one joint block). All strategies walk those simplices
in a fixed deterministic order, so identical configurations reproduce
identical outputs bit for bit.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
# Unused here: perfbench/spans.py reads and patches optimizer.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelSpec, check_stochastically_degraded
from .errors import GridTooLarge, NotDegradedWarning, whole_number
from . import one_set as _one
from . import two_set as _two
from .infotheory import _SCHEME_FIELDS, _joint_shape, _scheme_doc, _simplex_normalized
from .regions import RateRegion, _block_pieces, convexify, piece_is_empty

GRID_CEILING = 100_000_000

# Each bound's constraint table; its kind is the scheme variant searched.
_BOUND_TABLES = {
    "inner-one-set": _one.INNER,
    "outer-one-set": _one.OUTER,
    "secrecy-one-set": _one.SECRECY,
    "degraded": _one.DEGRADED,
    "two-set": _two.TWO_SET,
    "secrecy-two-set": _two.SECRECY,
}
BOUNDS = tuple(_BOUND_TABLES)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for scheme search.

    cardinalities are (|Q|, |U|, |V|); variants that do not use U or V
    ignore the respective entry. strategy is one of "grid", "random",
    "random+refine"; the last only for maximize_secrecy_capacity, as
    assemble_region refuses it. grid_resolution counts points per simplex
    axis, so a k-simplex gets the compositions of grid_resolution - 1 into
    k parts.
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
        cards = self.cardinalities
        if isinstance(cards, (list, tuple)):
            cards = tuple(whole_number("cardinality", c) for c in cards)
        if type(cards) is not tuple or len(cards) != 3 or any(c < 1 for c in cards):
            raise ValueError(f"cardinalities must be three ints >= 1: {cards}")
        object.__setattr__(self, "cardinalities", cards)
        for name in ("grid_resolution", "sample_count", "seed", "refine_iterations"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if self.strategy not in ("grid", "random", "random+refine"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be nonnegative")
        step = self.refine_step
        if not isinstance(step, numbers.Real) or isinstance(step, bool) or not 0 < step <= 1:
            raise ValueError(f"refine_step must lie in (0, 1], got {step!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchConfig":
        if not isinstance(doc, dict):
            raise ValueError("search config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown SearchConfig keys: {sorted(unknown)}")
        return cls(**doc)

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
    """Simplex blocks (name, rows, cols, shape) for one scheme variant, in
    the order of its fields: its kind's layout (infotheory._Kind.blocks) at
    the configured auxiliary sizes and the channel's input sizes."""
    if variant not in _SCHEME_FIELDS:
        raise ValueError(f"unknown scheme variant {variant!r}")
    sizes = (*config.cardinalities, channel.size_x1, channel.size_x2)
    return _SCHEME_FIELDS[variant].blocks(dict(zip(("Q", "U", "V", "X1", "X2"), sizes)))


def _build(variant, blocks, arrays):
    kwargs = {name: np.asarray(arr, dtype=float).reshape(shape)
              for (name, rows, cols, shape), arr in zip(blocks, arrays)}
    return _SCHEME_FIELDS[variant].cls(**kwargs)


def _split(params: np.ndarray, blocks) -> list:
    """Parameter rows, shape (..., P), cut into their simplex blocks, each
    of shape (..., rows, cols)."""
    out = []
    pos = 0
    for name, rows, cols, shape in blocks:
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


# The grid's parameter rows, and the random ones, are built this many at a
# time.
_GRID_CHUNK = 4096


def _grid_rows(blocks, config: SearchConfig):
    """Parameter rows of the grid, in row-major order of the simplex rows:
    the rows of itertools.product over every simplex row's grid, each
    concatenated. They are built a chunk of _GRID_CHUNK at a time, by one
    unravel_index over the per-row grid sizes, and yielded one by one."""
    row_grids = []
    total = 1
    for name, rows, cols, shape in blocks:
        grid = np.array(_simplex_grid(cols, config.grid_resolution))
        for _ in range(rows):
            row_grids.append(grid)
            total *= grid.shape[0]
            if total > GRID_CEILING:
                raise GridTooLarge(
                    f"grid enumeration would visit more than {GRID_CEILING} schemes"
                )
    sizes = [grid.shape[0] for grid in row_grids]
    for start in range(0, total, _GRID_CHUNK):
        picks = np.unravel_index(np.arange(start, min(start + _GRID_CHUNK, total)), sizes)
        yield from np.concatenate([grid[i] for grid, i in zip(row_grids, picks)], axis=1)


def _random_rows(blocks, config: SearchConfig):
    """Parameter rows drawn flat Dirichlet, block by block, scheme by scheme.

    Each simplex row is its own standard exponential draws times the
    reciprocal of their sum, added left to right: the draws and the bits
    of Generator.dirichlet with unit concentrations. A chunk of _GRID_CHUNK
    schemes takes its draws from one call, in stream order, and its rows
    are yielded one by one."""
    rng = np.random.default_rng(config.seed)
    width = sum(rows * cols for name, rows, cols, shape in blocks)
    for start in range(0, config.sample_count, _GRID_CHUNK):
        count = min(_GRID_CHUNK, config.sample_count - start)
        draws = rng.standard_exponential((count, width))
        for block in _split(draws, blocks):
            total = block[..., 0]
            for j in range(1, block.shape[-1]):
                total = total + block[..., j]
            block *= (1.0 / total)[..., None]
        yield from draws


def parameter_rows(variant: str, channel: ChannelSpec, config: SearchConfig):
    """The configured search's schemes as raw parameter rows.

    Each row is one scheme: its simplex rows as drawn (not renormalized),
    concatenated in the variant's block order. The grid strategy walks
    every simplex row's grid, the full product in row-major order (raising
    GridTooLarge past GRID_CEILING schemes); the random ones draw every
    simplex row flat Dirichlet, a pure function of the seed. Every scheme a
    search or a region assembly visits comes from here, once.
    """
    blocks = _blocks(variant, channel, config)
    if config.strategy == "grid":
        yield from _grid_rows(blocks, config)
    else:
        yield from _random_rows(blocks, config)


def _scheme_rows(scheme, blocks):
    rows = []
    for name, nrows, cols, shape in blocks:
        arr = np.asarray(getattr(scheme, name), dtype=float).reshape(nrows, cols)
        rows.append(arr)
    return rows


def _project_row(row: np.ndarray) -> np.ndarray:
    row = np.clip(row, 0.0, None)
    if row.sum() <= 0:
        return np.full(row.shape, 1.0 / row.size)
    return _simplex_normalized(row)


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
    divided by its sum by the scheme dataclasses' own _simplex_normalized."""
    return [_simplex_normalized(arr).reshape(len(raw), *shape)
            for (name, rows, cols, shape), arr in zip(blocks, _split(raw, blocks))]


def _row_blocks(variant: str, channel: ChannelSpec, config: SearchConfig):
    """parameter_rows in stream order, in blocks of at most BLOCK_CELLS joint
    cells: (raw rows, shape (n, P), and their normalized stacked tables).

    Private, so that a tracer wrapping the public generators counts each
    scheme once, where parameter_rows yields it.
    """
    blocks = _blocks(variant, channel, config)
    cells = math.prod(_joint_shape(variant, [shape for *_, shape in blocks], channel))
    stream = parameter_rows(variant, channel, config)
    while raw := list(itertools.islice(stream, max(1, BLOCK_CELLS // cells))):
        raw = np.array(raw)
        yield raw, _normalized(raw, blocks)


def maximize_secrecy_capacity(channel: ChannelSpec, r0: float = 0.0,
                              config: SearchConfig | None = None,
                              variant: str = "general"):
    """Best achievable confidential rate at common rate r0 over the search.

    variant picks the table: "general" scores the one-auxiliary schemes of
    SECRECY, "degraded" the plain input schemes of DEGRADED_SECRECY.
    Returns (value, scheme).

    The parameter rows are scored in blocks of at most BLOCK_CELLS joint
    cells: one einsum and one entropy pass per block (secrecy_capacities),
    each value the bits the scheme's own score gives. A scan in stream order
    then keeps the winner: a value wins if it beats the best by more than
    1e-15, or ties within 1e-15 with a lexicographically smaller normalized
    parameter vector, so the winner is stable. Only the winner becomes a
    scheme; random+refine then refines it.
    """
    config = config or SearchConfig()
    if variant == "general":
        table = _one.SECRECY
    elif variant == "degraded":
        table = _one.DEGRADED_SECRECY
    else:
        raise ValueError(f"variant must be 'general' or 'degraded', got {variant!r}")
    # value, raw row, normalized row, and its key tuple once a tie needs it
    best = None
    for raw, tables in _row_blocks(table.kind, channel, config):
        keys = np.concatenate([t.reshape(len(raw), -1) for t in tables], axis=1)
        values = _one.secrecy_capacities(table, tables, channel, r0).tolist()
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
    blocks = _blocks(table.kind, channel, config)
    scheme = _build(table.kind, blocks, _split(best[1], blocks))
    if config.strategy == "random+refine" and config.refine_iterations > 0:
        value, scheme = refine_local(
            lambda s: _one.secrecy_capacity_value(table, s, channel, r0), scheme,
            table.kind, channel, config)
    return value, scheme


def _degradedness(channel: ChannelSpec):
    """check_stochastically_degraded of the channel, for a search that uses
    the degraded-channel formulas; a channel that is not degraded raises
    NotDegradedWarning."""
    certificate = check_stochastically_degraded(channel)
    if certificate.verdict == "not-degraded":
        warnings.warn(
            "degraded-channel formulas evaluated on a channel that is not "
            f"stochastically degraded (residual {certificate.residual:.3e})",
            NotDegradedWarning,
            stacklevel=3,
        )
    return certificate


def assemble_region(channel: ChannelSpec, bound: str,
                    config: SearchConfig | None = None) -> RateRegion:
    """Search schemes, collect their pieces, and convexify the union.

    bound picks the construction (see BOUNDS). The parameter rows are
    scored in blocks of at most BLOCK_CELLS joint cells, one call of the
    table's stacked terms per block; the block's term columns then fill in
    every scheme's pieces at once, with one vertex pass per sub-block of
    schemes (regions._block_pieces, bound_pieces for a block), in stream
    order. Every expanded piece is tested for emptiness once; empty ones
    are dropped but counted in the result's info. A scheme that keeps a
    piece is recorded as its JSON document, built from its normalized
    tables; no scheme object is built.
    The "random+refine" strategy refines one winning scheme, and a region
    has none, so it raises ValueError.
    """
    config = config or SearchConfig()
    if bound not in _BOUND_TABLES:
        raise ValueError(f"unknown bound {bound!r}; expected one of {BOUNDS}")
    if config.strategy == "random+refine":
        raise ValueError("strategy 'random+refine' refines a single best scheme and "
                         "cannot assemble a region; use 'random' or 'grid'")
    table = _BOUND_TABLES[bound]
    certificate = _degradedness(channel) if bound == "degraded" else None
    visited = 0
    pieces = []
    provenance = []
    dropped = 0
    for raw, tables in _row_blocks(table.kind, channel, config):
        block = _block_pieces(table, table.terms(tables, channel), len(raw))
        for i, scheme_pieces in enumerate(block):
            visited += 1
            doc = None
            for piece in scheme_pieces:
                if piece_is_empty(piece):
                    dropped += 1
                    continue
                if doc is None:
                    doc = _scheme_doc(table.kind, [t[i] for t in tables])
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
