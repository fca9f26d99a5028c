"""Rate polytopes, positive-part expansion, hulls, and frontier sweeps.

A RatePolytope is {x >= 0 : A x <= b} over named rate coordinates;
nonnegativity of every coordinate is always implicit and never appears in A.
Bound constructions with [.]_+ brackets are expressed as templates whose
clipped constraints are expanded into a union of plain polytopes by
clip_plus_split. Regions are unions of pieces, optionally convexified into a
cached vertex cloud.

Each bound the package builds is a BoundTable: fixed constraint rows whose
right-hand sides are signed sums of information terms, turned into
pieces per scheme by bound_pieces.

Because every piece is pointed, emptiness and support queries are answered
from its vertices, which each piece enumerates once from subsystem inverses
cached per constraint matrix; hull slices come from Qhull's facets of the
vertex cloud.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from .channel import _LP_OPTIONS, linprog
from .errors import (
    EmptySlice,
    SolverStall,
    Unbounded,
    VertexEnumerationOverflow,
)

DEDUP_TOL = 1e-9
DEDUP_DECIMALS = 9
VERTEX_CEILING = 100_000
COMBO_CEILING = 2_000_000
# Index arrays of at most this many subsets stay cached (16 of them at most).
COMBO_CACHED = 65_536
# Vertices whose support is within this of the maximum tie for the witness.
TIE_TOL = 1e-12
# Hull slices: rows are loosened by SLICE_SLACK (above the 1e-9 vertex
# feasibility slack) while clipping; rows within SLICE_NEAR of the clipped
# polygon are kept for vertex enumeration.
SLICE_SLACK = 1e-8
SLICE_NEAR = 1e-7



def ConvexHull(points):
    """scipy.spatial.ConvexHull, imported on first use: scipy.spatial takes
    most of the package's import time, and only hulls need it."""
    from scipy.spatial import ConvexHull as hull
    return hull(points)


def _qhull_error():
    # evaluated by an except clause only once an exception is raised
    from scipy.spatial import QhullError
    return QhullError


@dataclass(frozen=True)
class RatePolytope:
    """One conjunctive piece: {x >= 0 : A x <= b} over coords."""

    coords: tuple[str, ...]
    A: np.ndarray
    b: np.ndarray
    _vertices: np.ndarray | None = field(default=None, init=False, repr=False,
                                         compare=False)
    _rays: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[1] != len(self.coords) and A.size > 0:
            raise ValueError(
                f"constraint width {A.shape[1]} vs {len(self.coords)} coords"
            )
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts differ")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def vertices(self) -> np.ndarray:
        """The piece's vertices (read-only), enumerated on first use."""
        if self._vertices is None:
            verts = piece_vertices(self)
            verts.setflags(write=False)
            object.__setattr__(self, "_vertices", verts)
        return self._vertices

    @property
    def rays(self) -> np.ndarray:
        """Vertices of the recession cone {r >= 0 : A r <= 0} cut by
        sum r <= 1 (read-only), enumerated on first use. The piece recedes
        without bound along d exactly when one of them has d.r > 0."""
        if self._rays is None:
            d = self.dim
            cone = RatePolytope(self.coords, np.vstack([self.A, np.ones((1, d))]),
                                np.append(np.zeros(self.A.shape[0]), 1.0))
            object.__setattr__(self, "_rays", cone.vertices)
        return self._rays

    def constraints(self):
        """The (coefficients, bound) pairs, excluding implicit nonnegativity."""
        return [(self.A[i].copy(), float(self.b[i])) for i in range(len(self.b))]


def polytope(coords, constraint_pairs) -> RatePolytope:
    """Build a RatePolytope from (coefficient vector, bound) pairs."""
    coords = tuple(coords)
    d = len(coords)
    if not constraint_pairs:
        return RatePolytope(coords, np.zeros((0, d)), np.zeros(0))
    A = np.array([np.asarray(c, dtype=float) for c, _ in constraint_pairs])
    b = np.array([float(v) for _, v in constraint_pairs])
    return RatePolytope(coords, A, b)


def piece_contains(piece: RatePolytope, point, tol: float = 1e-9) -> bool:
    """Membership test with additive slack tol on every constraint."""
    x = np.asarray(point, dtype=float)
    if x.shape != (piece.dim,):
        raise ValueError(f"point of dim {x.shape} vs polytope dim {piece.dim}")
    if np.any(x < -tol):
        return False
    if piece.A.shape[0] == 0:
        return True
    return bool(np.all(piece.A @ x <= piece.b + tol))


def piece_is_empty(piece: RatePolytope) -> bool:
    """Whether the piece has no point.

    x >= 0 is implicit, so a nonempty piece is pointed and has a vertex.
    """
    return piece.vertices.shape[0] == 0


def _vertex_argmax(verts: np.ndarray, direction: np.ndarray):
    """(max d.x, witness) over a nonempty vertex array.

    The witness is the vertex with the largest coordinate sum among those
    within TIE_TOL of the maximum, which is the Pareto-maximal corner of the
    optimal face; a remaining tie goes to the lexicographically largest.
    """
    values = verts @ direction
    value = float(np.max(values))
    cand = verts[values >= value - TIE_TOL]
    sums = cand.sum(axis=1)
    cand = cand[sums >= np.max(sums) - TIE_TOL]
    return value, cand[np.lexsort(cand.T[::-1])[-1]]


def piece_support(piece: RatePolytope, direction) -> tuple[float, np.ndarray]:
    """max d.x over the piece; returns (value, maximizing vertex).

    The maximum is taken over the piece's vertices, with the witness tie
    rule of _vertex_argmax. Raises EmptySlice when the piece is empty and
    Unbounded when it recedes without bound in that direction.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (piece.dim,):
        raise ValueError("direction dimension mismatch")
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    verts = piece.vertices
    if verts.shape[0] == 0:
        raise EmptySlice("support of an empty piece")
    if np.max(piece.rays @ d) > DEDUP_TOL:
        raise Unbounded(f"support unbounded along {direction}")
    return _vertex_argmax(verts, d)


def slice_piece(piece: RatePolytope, fixed: dict) -> RatePolytope:
    """Substitute fixed coordinate values, keeping the remaining coords.

    A fixed value below zero contradicts implicit nonnegativity, so the
    result is made infeasible explicitly (0 <= -1).
    """
    for name in fixed:
        if name not in piece.coords:
            raise ValueError(f"cannot fix unknown coordinate {name!r}")
    keep_idx = [i for i, c in enumerate(piece.coords) if c not in fixed]
    fix_idx = [i for i, c in enumerate(piece.coords) if c in fixed]
    if not keep_idx:
        raise ValueError("slice must keep at least one coordinate")
    vals = np.array([float(fixed[piece.coords[i]]) for i in fix_idx])
    new_coords = tuple(piece.coords[i] for i in keep_idx)
    if piece.A.shape[0]:
        new_A = piece.A[:, keep_idx]
        new_b = piece.b - piece.A[:, fix_idx] @ vals
    else:
        new_A = np.zeros((0, len(keep_idx)))
        new_b = np.zeros(0)
    if np.any(vals < -DEDUP_TOL):
        new_A = np.vstack([new_A, np.zeros((1, len(keep_idx)))])
        new_b = np.append(new_b, -1.0)
    return RatePolytope(new_coords, new_A, new_b)


@dataclass(frozen=True)
class ClippedConstraint:
    """lhs . x <= [affine . x + const]_+ inside a template."""

    lhs: np.ndarray
    affine: np.ndarray
    const: float


@dataclass(frozen=True)
class PolytopeTemplate:
    """Plain constraints plus positive-part constraints, pre-expansion."""

    coords: tuple[str, ...]
    plain: tuple
    clipped: tuple


def template(coords, plain, clipped) -> PolytopeTemplate:
    coords = tuple(coords)
    d = len(coords)
    plain_t = tuple(
        (np.asarray(c, dtype=float), float(v)) for c, v in plain
    )
    clipped_t = []
    for lhs, affine, const in clipped:
        lhs = np.asarray(lhs, dtype=float)
        affine = np.asarray(affine, dtype=float)
        if lhs.shape != (d,) or affine.shape != (d,):
            raise ValueError("clipped constraint width mismatch")
        clipped_t.append(ClippedConstraint(lhs, affine, float(const)))
    return PolytopeTemplate(coords, plain_t, tuple(clipped_t))


def clip_plus_split(tmpl: PolytopeTemplate, drop_empty: bool = True):
    """Expand positive-part constraints into a union of plain polytopes.

    x satisfies lhs.x <= [g(x)]_+ exactly when lhs.x <= g(x) or lhs.x <= 0,
    so each clipped constraint with variables inside the bracket doubles the
    piece count. A bracket with no variable content is resolved in place:
    nonnegative constant c gives the single constraint lhs.x <= c, negative c
    gives lhs.x <= 0. Empty pieces are dropped unless drop_empty is False.
    """
    base = list(tmpl.plain)
    branching = []
    for cc in tmpl.clipped:
        if np.max(np.abs(cc.affine)) <= 1e-15:
            if cc.const >= 0:
                base.append((cc.lhs, cc.const))
            else:
                base.append((cc.lhs, 0.0))
        else:
            branching.append(cc)
    pieces = []
    for choice in itertools.product((0, 1), repeat=len(branching)):
        pairs = list(base)
        for take_affine, cc in zip(choice, branching):
            if take_affine == 0:
                pairs.append((cc.lhs - cc.affine, cc.const))
            else:
                pairs.append((cc.lhs, 0.0))
        piece = polytope(tmpl.coords, pairs)
        if drop_empty and piece_is_empty(piece):
            continue
        pieces.append(piece)
    return pieces


# one signed name of a sum: "+ b", "- R0", or "0" for nothing
_SIGNED = re.compile(r"\s*([+-]?)\s*([A-Za-z]\w*|0)\s*")


class BoundTable:
    """One bound as fixed rows whose right-hand sides are affine in a few
    information terms.

    Rows read like the bound: "R0 + R1 <= b - d", or "Re <= [b - R0 - d]+"
    for a clipped row. Names among coords are coordinates; every other name
    is a term, looked up in the dict that terms(scheme, channel) returns;
    "0" stands for an empty sum. Each family of rows is one template. A
    scheme whose guard, a signed sum of terms, is negative has no piece.
    """

    def __init__(self, coords, terms, families, guard="0"):
        self.coords = tuple(coords)
        self.terms = terms
        self.guard = self._split(guard)[1]
        self.families = tuple(tuple(self._row(r) for r in fam) for fam in families)
        # branching clipped rows per family: 2^k plain pieces at most
        self.max_pieces = sum(
            2 ** sum(1 for _, affine, _ in fam if affine is not None and affine.any())
            for fam in self.families
        )

    def _split(self, expr: str):
        """(coefficient vector, signed terms) of a sum such as "b - R0 - d"."""
        found = _SIGNED.findall(expr)
        if (not re.fullmatch(f"(?:{_SIGNED.pattern})+", expr)
                or any(not sign for sign, _ in found[1:])):
            raise ValueError(f"cannot parse {expr!r} as a signed sum of names")
        vec, terms = np.zeros(len(self.coords)), []
        for sign, name in found:
            value = -1.0 if sign == "-" else 1.0
            if name in self.coords:
                vec[self.coords.index(name)] += value
            elif name != "0":
                terms.append((value, name))
        return vec, tuple(terms)

    def _row(self, text: str):
        """(lhs, affine or None, rhs terms): lhs.x <= [affine.x + rhs]_+ for
        a clipped row, lhs.x <= rhs for a plain one."""
        left, sep, right = text.partition("<=")
        lhs, lhs_terms = self._split(left)
        if not sep or lhs_terms:
            raise ValueError(f"row {text!r} must read coordinates <= expression")
        right = right.strip()
        if right.startswith("[") and right.endswith("]+"):
            affine, terms = self._split(right[1:-2])
        else:
            coords, terms = self._split(right)
            lhs, affine = lhs - coords, None
        return lhs, affine, terms


def _evaluate(signed_terms, values) -> float:
    """A signed sum of terms, added left to right from the first term."""
    if not signed_terms:
        return 0.0
    return functools.reduce(operator.add,
                            [sign * values[name] for sign, name in signed_terms])


def bound_pieces(table: BoundTable, values: dict, drop_empty: bool = True):
    """The table's families as templates, with the term values filled in,
    each expanded by clip_plus_split, in order."""
    if _evaluate(table.guard, values) < 0:
        return []
    pieces = []
    for fam in table.families:
        pieces.extend(clip_plus_split(template(
            table.coords,
            plain=[(lhs, _evaluate(rhs, values)) for lhs, aff, rhs in fam if aff is None],
            clipped=[(lhs, aff, _evaluate(rhs, values))
                     for lhs, aff, rhs in fam if aff is not None],
        ), drop_empty=drop_empty))
    return pieces


@functools.lru_cache(maxsize=16)
def _combinations(m: int, d: int) -> np.ndarray:
    """Every d-subset of range(m) as rows, in itertools order (read-only)."""
    n = math.comb(m, d)
    idx = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), d)),
                      dtype=np.intp, count=n * d).reshape(n, d)
    idx.setflags(write=False)
    return idx


class _InversePool:
    """Inverses of nonsingular d x d subsystems, one slot per row set.

    A row set's matrix lists its rows in lexicographic order of their
    coefficients, so its inverse is the same whichever constraint matrix it
    came from. Filled slots are never written again, and growing copies
    them, so readers need no lock.
    """

    def __init__(self, d: int):
        self.slot = {}                        # matrix bytes -> slot
        self.inv = np.empty((0, d, d))

    def slots(self, mats: np.ndarray) -> np.ndarray:
        """The slot of every matrix, inverting those not yet pooled."""
        keys = [mat.tobytes() for mat in mats]
        fresh = {}                            # new matrix bytes -> first index
        for i, key in enumerate(keys):
            if key not in self.slot:
                fresh.setdefault(key, i)
        if fresh:
            new = np.linalg.inv(mats[list(fresh.values())])
            start = len(self.slot)
            n = start + len(fresh)
            inv = self.inv
            if n > inv.shape[0]:
                inv = np.empty((max(n, min(2 * inv.shape[0], POOL_SLOTS)),)
                               + inv.shape[1:])
                inv[:start] = self.inv[:start]
            inv[start:n] = new
            self.inv = inv
            self.slot.update(zip(fresh, range(start, n)))
        return np.array([self.slot[key] for key in keys], dtype=np.int32)


@dataclass(frozen=True)
class _Shape:
    """The nonsingular subsystems of one constraint matrix: the inverses
    pool.inv[slots], each one's rows in its inverse's row order, and the
    coordinates its nonnegativity rows fix at zero."""

    pool: _InversePool
    slots: np.ndarray
    rows: np.ndarray
    zero: np.ndarray


def _nonsingular(A_full: np.ndarray) -> np.ndarray:
    """The d-subsets of rows with |det| > 1e-10, in itertools order, each
    listing its rows in lexicographic order of their coefficients."""
    m, d = A_full.shape
    if math.comb(m, d) <= COMBO_CACHED:
        idx = _combinations(m, d)
    else:
        idx = _combinations.__wrapped__(m, d)
    idx = idx[np.abs(np.linalg.det(A_full[idx])) > 1e-10]
    rank = np.empty(m, dtype=np.intp)
    rank[np.lexsort(A_full.T[::-1])] = np.arange(m)
    idx = np.take_along_axis(idx, np.argsort(rank[idx], axis=1), axis=1)
    return idx.astype(np.int16) if m <= np.iinfo(np.int16).max else idx


# Shape entries (keys, rows, slots and zero masks) kept at most, in bytes,
# and inverses pooled at most per dimension.
SHAPE_CACHE_BYTES = 4 << 20
POOL_SLOTS = 16_384


class _SubsystemCache:
    """The subsystems of recently used constraint matrices, per process.

    Shapes stay, least recently used first out, while their entries take at
    most SHAPE_CACHE_BYTES. Each dimension's pool holds at most POOL_SLOTS
    inverses; one that would overflow starts afresh and its shapes are
    dropped. Matrices too large for either are solved without being kept.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.shapes = OrderedDict()           # (d, A_full bytes) -> _Shape
        self.bytes = 0
        self.pools = {}                       # d -> _InversePool

    @staticmethod
    def entry_bytes(key, rows: np.ndarray) -> int:
        return len(key[1]) + rows.nbytes + (4 + rows.shape[1]) * rows.shape[0]

    def _drop(self, key):
        self.bytes -= self.entry_bytes(key, self.shapes.pop(key).rows)

    def shape(self, A_full: np.ndarray) -> _Shape:
        """The subsystems of A_full, cached or computed."""
        d = A_full.shape[1]
        key = (d, A_full.tobytes())
        with self.lock:
            shape = self.shapes.get(key)
            if shape is not None:
                self.shapes.move_to_end(key)
                return shape
            rows = _nonsingular(A_full)
            mats = A_full[rows]
            n_rows = A_full.shape[0] - d
            zero = np.zeros(rows.shape, dtype=bool)
            fixed = rows >= n_rows
            zero[np.nonzero(fixed)[0], rows[fixed] - n_rows] = True
            size = self.entry_bytes(key, rows)
            if rows.shape[0] > POOL_SLOTS or size > SHAPE_CACHE_BYTES:
                pool = _InversePool(d)        # unpooled, for this call only
                pool.inv = np.linalg.inv(mats)
                return _Shape(pool, np.arange(rows.shape[0]), rows, zero)
            pool = self.pools.get(d)
            if pool is None or len(pool.slot) + rows.shape[0] > POOL_SLOTS:
                pool = self.pools[d] = _InversePool(d)
                for k in [k for k in self.shapes if k[0] == d]:
                    self._drop(k)
            shape = self.shapes[key] = _Shape(pool, pool.slots(mats), rows, zero)
            self.bytes += size
            while self.bytes > SHAPE_CACHE_BYTES:
                self._drop(next(iter(self.shapes)))
            return shape


_cache = _SubsystemCache()


def _drop_repeated_rows(A: np.ndarray, b: np.ndarray):
    """Keep one row per coefficient vector: the smallest bound, the first
    on a tie, in the original row order. The polytope is unchanged."""
    best = {}                                 # row bytes -> kept row
    for i, row in enumerate(A):
        key = row.tobytes()
        if b[i] < b[best.setdefault(key, i)]:
            best[key] = i
    if len(best) == A.shape[0]:
        return A, b
    keep = sorted(best.values())
    return A[keep], b[keep]


def piece_vertices(piece: RatePolytope, max_vertices: int = VERTEX_CEILING) -> np.ndarray:
    """Enumerate the vertices of a piece.

    Solves every nonsingular d x d subsystem drawn from the constraints
    (one per repeated coefficient vector) plus the implicit nonnegativity
    facets and keeps the feasible solutions. The subsystems of a constraint
    matrix and their inverses are cached per process (_SubsystemCache), so
    pieces that differ only in their bounds cost one batched product. A
    coordinate whose nonnegativity facet defines the vertex is set to
    exactly 0.0. Intended for the low-dimensional polytopes this package
    produces (dim <= 5); raises VertexEnumerationOverflow if the subsystem
    count or the vertex count would run away. Unboundedness is not detected
    here; piece_support checks it against RatePolytope.rays.
    """
    d = piece.dim
    n_combo = math.comb(piece.A.shape[0] + d, d)
    if n_combo > COMBO_CEILING:
        raise VertexEnumerationOverflow(
            f"{n_combo} constraint subsets exceed the enumeration budget"
        )
    A, b = _drop_repeated_rows(piece.A, piece.b)
    A_full = np.vstack([A, -np.eye(d)]) if A.shape[0] else -np.eye(d)
    b_full = np.concatenate([b, np.zeros(d)])
    shape = _cache.shape(A_full)
    idx = shape.rows
    if idx.shape[0] == 0:
        return np.empty((0, d))
    sols = np.einsum("nij,nj->ni", shape.pool.inv[shape.slots], np.take(b_full, idx))
    sols[shape.zero] = 0.0
    feas = np.all(A_full @ sols.T <= b_full[:, None] + 1e-9, axis=0)
    sols = sols[feas]
    if sols.shape[0] == 0:
        return np.empty((0, d))
    first, group = _round_groups(sols)
    # a zero set on any subsystem of a vertex holds for the vertex
    zeros = np.zeros((first.shape[0], d), dtype=bool)
    np.logical_or.at(zeros, group, sols == 0.0)
    verts = sols[first]
    verts[zeros] = 0.0
    if verts.shape[0] > max_vertices:
        raise VertexEnumerationOverflow(
            f"{verts.shape[0]} vertices exceed the ceiling {max_vertices}"
        )
    return verts


def _round_groups(rows: np.ndarray, decimals: int = DEDUP_DECIMALS):
    """Group rows that agree once rounded to decimals places.

    Returns the index of each group's first row, in row order, and the
    group of every row (an index into the first array).
    """
    keys = np.round(rows, decimals)
    keys[keys == 0.0] = 0.0                   # fold -0.0
    order = np.lexsort(keys.T[::-1])          # stable: equal keys keep row order
    ordered = keys[order]
    head = np.ones(order.shape[0], dtype=bool)
    head[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    first = order[head]
    # number the groups by their first row
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    group = np.empty_like(order)
    group[order] = rank[np.cumsum(head) - 1]
    return np.sort(first), group


def _dedup_sorted(points: np.ndarray) -> np.ndarray:
    """Deduplicate rows at DEDUP_TOL and sort lexicographically."""
    if points.shape[0] == 0:
        return points
    pts = points[_round_groups(points)[0]]
    order = np.lexsort(pts.T[::-1])
    return pts[order]


@dataclass(frozen=True)
class RateRegion:
    """A union of pieces, optionally with a convexified vertex cloud.

    hull_points, when present, spans the closed convex hull of the union;
    provenance, when present, aligns with pieces and records where each piece
    came from (typically a scheme dictionary). info carries free-form
    assembly diagnostics.
    """

    coords: tuple[str, ...]
    pieces: tuple
    hull_points: np.ndarray | None = None
    provenance: tuple | None = None
    info: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_convexified(self) -> bool:
        return self.hull_points is not None


def convexify(pieces, coords=None, provenance=None, info=None) -> RateRegion:
    """Convex hull of a union of pieces, cached as a sorted vertex cloud.

    Vertices of every piece are pooled, deduplicated, and sorted before any
    hull pruning, so the result does not depend on piece order. Pruning to
    extreme points uses Qhull when the cloud has full affine rank; flat
    clouds are kept as is (membership tests do not need minimality). When
    Qhull fails on a full-rank cloud, the unpruned cloud is kept and its
    message is recorded as info["hull_fallback"].
    """
    pieces = tuple(pieces)
    if coords is None:
        if not pieces:
            raise ValueError("convexify needs coords when no pieces are given")
        coords = pieces[0].coords
    coords = tuple(coords)
    for p in pieces:
        if p.coords != coords:
            raise ValueError(f"piece coords {p.coords} differ from {coords}")
    d = len(coords)
    info = dict(info or {})
    clouds = [p.vertices for p in pieces]
    clouds = [c for c in clouds if c.shape[0]]
    if clouds:
        points = _dedup_sorted(np.vstack(clouds))
    else:
        points = np.empty((0, d))
    if points.shape[0] > d + 1:
        centered = points - points[0]
        if np.linalg.matrix_rank(centered, tol=1e-9) == d:
            try:
                hull = ConvexHull(points)
                points = _dedup_sorted(points[hull.vertices])
            except _qhull_error() as exc:
                # the unpruned cloud still spans the hull
                info["hull_fallback"] = str(exc).strip().split("\n", 1)[0]
    points.setflags(write=False)
    return RateRegion(
        coords=coords,
        pieces=pieces,
        hull_points=points,
        provenance=None if provenance is None else tuple(provenance),
        info=info,
    )


def region_contains(region: RateRegion, point, tol: float = 1e-9) -> bool:
    """Membership: within tol of the hull if convexified, else in some piece.

    Raises SolverStall when the hull-distance LP does not solve.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (region.dim,):
        raise ValueError("point dimension mismatch")
    if region.is_convexified:
        pts = region.hull_points
        if pts.shape[0] == 0:
            return False
        # Chebyshev distance from x to conv(pts), as an LP over hull weights
        n = pts.shape[0]
        d = region.dim
        cost = np.zeros(n + 1)
        cost[n] = 1.0
        A_ub = np.zeros((2 * d, n + 1))
        b_ub = np.zeros(2 * d)
        A_ub[:d, :n] = pts.T
        A_ub[:d, n] = -1.0
        b_ub[:d] = x
        A_ub[d:, :n] = -pts.T
        A_ub[d:, n] = -1.0
        b_ub[d:] = -x
        A_eq = np.zeros((1, n + 1))
        A_eq[0, :n] = 1.0
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                      bounds=[(0, None)] * (n + 1), method="highs", options=_LP_OPTIONS)
        if res.status != 0:
            raise SolverStall(f"hull membership LP failed: {res.message}")
        return float(res.fun) <= tol
    return any(piece_contains(p, x, tol) for p in region.pieces)


def region_support(region: RateRegion, direction) -> float:
    """Support value max d.x over the region (hull and union agree)."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (region.dim,):
        raise ValueError("direction dimension mismatch")
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    if region.is_convexified:
        if region.hull_points.shape[0] == 0:
            raise EmptySlice("support of an empty region")
        return float(np.max(region.hull_points @ d))
    values = []
    for p in region.pieces:
        try:
            values.append(piece_support(p, d)[0])
        except EmptySlice:
            continue
    if not values:
        raise EmptySlice("support of an empty region")
    return max(values)


@dataclass(frozen=True)
class FrontierSample:
    """One support-direction probe of a 2-D slice."""

    theta: float
    direction: tuple[float, float]
    point: np.ndarray
    value: float
    piece_index: int | None


def _pareto_filter(points: np.ndarray) -> np.ndarray:
    keep = []
    n = points.shape[0]
    for i in range(n):
        p = points[i]
        dominated = False
        for j in range(n):
            if j == i:
                continue
            q = points[j]
            if (
                q[0] >= p[0] - 1e-12
                and q[1] >= p[1] - 1e-12
                and (q[0] > p[0] + 1e-12 or q[1] > p[1] + 1e-12)
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return points[keep]


def _hull_inequalities(points: np.ndarray):
    """conv(points) as {x : G x <= h}, from Qhull's facets.

    The cloud is written in coordinates y on its affine hull first, so flat
    clouds work too; the equations that pin it to that hull enter as pairs
    of opposite rows. Rank 0 and rank 1 clouds (a point, a segment) need no
    Qhull. Raises SolverStall when Qhull cannot build the hull of a cloud
    of rank 2 or more.
    """
    origin = points[0]
    # the full left factor would be n x n; only short clouds need vt complete
    _, sv, vt = np.linalg.svd(points - origin,
                              full_matrices=points.shape[0] < points.shape[1])
    rank = int(np.sum(sv > 1e-9))
    basis, normal = vt[:rank], vt[rank:]
    y = (points - origin) @ basis.T
    if rank == 0:
        Gy, hy = np.empty((0, 0)), np.empty(0)
    elif rank == 1:
        Gy, hy = np.array([[1.0], [-1.0]]), np.array([y.max(), -y.min()])
    else:
        try:
            eq = ConvexHull(y).equations      # n . y + offset <= 0
        except _qhull_error() as exc:
            first_line = str(exc).strip().split("\n", 1)[0]
            raise SolverStall(f"Qhull failed on a rank-{rank} hull cloud: "
                              f"{first_line}") from exc
        Gy, hy = eq[:, :-1], -eq[:, -1]
    G = np.vstack([Gy @ basis, normal, -normal])
    h = np.concatenate([hy, np.zeros(2 * normal.shape[0])]) + G @ origin
    return G, h


def _clip(poly: np.ndarray, g: np.ndarray, c: float) -> np.ndarray:
    """The convex polygon poly (vertices in boundary order) cut by g.x <= c."""
    s = poly @ g - c
    inside = s <= 0
    if inside.all():
        return poly
    if not inside.any():
        return poly[:0]
    s_next = np.roll(s, -1)
    cross = inside != (s_next <= 0)
    t = np.divide(s, s - s_next, out=np.zeros_like(s), where=cross)
    hits = poly + t[:, None] * (np.roll(poly, -1, axis=0) - poly)
    # each kept vertex, then where its outgoing edge crosses the line
    return np.stack([poly, hits], axis=1)[np.column_stack([inside, cross])]


def _slice_rows(G: np.ndarray, h: np.ndarray, lo, hi):
    """Rows of the bounded 2-D system G x <= h that can define a vertex.

    The box [lo, hi], which must hold the solution set well inside, is cut
    by every row loosened by SLICE_SLACK, one row at a time. Every edge of
    the resulting polygon lies on a row that comes within SLICE_NEAR of it,
    so those rows alone give the same feasible vertices as the whole system.
    Returns None when the polygon is empty.
    """
    poly = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    c = h + SLICE_SLACK
    for i in range(G.shape[0]):
        poly = _clip(poly, G[i], c[i])
        if poly.shape[0] == 0:
            return None
    return np.flatnonzero(np.max(poly @ G.T - h, axis=0) >= -SLICE_NEAR)


def _hull_slice(region: RateRegion, plane_idx, fixed_idx, fixed_vals) -> np.ndarray:
    """Vertices of the hull's 2-D slice at the fixed values, in plane order
    (empty when the slice is)."""
    pts = region.hull_points
    if pts.shape[0] == 0:
        return np.empty((0, 2))
    G, h = _hull_inequalities(pts)
    h = h - G[:, fixed_idx] @ np.asarray(fixed_vals, dtype=float)
    G = G[:, plane_idx]
    # coplanar simplicial facets repeat a row; so can the substitution
    keep = _round_groups(np.column_stack([G, h]), 12)[0]
    G, h = G[keep], h[keep]
    extent = pts[:, plane_idx]
    near = _slice_rows(G, h, extent.min(axis=0) - 1.0, extent.max(axis=0) + 1.0)
    if near is None:
        return np.empty((0, 2))
    plane = tuple(region.coords[i] for i in plane_idx)
    return RatePolytope(plane, G[near], h[near]).vertices


def frontier_sweep(region: RateRegion, plane, fixed=None, resolution: int = 33,
                   use_hull: bool | None = None):
    """Raw support-direction sweep of a 2-D slice, one sample per direction.

    Directions are (cos t, sin t) for t evenly spaced over [0, pi/2].
    fixed must assign a value to every coordinate outside the plane. With
    use_hull unset, the hull is used when the region has one; passing False
    forces per-piece probing, which also reports the winning piece index for
    witness lookup.
    """
    plane = tuple(plane)
    if len(plane) != 2:
        raise ValueError("plane must name exactly two coordinates")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    fixed = dict(fixed or {})
    for name in plane:
        if name not in region.coords:
            raise ValueError(f"unknown plane coordinate {name!r}")
        if name in fixed:
            raise ValueError(f"plane coordinate {name!r} cannot be fixed")
    missing = [c for c in region.coords if c not in plane and c not in fixed]
    if missing:
        raise ValueError(f"missing fixed values for {missing}")
    if use_hull is None:
        use_hull = region.is_convexified
    if use_hull and not region.is_convexified:
        raise ValueError("use_hull requested but the region has no hull cache")
    plane_idx = [region.coords.index(c) for c in plane]
    fixed_names = [c for c in region.coords if c in fixed]
    fixed_idx = [region.coords.index(c) for c in fixed_names]
    fixed_vals = [float(fixed[c]) for c in fixed_names]

    if use_hull:
        polygon = _hull_slice(region, plane_idx, fixed_idx, fixed_vals)
    else:
        sliced = []                           # (piece index, nonempty slice)
        for i, p in enumerate(region.pieces):
            sp = slice_piece(p, fixed) if fixed else p
            if sp.coords != plane:
                # permute columns into plane order
                perm = [sp.coords.index(c) for c in plane]
                sp = RatePolytope(plane, sp.A[:, perm] if sp.A.shape[0] else sp.A,
                                  sp.b)
            if sp.vertices.shape[0]:
                sliced.append((i, sp))

    thetas = [0.5 * math.pi * k / (resolution - 1) for k in range(resolution)]
    samples = []
    for theta in thetas:
        direction = (math.cos(theta), math.sin(theta))
        if use_hull:
            if polygon.shape[0] == 0:
                continue
            value, point = _vertex_argmax(polygon, np.asarray(direction))
            samples.append(FrontierSample(theta, direction, point, value, None))
        else:
            best = None
            for i, sp in sliced:
                value, point = piece_support(sp, direction)
                if best is None or value > best[0] + 1e-12:
                    best = (value, point, i)
            if best is None:
                continue
            samples.append(FrontierSample(theta, direction, best[1], best[0],
                                          best[2]))
    if not samples:
        raise EmptySlice(f"no feasible point in the slice at {fixed}")
    return samples


def frontier(region: RateRegion, plane, fixed=None, resolution: int = 33) -> np.ndarray:
    """Pareto-maximal boundary points of a 2-D slice of the region.

    Support directions sweep the first quadrant; the resulting points are
    deduplicated at 1e-9, sorted by the first plane coordinate, and filtered
    so no output point dominates another.
    """
    samples = frontier_sweep(region, plane, fixed=fixed, resolution=resolution)
    points = np.array([s.point for s in samples])
    points = _dedup_sorted(points)
    points = _pareto_filter(points)
    order = np.lexsort(points.T[::-1])
    return points[order]
