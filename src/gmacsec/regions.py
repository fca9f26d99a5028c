"""Rate polytopes, positive-part expansion, hulls, and frontier sweeps.

A RatePolytope is {x >= 0 : A x <= b} over named rate coordinates;
nonnegativity of every coordinate is always implicit and never appears in A.
A row with a [.]_+ bracket makes a union of plain polytopes: clip_plus_split
expands numeric rows into one. Regions are unions of pieces, optionally
convexified into a cached vertex cloud.

Each bound the package builds is a BoundTable: fixed constraint rows whose
right-hand sides are signed sums of information terms, each term written
once as an I(A;B|C) expression over the joint of the table's scheme kind.
The table expands its brackets once, when it is built, into plain pieces
whose coefficient matrices every scheme shares; bound_pieces fills in one
scheme's right-hand sides.

Because every piece is pointed, emptiness and support queries are answered
from its vertices, which each piece enumerates once from subsystem inverses
cached per constraint matrix; hull membership, hull slices and the
time-sharing mix behind each frontier point come from Qhull's facets of the
vertex cloud. No query here solves a linear program.
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
# never called here; perfbench/spans.py wraps this binding and tests patch it
from .channel import linprog  # noqa: F401
from .errors import (
    EmptySlice,
    SolverStall,
    Unbounded,
    UnknownVariable,
    VertexEnumerationOverflow,
)
from .infotheory import (
    _SCHEME_FIELDS,
    _kind_of,
    _stack_of_one,
    parse_query,
    stacked_joint,
    stacked_mutual_information,
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
# A sample's mix reproduces its point within MIX_TOL; no weight is below
# MIX_FLOOR.
MIX_TOL = 1e-9
MIX_FLOOR = 1e-12



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
    """(max d.x, row index of the witness) over a nonempty vertex array.

    The witness is the vertex with the largest coordinate sum among those
    within TIE_TOL of the maximum, which is the Pareto-maximal corner of the
    optimal face; a remaining tie goes to the lexicographically largest.
    """
    values = verts @ direction
    value = float(np.max(values))
    cand = np.flatnonzero(values >= value - TIE_TOL)
    sums = verts[cand].sum(axis=1)
    cand = cand[sums >= np.max(sums) - TIE_TOL]
    return value, int(cand[np.lexsort(verts[cand].T[::-1])[-1]])


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
    value, i = _vertex_argmax(verts, d)
    return value, verts[i].copy()


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


def _at_zero(c: float) -> float:
    """[c]_+ of a constant; a zero keeps its sign."""
    return c if c >= 0 else 0.0


def _expand(plain, clipped, at_zero):
    """Positive-part expansion of one family of rows: the plain pieces, each
    a list of (coefficients, bound) pairs, with the bounds left as given.

    plain holds (coefficients, bound) pairs and clipped (lhs, affine, bound)
    triples, one per lhs.x <= [affine.x + bound]_+. x satisfies such a row
    exactly when lhs.x <= affine.x + bound or lhs.x <= 0, so a bracket with
    coordinates inside doubles the piece count: its row becomes
    (lhs - affine, bound) or (lhs, 0.0), branches taken in itertools.product
    order. A bracket with no coordinate inside becomes (lhs, at_zero(bound)).
    """
    base, branching = list(plain), []
    for lhs, affine, bound in clipped:
        if np.max(np.abs(affine)) <= 1e-15:
            base.append((lhs, at_zero(bound)))
        else:
            branching.append((lhs, affine, bound))
    return [base + [(lhs, 0.0) if zero else (lhs - affine, bound)
                    for zero, (lhs, affine, bound) in zip(choice, branching)]
            for choice in itertools.product((0, 1), repeat=len(branching))]


def clip_plus_split(coords, plain, clipped, drop_empty: bool = True):
    """Expand positive-part constraints into a union of plain polytopes.

    plain holds (coefficients, bound) pairs and clipped (lhs, affine, const)
    triples, one per lhs.x <= [affine.x + const]_+; the pieces are
    _expand's, so a bracket with no coordinate inside gives lhs.x <= c for
    a nonnegative c and lhs.x <= 0 for a negative one. Empty pieces are
    dropped unless drop_empty is False.
    """
    coords = tuple(coords)
    rows = [(np.asarray(lhs, dtype=float), np.asarray(affine, dtype=float), float(c))
            for lhs, affine, c in clipped]
    if any(r[0].shape != (len(coords),) or r[1].shape != (len(coords),) for r in rows):
        raise ValueError("clipped constraint width mismatch")
    plain = [(np.asarray(c, dtype=float), float(v)) for c, v in plain]
    pieces = [polytope(coords, pairs) for pairs in _expand(plain, rows, _at_zero)]
    return [p for p in pieces if not (drop_empty and piece_is_empty(p))]


# one signed name of a sum: "+ b", "- R0", or "0" for nothing
_SIGNED = re.compile(r"\s*([+-]?)\s*([A-Za-z]\w*|0)\s*")


@dataclass(frozen=True)
class _AtZero:
    """The rule of a bracket with no coordinate inside: terms clipped at 0."""

    terms: tuple


class BoundTable:
    """One bound as fixed rows whose right-hand sides are affine in a few
    information terms.

    kind names the scheme kind whose joint the terms are read from, and
    terms maps each term's name to its expression in parse_query's
    notation, such as "I(U;Y|X2,Q)"; each expression is parsed, and its
    names checked against the kind's joint, once, here. Rows read like the
    bound: "R0 + R1 <= b - d", or "Re <= [b - R0 - d]+" for a clipped row.
    Names among coords are coordinates and every other name is a term; "0"
    stands for an empty sum. A scheme whose guard, a signed sum of terms,
    is negative has no piece.

    Each family of rows is expanded once, here, by _expand: pieces holds,
    per plain piece, its read-only coefficient matrix, shared by every
    scheme, and the index into rules of each row's bound. A rule is the
    row's signed terms, an _AtZero, or 0.0 (the <= 0 branch of a bracket).
    """

    def __init__(self, coords, kind, terms, families, guard="0"):
        self.coords = tuple(coords)
        self.kind = kind
        self.expressions = dict(terms)
        self._groups = {name: self._parse(expr) for name, expr in self.expressions.items()}
        self.guard = self._split(guard)[1]
        self.families = tuple(tuple(self._row(r) for r in fam) for fam in families)
        rules, pieces = {}, []                # rule -> its index; (A, index) per piece
        for fam in self.families:
            plain = [(lhs, terms) for lhs, affine, terms in fam if affine is None]
            for pairs in _expand(plain, [r for r in fam if r[1] is not None], _AtZero):
                A = np.array([lhs for lhs, _ in pairs]).reshape(len(pairs), len(self.coords))
                index = np.array([rules.setdefault(r, len(rules)) for _, r in pairs], np.intp)
                A.setflags(write=False)
                index.setflags(write=False)
                pieces.append((A, index))
        self.rules, self.pieces = tuple(rules), tuple(pieces)

    def terms(self, tables, channel) -> dict:
        """The named term columns of N schemes of the table's kind, each of
        shape (N,), from their stacked tables: one joint stack, then each
        expression's stacked_mutual_information."""
        joint = stacked_joint(self.kind, tables, channel)
        return {name: stacked_mutual_information(joint, *groups)
                for name, groups in self._groups.items()}

    def scheme_terms(self, scheme, channel) -> dict:
        """The terms of one scheme of the table's kind, as Python floats:
        terms with N = 1."""
        kind = _kind_of(scheme)
        if kind != self.kind:
            raise TypeError(f"a {self.kind} bound cannot read a {kind} scheme "
                            f"({type(scheme).__name__})")
        columns = self.terms(_stack_of_one(scheme), channel)
        return {name: float(column[0]) for name, column in columns.items()}

    def _parse(self, expr: str) -> tuple:
        """The (a, b, given) name groups of an "I(A;B|C)" term."""
        letter, *groups = parse_query(expr)
        if letter != "I":
            raise ValueError(f"term {expr!r} is not an I(...) expression")
        names = [name for group in groups for name in group]
        variables = _SCHEME_FIELDS[self.kind].variables
        for name in names:
            if name not in variables:
                raise UnknownVariable(
                    f"variable {name!r} of {expr!r} not in the {self.kind} joint "
                    f"over {variables}")
        if len(set(names)) != len(names):
            raise ValueError(f"the groups of {expr!r} must be pairwise disjoint")
        return tuple(groups)

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


def _fill(rule, values) -> float:
    """The bound a BoundTable rule gives for these term values."""
    if isinstance(rule, tuple):
        return _evaluate(rule, values)
    if isinstance(rule, _AtZero):
        return _at_zero(_evaluate(rule.terms, values))
    return rule


def bound_pieces(table: BoundTable, values: dict, drop_empty: bool = True):
    """The table's pieces, in order, with their bounds filled in from the
    term values; none when the guard is negative. Empty pieces are dropped
    unless drop_empty is False."""
    if _evaluate(table.guard, values) < 0:
        return []
    bounds = np.array([_fill(rule, values) for rule in table.rules], dtype=float)
    pieces = [RatePolytope(table.coords, A, bounds[index]) for A, index in table.pieces]
    return [p for p in pieces if not (drop_empty and piece_is_empty(p))]


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
    """Indices of the first row of each DEDUP_TOL group, in lexicographic
    order of the rows."""
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    first = _round_groups(points)[0]
    return first[np.lexsort(points[first].T[::-1])]


@dataclass(frozen=True)
class RateRegion:
    """A union of pieces, optionally with a convexified vertex cloud.

    hull_points, when present, spans the closed convex hull of the union;
    hull_sources, when present, aligns with hull_points and gives for each
    the index of a piece that has it as a vertex. provenance, when present,
    aligns with pieces and records where each piece came from (typically a
    scheme dictionary). info carries free-form assembly diagnostics.
    """

    coords: tuple[str, ...]
    pieces: tuple
    hull_points: np.ndarray | None = None
    provenance: tuple | None = None
    info: dict = field(default_factory=dict)
    hull_sources: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_convexified(self) -> bool:
        return self.hull_points is not None

    @functools.cached_property
    def hull_facets(self):
        """(G, h, simplices) of _hull_inequalities on hull_points, built on
        first use and kept; a Qhull failure raises SolverStall and is not
        kept."""
        return _hull_inequalities(self.hull_points)


def convexify(pieces, coords=None, provenance=None, info=None) -> RateRegion:
    """Convex hull of a union of pieces, cached as a sorted vertex cloud.

    Vertices of every piece are pooled, deduplicated, and sorted before any
    hull pruning, so the result does not depend on piece order. Pruning to
    extreme points uses Qhull when the cloud has full affine rank; flat
    clouds are kept as is (membership tests do not need minimality). When
    Qhull fails on a full-rank cloud, the unpruned cloud is kept and its
    message is recorded as info["hull_fallback"]. Each hull point's source
    is the first piece, in piece order, with that vertex.
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
    sources = np.repeat(np.arange(len(pieces)), [c.shape[0] for c in clouds])
    points = np.vstack(clouds) if sources.size else np.empty((0, d))
    keep = _dedup_sorted(points)
    if keep.shape[0] > d + 1:
        if np.linalg.matrix_rank(points[keep] - points[keep[0]], tol=1e-9) == d:
            try:
                extreme = keep[ConvexHull(points[keep]).vertices]
                keep = extreme[_dedup_sorted(points[extreme])]
            except _qhull_error() as exc:
                # the unpruned cloud still spans the hull
                info["hull_fallback"] = str(exc).strip().split("\n", 1)[0]
    points, sources = points[keep], sources[keep]
    points.setflags(write=False)
    sources.setflags(write=False)
    return RateRegion(
        coords=coords,
        pieces=pieces,
        hull_points=points,
        provenance=None if provenance is None else tuple(provenance),
        info=info,
        hull_sources=sources,
    )


def region_contains(region: RateRegion, point, tol: float = 1e-9) -> bool:
    """Membership: in the hull if convexified, else in some piece.

    A convexified region holds x when G x <= h + tol on every (unit-norm)
    row of its hull's facets, region.hull_facets. Raises SolverStall when
    Qhull cannot build the hull.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (region.dim,):
        raise ValueError("point dimension mismatch")
    if region.is_convexified:
        if region.hull_points.shape[0] == 0:
            return False
        G, h, _ = region.hull_facets
        return bool(np.all(G @ x <= h + tol))
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
    """One support-direction probe of a 2-D slice of a region's hull.

    point (plane coordinates) attains value = max direction.x over the
    slice. mix holds (weight, hull-point index) pairs, weights positive and
    summing to one, whose weighted hull points are point with the fixed
    values: the time-sharing that achieves it.
    """

    theta: float
    direction: tuple[float, float]
    point: np.ndarray
    value: float
    mix: tuple


def _hull_inequalities(points: np.ndarray):
    """conv(points) as {x : G x <= h}, from Qhull's facets, with the simplex
    of each facet row.

    The cloud is written in coordinates y on its affine hull first, so flat
    clouds work too; the equations that pin it to that hull follow the
    facet rows as pairs of opposite rows. Facet row i spans the simplex
    points[simplices[i]]. Rank 0 and rank 1 clouds (a point, a segment) need
    no Qhull. Rows have unit norm. Raises SolverStall when Qhull cannot
    build the hull of a cloud of rank 2 or more.
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
        simplices = np.empty((0, 0), dtype=np.intp)
    elif rank == 1:
        Gy, hy = np.array([[1.0], [-1.0]]), np.array([y.max(), -y.min()])
        simplices = np.array([[np.argmax(y)], [np.argmin(y)]])
    else:
        try:
            hull = ConvexHull(y)
        except _qhull_error() as exc:
            first_line = str(exc).strip().split("\n", 1)[0]
            raise SolverStall(f"Qhull failed on a rank-{rank} hull cloud: "
                              f"{first_line}") from exc
        eq = hull.equations                   # n . y + offset <= 0
        Gy, hy, simplices = eq[:, :-1], -eq[:, -1], hull.simplices
    G = np.vstack([Gy @ basis, normal, -normal])
    h = np.concatenate([hy, np.zeros(2 * normal.shape[0])]) + G @ origin
    return G, h, simplices


def _hull_mix(points, G, h, simplices, x) -> tuple:
    """x as a convex combination of points, ((weight, index), ...) with
    positive weights summing to one, from the facets of _hull_inequalities.

    x within MIX_TOL of a point is that point. Otherwise the ray from
    points[0] through x leaves the hull at points[0] + t (x - points[0]),
    t >= 1: x weighs points[0] by 1 - 1/t and the exit point, barycentric
    on the simplex of the first facet through it (tied in t) that
    reproduces x within MIX_TOL, by 1/t. Raises SolverStall when none does.
    """
    gap = np.max(np.abs(points - x), axis=1)
    if gap.min() <= MIX_TOL:
        return ((1.0, int(np.argmin(gap))),)
    origin = points[0]
    v = x - origin
    rate = G[:simplices.shape[0]] @ v
    exits = np.flatnonzero(rate > 1e-12 * np.linalg.norm(v))
    ok = exits[:0]
    if exits.size:
        ts = (h[exits] - G[exits] @ origin) / rate[exits]
        cand = simplices[exits[ts <= ts.min() + 1e-9 * max(ts.min(), 1.0)]]
        t = max(ts.min(), 1.0)
        verts = points[cand]                  # tied facet, simplex point, coordinate
        lhs = np.concatenate([verts, np.ones(cand.shape + (1,))], axis=2)
        lam = np.linalg.pinv(lhs.transpose(0, 2, 1)) @ np.append(origin + t * v, 1.0)
        # smaller weights are rounding noise, or the overshoot of a facet
        # whose simplex misses the exit point
        lam[lam <= MIX_FLOOR] = 0.0
        lam /= lam.sum(axis=1, keepdims=True)
        got = origin + (np.einsum("kj,kjd->kd", lam, verts) - origin) / t
        ok = np.flatnonzero(np.max(np.abs(got - x), axis=1) <= MIX_TOL)
    if not ok.size:
        raise SolverStall(f"no hull facet reproduces the point {x.tolist()}")
    w = np.bincount(np.append(cand[ok[0]], 0), np.append(lam[ok[0]] / t, 1.0 - 1.0 / t),
                    minlength=points.shape[0])
    idx = np.flatnonzero(w > MIX_FLOOR)
    return tuple(zip((w[idx] / w[idx].sum()).tolist(), idx.tolist()))


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


def _hull_slice(region: RateRegion, G, h, plane_idx, fixed_idx, fixed_vals) -> np.ndarray:
    """Vertices of the 2-D slice of the hull G x <= h at the fixed values,
    in plane order (empty when the slice is)."""
    pts = region.hull_points
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


def frontier_sweep(region: RateRegion, plane, fixed=None, resolution: int = 33):
    """Support-direction sweep of a 2-D slice of the region's hull, one
    sample per direction, each a slice vertex with its mix (_hull_mix).

    Directions are (cos t, sin t) for t evenly spaced over [0, pi/2].
    fixed must assign a value to every coordinate outside the plane. Raises
    ValueError for a region without a hull and EmptySlice for an empty slice.
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
    if not region.is_convexified:
        raise ValueError("the region has no hull cache; convexify it first")
    plane_idx = [region.coords.index(c) for c in plane]
    fixed_idx = [i for i, c in enumerate(region.coords) if c in fixed]
    fixed_vals = [float(fixed[region.coords[i]]) for i in fixed_idx]

    pts = region.hull_points
    if pts.shape[0] == 0:
        raise EmptySlice(f"no feasible point in the slice at {fixed}")
    G, h, simplices = region.hull_facets
    polygon = _hull_slice(region, G, h, plane_idx, fixed_idx, fixed_vals)
    if polygon.shape[0] == 0:
        raise EmptySlice(f"no feasible point in the slice at {fixed}")
    mixes = {}                                # polygon row -> mix
    samples = []
    for k in range(resolution):
        theta = 0.5 * math.pi * k / (resolution - 1)
        direction = (math.cos(theta), math.sin(theta))
        value, i = _vertex_argmax(polygon, np.asarray(direction))
        if i not in mixes:
            x = np.empty(region.dim)
            x[plane_idx], x[fixed_idx] = polygon[i], fixed_vals
            mixes[i] = _hull_mix(pts, G, h, simplices, x)
        samples.append(FrontierSample(theta, direction, polygon[i].copy(), value,
                                      mixes[i]))
    return samples


def frontier_points(samples) -> np.ndarray:
    """Pareto-maximal points of a sweep's samples, deduplicated at 1e-9 and
    sorted lexicographically: no point is dominated by another that is at
    least as large in both coordinates and larger in one, by 1e-12."""
    points = np.array([s.point for s in samples])
    points = points[_dedup_sorted(points)]
    p, q = points[:, None], points[None]
    dominated = np.all(q >= p - 1e-12, axis=2) & np.any(q > p + 1e-12, axis=2)
    return points[~np.any(dominated, axis=1)]


def frontier(region: RateRegion, plane, fixed=None, resolution: int = 33) -> np.ndarray:
    """Pareto-maximal boundary points of a 2-D slice of the region: the
    frontier_points of its frontier_sweep."""
    return frontier_points(frontier_sweep(region, plane, fixed=fixed,
                                          resolution=resolution))
