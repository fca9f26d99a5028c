"""Rate polytopes, positive-part expansion, hulls, and frontier sweeps.

A RatePolytope is {x >= 0 : A x <= b} over named rate coordinates;
nonnegativity of every coordinate is always implicit and never appears in A.
A row with a [.]_+ bracket makes a union of plain polytopes. A region is
the convex hull of a union of bounded pieces, kept as their vertex cloud.

Each bound the package builds is a BoundTable: fixed constraint rows whose
right-hand sides are signed sums of information terms, each term written
once as an I(A;B|C) expression over the joint of the table's scheme kind.
The table expands its brackets once, when it is built, into plain pieces
whose coefficient matrices every scheme shares, with each repeated row
merged into one; bound_pieces fills in one scheme's right-hand sides.

Because every piece is pointed, emptiness and support queries are answered
from its vertices. One enumerator, _SubsystemIndex, finds them: it indexes
the distinct d x d subsystems of a list of pieces, inverts each once, and
for a stack of bound sets, one per scheme, solves them all in one pass,
with one feasibility test of every (scheme, piece, subsystem) triple and
one rounding and grouping of the solutions the pieces keep. A BoundTable
owns the index of its pieces; a block of schemes fills in its bounds as
columns and runs one pass per sub-block of at most _PASS_SOLUTIONS
solutions, and bound_pieces is the call for one scheme, so every piece a
table gives comes with its vertices. Any other piece enumerates its own on
first use, as an index of one piece: its tightest row per coefficient
vector.

A region keeps its pieces' deduplicated, sorted vertex cloud. Every point
of its hull is a mix of cloud points, so a slice or membership query is a
linear program over mixture weights with at most d + 1 equality rows: the
weights sum to one, and the mix meets each fixed coordinate. One small
dense simplex (_phase_one, _simplex) solves it, pricing the whole cloud
with one matrix-vector product per pivot; its optimal basis is the
time-sharing mix behind each frontier point.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import InitVar, dataclass, field

import numpy as np
# never called here; perfbench/spans.py wraps this binding and tests patch it
from .channel import linprog  # noqa: F401
from .errors import (
    EmptySlice,
    SolverStall,
    Unbounded,
    UnknownVariable,
    VertexEnumerationOverflow,
    whole_number,
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
# A sweep direction's optimal face holds the cloud points whose reduced
# costs are within this of zero. Its sample is the face's Pareto corner:
# the largest second plane coordinate when cos t - sin t exceeds this, else
# the largest first.
TIE_TOL = 1e-12
# A point within this L1 distance of a region's hull is in it.
HULL_TOL = 1e-9
# The weight simplex: a reduced cost above PRICE_TOL improves its objective;
# a pivot entry or a step of at most PIVOT_TOL counts as zero; after
# BLAND_AFTER degenerate pivots in a row it enters by Bland's rule.
PRICE_TOL = 1e-13
PIVOT_TOL = 1e-9
BLAND_AFTER = 10
PIVOT_CEILING = 10_000


@dataclass(frozen=True)
class RatePolytope:
    """One conjunctive piece: {x >= 0 : A x <= b} over coords."""

    coords: tuple[str, ...]
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[1] != len(self.coords):
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

    @functools.cached_property
    def vertices(self) -> np.ndarray:
        """The piece's vertices (read-only), enumerated on first use."""
        verts = piece_vertices(self)
        verts.setflags(write=False)
        return verts

    @functools.cached_property
    def rays(self) -> np.ndarray:
        """Vertices of the recession cone {r >= 0 : A r <= 0} cut by
        sum r <= 1 (read-only), enumerated on first use. The piece recedes
        without bound along d exactly when one of them has d.r > 0."""
        return RatePolytope(self.coords, np.vstack([self.A, np.ones((1, self.dim))]),
                            np.append(np.zeros(self.A.shape[0]), 1.0)).vertices


@dataclass(frozen=True)
class _TablePiece(RatePolytope):
    """A piece of a BoundTable, which comes with its vertices: a read-only
    slice of the one pass that served its scheme's pieces. Its coords and A
    are the table's, already checked and read-only, and A caps every
    coordinate, so only its b is marked read-only here."""

    found: InitVar[np.ndarray]

    def __post_init__(self, found):
        self.b.setflags(write=False)
        self.__dict__["vertices"] = found     # read by the cached property


def polytope(coords, constraint_pairs) -> RatePolytope:
    """Build a RatePolytope from (coefficient vector, bound) pairs."""
    coords = tuple(coords)
    d = len(coords)
    if not constraint_pairs:
        return RatePolytope(coords, np.zeros((0, d)), np.zeros(0))
    A = np.array([np.asarray(c, dtype=float) for c, _ in constraint_pairs])
    b = np.array([float(v) for _, v in constraint_pairs])
    return RatePolytope(coords, A, b)


def piece_is_empty(piece: RatePolytope) -> bool:
    """Whether the piece has no point.

    x >= 0 is implicit, so a piece whose bounds are all nonnegative holds
    the origin, and a nonempty piece is pointed and has a vertex.
    """
    return not np.all(piece.b >= 0) and piece.vertices.shape[0] == 0


def _at_zero(c):
    """[c]_+ of a constant or of a column of them; a zero keeps its sign."""
    return np.where(c >= 0, c, 0.0)


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


# one signed name of a sum: "+ b", "- R0", or "0" for nothing
_SIGNED = re.compile(r"\s*([+-]?)\s*([A-Za-z]\w*|0)\s*")


@dataclass(frozen=True)
class _AtZero:
    """The rule of a bracket with no coordinate inside: terms clipped at 0."""

    terms: tuple


@dataclass(frozen=True)
class _Min:
    """The rule of a row a piece holds more than once: the smallest bound
    of its copies' distinct rules, in row order, the first on a tie."""

    rules: tuple


class BoundTable:
    """One bound as fixed rows whose right-hand sides are affine in a few
    information terms.

    kind names the scheme kind whose joint the terms are read from, and
    terms maps each term's name to its expression in parse_query's
    notation, such as "I(U;Y|X2,Q)"; each expression is parsed, and its
    names checked against the kind's joint, once, here. Rows read like the
    bound: "R0 + R1 <= b - d", or "Re <= [b - R0 - d]+" for a clipped row.
    Names among coords are coordinates and every other name is a term; "0"
    stands for an empty sum. A bound is its rows and nothing else: a scheme
    whose rows leave no point, such as a secrecy row R1 <= a - d with
    a < d, gives pieces with no vertex, which piece_is_empty reports.

    Each family of rows is expanded once, here, by _expand: pieces holds,
    per plain piece, its read-only coefficient matrix, shared by every
    scheme, and the index into rules of each row's bound. A rule is the
    row's signed terms, an _AtZero, or 0.0 (the <= 0 branch of a bracket).
    A row that the expansion gives a piece more than once is kept once, at
    its first copy, and its rule is the _Min of its copies' rules, so no
    piece holds a repeated row. Every expanded matrix must cap each
    coordinate by a row with no negative coefficient (_capped), so that
    every piece is bounded whatever its bounds; a table with a matrix that
    does not raises ValueError when it is built. The table also owns the
    _SubsystemIndex of its pieces, built when its pieces are first filled
    in, which finds the vertices of every piece of a block of schemes in
    one pass; two threads that race only build it twice.
    A term value that is NaN or infinite is refused, before any bound is
    filled in.
    """

    def __init__(self, coords, kind, terms, families):
        self.coords = tuple(coords)
        self.kind = kind
        self.expressions = dict(terms)
        self._groups = {name: self._parse(expr) for name, expr in self.expressions.items()}
        self.families = tuple(tuple(self._row(r) for r in fam) for fam in families)
        # every term a row reads, in order of first use
        self._names = tuple(dict.fromkeys(name for fam in self.families
                                          for *_, terms in fam for _, name in terms))
        rules, pieces = {}, []                # rule -> its index; (A, index) per piece
        for fam in self.families:
            plain = [(lhs, terms) for lhs, affine, terms in fam if affine is None]
            for pairs in _expand(plain, [r for r in fam if r[1] is not None], _AtZero):
                copies = {}                   # row bytes -> (row, its distinct rules)
                for lhs, r in pairs:
                    copies.setdefault(lhs.tobytes(), (lhs, {}))[1].setdefault(r)
                merged = [(lhs, _Min(tuple(rs)) if len(rs) > 1 else next(iter(rs)))
                          for lhs, rs in copies.values()]
                A = np.array([lhs for lhs, _ in merged]).reshape(len(merged), len(self.coords))
                if not _capped(A):
                    raise ValueError(f"piece {len(pieces)} of the table leaves a coordinate "
                                     f"of {self.coords} without a nonnegative cap")
                index = np.array([rules.setdefault(r, len(rules)) for _, r in merged], np.intp)
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

    @functools.cached_property
    def _subsystem_index(self) -> _SubsystemIndex:
        """The _SubsystemIndex of the table's pieces, built on first use."""
        return _SubsystemIndex.build(len(self.coords), len(self.rules), self.pieces)

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


def _evaluate(signed_terms, values):
    """A signed sum of terms, added left to right from the first term; the
    values are floats, or columns with one entry per scheme. Subtracting a
    term adds its negation, bit for bit."""
    if not signed_terms:
        return 0.0
    (sign, name), *rest = signed_terms
    total = values[name] if sign > 0 else -values[name]
    for sign, name in rest:
        total = total + values[name] if sign > 0 else total - values[name]
    return total


def _fill(rule, values):
    """The bounds a BoundTable rule gives for these term values, as
    _evaluate takes them; a _Min keeps the first of equal values, as min
    does: 0.0 before a later -0.0."""
    if isinstance(rule, tuple):
        return _evaluate(rule, values)
    if isinstance(rule, _AtZero):
        return _at_zero(_evaluate(rule.terms, values))
    if isinstance(rule, _Min):
        low = _fill(rule.rules[0], values)
        for other in rule.rules[1:]:
            bound = _fill(other, values)
            low = np.where(bound < low, bound, low)
        return low
    return rule


def bound_pieces(table: BoundTable, values: dict):
    """Every piece of every family of the table, in order, with its bounds
    filled in from one scheme's term values, empty ones included. Each
    piece comes with its vertices, from one pass of the table's index over
    all of them (_SubsystemIndex.vertices), which raises
    VertexEnumerationOverflow past the index's budgets. A caller that
    wants only the nonempty pieces filters with piece_is_empty. A NaN or
    infinite value of a term the table reads raises ValueError. This is
    _block_pieces for one scheme, its values standing for columns of one."""
    return _block_pieces(table, values, 1)[0]


# A vertex pass holds at most this many solutions: as many as one scheme of
# two_set.TWO_SET, whose index has 7,912 subsystems, so a block of a smaller
# table's schemes shares a pass and TWO_SET still runs one scheme per pass.
_PASS_SOLUTIONS = 7_912


def _block_pieces(table: BoundTable, columns: dict, count: int) -> list:
    """bound_pieces of count schemes at once, from the table's term columns,
    each of shape (count,), or a number when count is 1: one list of pieces
    per scheme, in order.

    The bounds are filled in as columns, in the order and arithmetic of one
    scheme's (_fill), and every scheme goes through the same vertex pass,
    one per sub-block of at most _PASS_SOLUTIONS solutions, or of one
    scheme, so that each piece equals bound_pieces's byte for byte. A NaN
    or infinite value raises the ValueError that bound_pieces raises for
    the first scheme that has one.
    """
    names = table._names
    values = np.array([columns[name] for name in names], dtype=float).reshape(-1, count)
    bad = ~np.isfinite(values)
    if bad.any():
        s = bad.any(axis=0).argmax()          # the first scheme with one, and its
        k = bad[:, s].argmax()                # first such term
        raise ValueError(f"term {names[k]!r} of the bound is {float(values[k, s])}, "
                         "not finite")
    bounds = np.empty((count, len(table.rules)))
    for r, rule in enumerate(table.rules):
        bounds[:, r] = _fill(rule, columns)
    index = table._subsystem_index
    per = max(1, _PASS_SOLUTIONS // index.rows.shape[0])
    n_pieces = len(table.pieces)
    # every piece's rules, back to back: piece k's are rules[ends[k]:ends[k + 1]]
    rules = np.concatenate([rows for _, rows in table.pieces])
    ends = [0, *itertools.accumulate(rows.shape[0] for _, rows in table.pieces)]
    pieces = []
    for start in range(0, count, per):
        block = bounds[start:start + per]
        verts, stops = index.vertices(block)
        verts.setflags(write=False)
        rhs = block.take(rules, axis=1)
        for j in range(block.shape[0]):
            at = j * n_pieces
            pieces.append([_TablePiece(table.coords, A, rhs[j, ends[k]:ends[k + 1]],
                                       verts[stops[at + k]:stops[at + k + 1]])
                           for k, (A, _) in enumerate(table.pieces)])
    return pieces


# A slack product of _solve stays within this many multiply-adds, below
# OpenBLAS's single-thread limit for dgemm (m * n * k <= 4 * 65536).
_GEMM_CELLS = 200_000
# _SubsystemIndex.vertices tests this many (piece, subsystem) pairs at a
# time, so that its temporaries stay below those of _solve.
_PAIR_BLOCK = 1 << 13


def _combinations(m: int, d: int) -> np.ndarray:
    """The d-subsets of range(m) in itertools order, one per row."""
    return np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), d)),
                       dtype=np.intp, count=math.comb(m, d) * d).reshape(-1, d)


def _row_bits(flags: np.ndarray) -> np.ndarray:
    """Flags over an index's rows, along the last axis, packed little-endian
    into uint64 words."""
    n = flags.shape[-1]
    if n % 8:
        flags = np.concatenate([flags, np.zeros(flags.shape[:-1] + (8 - n % 8,), bool)], -1)
    # one flat pack is much faster than packing along an axis
    packed = np.packbits(flags, axis=None, bitorder="little").reshape(
        flags.shape[:-1] + (flags.shape[-1] // 8,))
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view(np.uint64)


@dataclass(frozen=True)
class _SubsystemIndex:
    """The vertex subsystems of a list of pieces (a BoundTable's, or one
    polytope's), each found and inverted once for all of them, and the one
    pass that finds every piece's vertices for a stack of bound sets. No piece
    may repeat a coefficient row: a table merges its copies, and
    piece_vertices keeps the tightest.

    A holds the pieces' distinct rows, as (coefficient vector, rule) pairs,
    and the d rows of -I, in lexicographic order of their coefficients, so
    a subsystem lists its rows in ascending row number; rule[r] indexes the
    bounds, or is len(bounds), a zero bound, for a row of -I. Subsystem s
    is the distinct nonsingular row set rows[s], solved by inverses[s];
    zero[s] marks the coordinates its rows of -I fix at zero. The (piece,
    subsystem) pairs run piece by piece, each piece's nonsingular
    subsystems in itertools order over its full matrix (its rows, then
    -I): pair i is subsystem subsystems[i] of piece owners[i], both of the
    smallest unsigned type that holds them. masks[k] packs piece k's rows
    by _row_bits. Everything is immutable once built.
    """

    A: np.ndarray
    rule: np.ndarray
    rows: np.ndarray
    inverses: np.ndarray
    zero: np.ndarray
    subsystems: np.ndarray
    owners: np.ndarray
    masks: np.ndarray

    @classmethod
    def build(cls, d: int, n_rules: int, pieces) -> _SubsystemIndex:
        """The index of pieces, (A, rule index) pairs in d dimensions whose
        bounds come from n_rules rules. One itertools subset index serves
        every piece with the same row count; each d-subset of a piece's full
        matrix becomes its sorted row numbers, and each distinct one is
        tested for |det| > 1e-10 once and, if nonsingular, inverted once.
        Distinct subsets are taken in lexicographic order (_distinct), at
        any row count and dimension. A table's coefficients are integers,
        so the test does not depend on the order of the rows; with other
        coefficients it can, by rounding, only for a subset whose |det| lies
        within rounding of 1e-10. A piece with more than COMBO_CEILING
        subsets raises VertexEnumerationOverflow before any is listed."""
        for A, _ in pieces:
            n_combo = math.comb(A.shape[0] + d, d)
            if n_combo > COMBO_CEILING:
                raise VertexEnumerationOverflow(
                    f"{n_combo} constraint subsets exceed the enumeration budget")
        number = {}                           # (coefficients, rule) -> row
        piece_rows = []
        for A, index in pieces:
            full = np.vstack([A, -np.eye(d)])
            rules = [*index.tolist(), *[n_rules] * d]
            piece_rows.append(np.array([number.setdefault((a.tobytes(), r), len(number))
                                        for a, r in zip(full, rules)], dtype=np.intp))
        A = np.array([np.frombuffer(a) for a, _ in number]).reshape(len(number), d)
        order = np.lexsort(A.T[::-1])
        renumber = np.empty_like(order)
        renumber[order] = np.arange(order.shape[0])
        A, rule = A[order], np.array([r for _, r in number], dtype=np.intp)[order]
        piece_rows = [renumber[rows] for rows in piece_rows]
        subsets = {m: _combinations(m, d) for m in {rows.shape[0] for rows in piece_rows}}
        small = np.min_scalar_type(A.shape[0])
        sets = [np.sort(rows.astype(small)[subsets[rows.shape[0]]], axis=1)
                for rows in piece_rows]
        owners = np.repeat(np.arange(len(pieces), dtype=np.min_scalar_type(len(pieces))),
                           [len(s) for s in sets])
        sets = np.concatenate(sets)
        first, inverse = _distinct(sets)     # subset -> its distinct subset
        candidates = sets[first].astype(np.intp)
        nonsingular = np.abs(np.linalg.det(A[candidates])) > 1e-10
        slot = nonsingular.cumsum() - 1       # candidate -> subsystem, if nonsingular
        rows = candidates[nonsingular]
        ok = nonsingular[inverse]
        subsystems = slot[inverse[ok]].astype(np.min_scalar_type(rows.shape[0]))
        axis = np.full(A.shape[0], -1)        # row -> the coordinate its -I row fixes
        axis[piece_rows[0][-d:]] = np.arange(d)
        zero = np.zeros(rows.shape, dtype=bool)
        at, col = (axis[rows] >= 0).nonzero()
        zero[at, axis[rows[at, col]]] = True
        flags = np.zeros((len(pieces), A.shape[0]), dtype=bool)
        for k, rows_k in enumerate(piece_rows):
            flags[k, rows_k] = True
        index = cls(A, rule, rows, np.linalg.inv(A[rows]), zero, subsystems, owners[ok],
                    _row_bits(flags))
        for array in vars(index).values():
            array.setflags(write=False)
        return index

    def vertices(self, bounds: np.ndarray):
        """(vertices, stops): the vertices of every piece for each of a
        stack of bound sets, bounds of shape (S, rules), as piece_vertices
        defines them. With P pieces, piece k's vertices under bound set s
        are vertices[stops[s * P + k]:stops[s * P + k + 1]]. A piece with
        more than VERTEX_CEILING vertices raises VertexEnumerationOverflow,
        naming the most of the first bound set that has one.

        One solve of the index for every bound set (_solve) and one test of
        every (bound set, piece, subsystem) triple against the violated
        bits of the piece's rows give each piece's feasible solutions in its
        subsystem order. The solutions that some piece keeps are rounded
        and grouped once (_key_groups), for all bound sets at once. Each
        piece under each bound set then keeps the first of its solutions in
        each group, in order of first appearance, and a coordinate that is
        exactly 0.0 in any of its solutions of that group is 0.0 in the
        vertex.
        """
        count, n = bounds.shape[0], self.rows.shape[0]
        sols, violated = self._solve(bounds)
        pairs = self.subsystems.shape[0]
        ok = np.empty((count, pairs), dtype=bool)
        step = max(1, _PAIR_BLOCK // count)
        for i in range(0, pairs, step):
            at = slice(i, i + step)
            # take widens the small indices to platform ints once, and
            # gathers these short rows about twice as fast as indexing does
            hit = violated.take(self.subsystems[at], axis=1)
            hit &= self.masks.take(self.owners[at], axis=0)
            np.logical_not(hit.any(axis=2), out=ok[:, at])
        pair = ok.ravel().nonzero()[0]                # bound set * pairs + pair
        scheme = pair // pairs
        pair -= scheme * pairs
        n_pieces = self.masks.shape[0]
        ids = scheme * n + self.subsystems.take(pair)         # its solution
        piece = scheme * n_pieces + self.owners.take(pair)    # its piece of its set
        used = np.bincount(ids, minlength=sols.shape[0]).nonzero()[0]
        heads, groups = _key_groups(sols.take(used, axis=0))
        label = np.empty(sols.shape[0], dtype=np.intp)   # a kept solution's group
        label[used] = groups
        # a (piece, group) pair's first solution comes first in its run; a
        # piece number names its bound set, so no run spans two sets
        key = piece * heads.shape[0] + label[ids]
        order = key.argsort(kind="stable")
        runs = np.ones(order.shape[0], dtype=bool)
        runs[1:] = key[order[1:]] != key[order[:-1]]
        starts = runs.nonzero()[0]
        zeros = np.logical_or.reduceat(sols.take(ids[order], axis=0) == 0.0, starts, axis=0)
        first = order[starts]
        # pairs run bound set by bound set, then piece by piece, so this is
        # each piece's own order
        keep = first.argsort()
        verts = sols.take(ids[first[keep]], axis=0)
        verts[zeros[keep]] = 0.0
        counts = np.bincount(piece[first], minlength=count * n_pieces)
        if counts.max() > VERTEX_CEILING:
            most = counts.reshape(count, n_pieces).max(axis=1)
            raise VertexEnumerationOverflow(
                f"{most[most > VERTEX_CEILING][0]} vertices exceed the ceiling "
                f"{VERTEX_CEILING}")
        return verts, [0, *counts.cumsum().tolist()]

    def _solve(self, bounds: np.ndarray):
        """(solutions, violated): every subsystem solved for each of a stack
        of bound sets, shape (S, rules), with the coordinates its rows of -I
        fix set to 0.0, as S * n rows, bound set by bound set; and the
        packed bits (_row_bits), shape (S, n, words), of the rows each
        solution violates by more than 1e-9. Each slack product stays
        within _GEMM_CELLS multiply-adds."""
        count, (n, d) = bounds.shape[0], self.rows.shape
        b = np.concatenate([bounds, np.zeros((count, 1))], axis=1)[:, self.rule]
        # the index tiled once per bound set: one contraction over operands
        # laid out as one set's, so each solution has the bits of a stack of one
        inverses, zero = ((self.inverses, self.zero) if count == 1 else
                          (np.tile(self.inverses, (count, 1, 1)), np.tile(self.zero, (count, 1))))
        sols = np.einsum("nij,nj->ni", inverses,
                         b.take(self.rows, axis=1).reshape(count * n, d))
        sols[zero] = 0.0
        stacked = sols.reshape(count, n, d)
        limit = (b + 1e-9)[:, None]
        chunk = max(1, _GEMM_CELLS // self.A.size)   # solutions per product
        per = max(1, chunk // n)                      # bound sets per product
        ok = np.empty((count, n, self.A.shape[0]), dtype=bool)
        for s in range(0, count, per):
            for i in range(0, n, chunk):
                part = stacked[s:s + per, i:i + chunk]
                product = part.reshape(-1, d) @ self.A.T
                np.less_equal(product.reshape(part.shape[0], part.shape[1], -1),
                              limit[s:s + per], out=ok[s:s + per, i:i + chunk])
        return sols, _row_bits(np.logical_not(ok, out=ok))


def piece_vertices(piece: RatePolytope) -> np.ndarray:
    """Enumerate the vertices of a piece.

    Solves every nonsingular d x d subsystem drawn from the constraints
    (one per repeated coefficient vector, the one with the smallest bound,
    the first on a tie, at its own position) plus the implicit
    nonnegativity facets and keeps the feasible solutions, one per group
    that agrees to DEDUP_DECIMALS places: the first in subsystem order. A
    coordinate that a nonnegativity facet of any subsystem of the group
    fixes is exactly 0.0. The piece is an index of one piece, whose rules
    are the rows it keeps, built and solved on each call; the pieces
    bound_pieces makes repeat no row, and come with the same vertices, from
    their table's pass over all of a scheme's pieces. Intended for the
    low-dimensional polytopes this package produces (dim <= 5); raises
    VertexEnumerationOverflow if the subsystem count of the rows it keeps
    would exceed COMBO_CEILING or the vertex count VERTEX_CEILING.
    Unboundedness is not detected here; convexify checks it.
    """
    b = piece.b.tolist()
    kept = {}                                 # row bytes -> the row kept
    for i, row in enumerate(piece.A):
        j = kept.setdefault(row.tobytes(), i)
        if b[i] < b[j]:
            kept[row.tobytes()] = i
    rows = np.array(sorted(kept.values()), dtype=np.intp)
    index = _SubsystemIndex.build(piece.dim, len(b), [(piece.A[rows], rows)])
    return index.vertices(piece.b[None])[0]


def _distinct(keys: np.ndarray):
    """(first, label): the first row of each distinct row of keys, in
    lexicographic order of the rows, and the number of every row's
    distinct row in that order."""
    order = np.lexsort(keys.T[::-1])          # stable: equal keys keep row order
    ordered = keys[order]
    head = np.ones(order.shape[0], dtype=bool)
    head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    label = np.empty_like(order)
    label[order] = head.cumsum() - 1
    return order[head], label


def _key_groups(rows: np.ndarray):
    """_distinct of the rows rounded to DEDUP_DECIMALS places, -0.0 folded
    into 0.0."""
    keys = rows.round(DEDUP_DECIMALS)
    keys[keys == 0.0] = 0.0                   # fold -0.0
    return _distinct(keys)


def _dedup_sorted(points: np.ndarray) -> np.ndarray:
    """Indices of the first row of each group of rows that agree once
    rounded to DEDUP_DECIMALS places (_key_groups), in lexicographic order
    of the rows. The groups' first rows are distinct, so the order has no
    ties."""
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    first = _key_groups(points)[0]
    return first[np.lexsort(points[first].T[::-1])]


@dataclass(frozen=True)
class RateRegion:
    """The convex hull of a union of bounded pieces, as convexify builds it.

    hull_points is the pieces' deduplicated vertex cloud, sorted, whose
    mixes are the hull's points; hull_sources, when present, gives for each
    the index of a piece that has it as a vertex. provenance, when present,
    aligns with pieces and records where each piece came from (typically a
    scheme dictionary). info carries free-form assembly diagnostics.
    """

    coords: tuple[str, ...]
    pieces: tuple
    hull_points: np.ndarray
    provenance: tuple | None = None
    info: dict = field(default_factory=dict)
    hull_sources: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.coords)


def _capped(A: np.ndarray) -> bool:
    """Whether rows with no negative coefficient cap every coordinate, which
    bounds any piece with this matrix since x >= 0."""
    rows = A[np.all(A >= 0, axis=1)]
    return bool(np.all(np.any(rows > 0, axis=0)))


def convexify(pieces, coords=None, provenance=None, info=None) -> RateRegion:
    """Convex hull of a union of bounded pieces, as a sorted vertex cloud.

    Vertices of every piece are pooled, deduplicated to DEDUP_DECIMALS
    places and sorted (_dedup_sorted), so the result does not depend on
    piece order; the cloud is kept whole, as hull_points. Each hull point's
    source is the first piece, in piece order, with that vertex. A nonempty
    piece that recedes without bound raises Unbounded. That is decided from
    the piece's matrix, by _capped or else by its RatePolytope.rays, except
    for a BoundTable's pieces: the table checks each of its matrices once,
    when it is built.
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
    clouds = [p.vertices for p in pieces]
    for p, cloud in zip(pieces, clouds):
        if (cloud.shape[0] and not isinstance(p, _TablePiece) and not _capped(p.A)
                and np.any(p.rays > DEDUP_TOL)):
            raise Unbounded(f"a piece over {coords} recedes without bound")
    sources = np.repeat(np.arange(len(pieces)), [c.shape[0] for c in clouds])
    points = np.vstack(clouds) if sources.size else np.empty((0, d))
    keep = _dedup_sorted(points)
    points, sources = points[keep], sources[keep]
    points.setflags(write=False)
    sources.setflags(write=False)
    return RateRegion(
        coords=coords,
        pieces=pieces,
        hull_points=points,
        provenance=None if provenance is None else tuple(provenance),
        info=dict(info or {}),
        hull_sources=sources,
    )


def _simplex(W, rhs, basis, cost, allowed=None):
    """Maximize cost.w over w >= 0 with W w = rhs by the primal simplex,
    from the feasible basis given, a list of column indices that is updated
    in place. Returns (weights of the basis columns, reduced costs).

    Each pivot prices every column with one matrix-vector product, and
    only the columns that allowed marks may enter. The entering column has
    the largest reduced cost above PRICE_TOL, the first on a tie. After
    BLAND_AFTER degenerate pivots in a row (each a step of at most
    PIVOT_TOL) it is the first with one, Bland's rule, until a step is not
    degenerate; a cycle of bases would be all degenerate steps, which
    Bland's rule cannot cycle through, so the simplex terminates. The
    leaving column is the first, by column index, of those tied in the
    ratio test. Raises SolverStall when PIVOT_CEILING pricing rounds end
    short of the optimum.
    """
    degenerate = 0                            # degenerate pivots in a row
    inverse = np.linalg.inv(W[:, basis])
    for _ in range(PIVOT_CEILING):
        weights = inverse @ rhs
        reduced = cost - (cost[basis] @ inverse) @ W
        reduced[basis] = 0.0
        if allowed is not None:
            reduced[~allowed] = -np.inf
        if degenerate >= BLAND_AFTER:
            j = int(np.argmax(reduced > PRICE_TOL))
        else:
            j = int(np.argmax(reduced))
        if reduced[j] <= PRICE_TOL:
            return weights, reduced
        alpha = inverse @ W[:, j]
        rows = np.flatnonzero(alpha > PIVOT_TOL)
        if not rows.size:
            raise SolverStall("the weight LP is unbounded, though its weights sum to one")
        ratios = np.maximum(weights[rows], 0.0) / alpha[rows]
        step = ratios.min()
        tied = rows[ratios == step]
        leave = tied[np.argmin(np.take(basis, tied))]
        basis[leave] = j
        # the basis inverse after the pivot: its row leave divided by the
        # pivot entry, subtracted from every other row in proportion
        pivot = inverse[leave] / alpha[leave]
        inverse -= np.outer(alpha, pivot)
        inverse[leave] = pivot
        degenerate = degenerate + 1 if step <= PIVOT_TOL else 0
    raise SolverStall(f"the weight LP was not optimal after {PIVOT_CEILING} pricing rounds")


def _phase_one(rows, rhs):
    """(W, basis, distance) for the weights w >= 0 with rows w = rhs, where
    rows[0] is all ones and rhs[0] is 1: rows with two artificial columns
    per other row appended, a unit column of each sign, a feasible basis
    of W that minimizes the artificials' sum, and that sum, the L1 distance
    by which rows w misses rhs, which is 0 when the system is feasible.
    Column 0 starts with all the weight, and each other row's gap to rhs
    with the artificial of its sign."""
    m, n = rows.shape
    unit = np.eye(m)[:, 1:]
    W = np.hstack([rows, unit, -unit])
    cost = np.concatenate([np.zeros(n), -np.ones(2 * (m - 1))])
    gap = rhs[1:] - rows[1:, 0]
    basis = [0, *(n + i + (m - 1) * int(g < 0) for i, g in enumerate(gap))]
    weights, _ = _simplex(W, rhs, basis, cost)
    return W, basis, float(-cost[basis] @ weights)


def _cloud_basis(W, rhs, basis, n):
    """(rows, rhs, basis) once _phase_one's artificials leave its basis:
    each is pivoted out on the largest entry of its row among the n cloud
    columns, or, when no entry exceeds PIVOT_TOL, its row repeats the
    others and is dropped."""
    kept = list(range(W.shape[0]))
    while max(basis) >= n:
        p = int(np.argmax(basis))
        sub = W[kept]
        entries = np.linalg.inv(sub[:, basis])[p] @ sub[:, :n]
        j = int(np.argmax(np.abs(entries)))
        if abs(entries[j]) > PIVOT_TOL:
            basis[p] = j
        else:
            kept.remove((basis.pop(p) - n) % (W.shape[0] - 1) + 1)
    return W[kept, :n], rhs[kept], basis


def region_contains(region: RateRegion, point, tol: float = HULL_TOL) -> bool:
    """Whether point lies within L1 distance tol of the region's hull: the
    sum over coordinates of |point - x| for the nearest mix x of hull
    points, found by _phase_one over the cloud."""
    x = np.asarray(point, dtype=float)
    if x.shape != (region.dim,):
        raise ValueError("point dimension mismatch")
    pts = region.hull_points
    if pts.shape[0] == 0:
        return False
    rows = np.vstack([np.ones(pts.shape[0]), pts.T])
    return _phase_one(rows, np.append(1.0, x))[2] <= tol


def region_support(region: RateRegion, direction) -> float:
    """Support value max d.x over the region, read off its hull points; a
    direction that is zero or not finite raises ValueError."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (region.dim,):
        raise ValueError("direction dimension mismatch")
    if not np.all(np.isfinite(d)):
        raise ValueError(f"direction must be finite, got {direction}")
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    if region.hull_points.shape[0] == 0:
        raise EmptySlice("support of an empty region")
    return float(np.max(region.hull_points @ d))


@dataclass(frozen=True)
class FrontierSample:
    """One support-direction probe of a 2-D slice of a region's hull.

    point (plane coordinates) attains value = direction.point, the maximum
    over the slice. mix holds (weight, hull-point index) pairs, in index
    order, weights positive and summing to one, whose weighted hull points
    are point with the fixed values: the time-sharing that achieves it.
    """

    theta: float
    direction: tuple[float, float]
    point: np.ndarray
    value: float
    mix: tuple


def check_slice(coords, plane, fixed) -> dict:
    """The fixed values of a 2-D slice over coords, as floats, once plane
    names two distinct coordinates and fixed gives a finite value to every
    other coordinate and to nothing else; ValueError otherwise."""
    plane = tuple(plane)
    if len(plane) != 2 or plane[0] == plane[1] or not set(plane) <= set(coords):
        raise ValueError(f"plane must name two distinct coordinates of {coords}, got {plane}")
    values = {name: float(value) for name, value in fixed.items()}
    for name, value in values.items():
        if name in plane:
            raise ValueError(f"plane coordinate {name!r} cannot be fixed")
        if name not in coords or not math.isfinite(value):
            raise ValueError(f"cannot fix {name!r} at {value}: fixed values are "
                             f"finite and name coordinates of {coords}")
    missing = [c for c in coords if c not in plane and c not in values]
    if missing:
        raise ValueError(f"missing fixed values for {missing}")
    return values


def _check_resolution(resolution) -> int:
    """resolution as an int, once it is a whole number of at least two
    directions; ValueError otherwise."""
    resolution = whole_number("resolution", resolution)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    return resolution


def frontier_sweep(region: RateRegion, plane, fixed=None, resolution: int = 33):
    """Support-direction sweep of a 2-D slice of the region's hull, one
    sample per direction.

    Directions are (cos t, sin t) for t evenly spaced over [0, pi/2].
    plane and fixed must pass check_slice. The slice is the mixes of hull
    points that meet the fixed values: _phase_one finds one, once, and
    raises EmptySlice when every mix misses them by more than HULL_TOL.
    Each direction (c, s) then starts from the previous direction's basis
    and maximizes, by _simplex, direction.x. When the optimal face (reduced
    costs within TIE_TOL of zero) holds more columns than the basis, a
    second _simplex on the face takes its Pareto-maximal corner, the one
    with the largest coordinate sum, then the largest first coordinate.
    Along a face normal to (c, s) the sum rises with the second coordinate
    when c > s and with the first when c < s, and it is flat when c = s;
    so the corner maximizes the second plane coordinate when c - s >
    TIE_TOL and the first otherwise.
    The sample's mix is the final basis, its point the weighted sum of the
    mix's points.
    """
    plane = tuple(plane)
    fixed = check_slice(region.coords, plane, fixed or {})
    resolution = _check_resolution(resolution)
    plane_idx = [region.coords.index(c) for c in plane]
    fixed_idx = [i for i, c in enumerate(region.coords) if c in fixed]
    pts = region.hull_points
    if pts.shape[0] == 0:
        raise EmptySlice(f"no feasible point in the slice at {fixed}")
    n = pts.shape[0]
    rows = np.vstack([np.ones(n), pts[:, fixed_idx].T])
    rhs = np.array([1.0, *(fixed[region.coords[i]] for i in fixed_idx)])
    W, basis, distance = _phase_one(rows, rhs)
    if distance > HULL_TOL:
        raise EmptySlice(f"no feasible point in the slice at {fixed}")
    rows, rhs, basis = _cloud_basis(W, rhs, basis, n)
    flat = pts[:, plane_idx]
    samples = []
    for k in range(resolution):
        theta = 0.5 * math.pi * k / (resolution - 1)
        direction = (math.cos(theta), math.sin(theta))
        weights, reduced = _simplex(rows, rhs, basis, flat @ np.asarray(direction))
        face = reduced >= -TIE_TOL
        if np.count_nonzero(face) > len(basis):
            corner = flat[:, 1] if direction[0] - direction[1] > TIE_TOL else flat[:, 0]
            weights, _ = _simplex(rows, rhs, basis, corner, face)
        order = np.argsort(basis)
        mix = [(float(weights[i]), basis[i]) for i in order if weights[i] > 0.0]
        point = np.array([w for w, _ in mix]) @ flat[[j for _, j in mix]]
        samples.append(FrontierSample(theta, direction, point,
                                      float(point @ np.asarray(direction)), tuple(mix)))
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
