"""The bound tables checked against hand-written constructions.

Every bound is built from a BoundTable: fixed rows whose right-hand sides
are signed sums of information terms. The references below spell each
system out by hand, as the package did before the tables; the pieces built
from the tables must equal them bit for bit, in the same order.
"""

import functools
import itertools
import operator
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmacsec import (
    NotDegradedWarning,
    SchemeOneSetOuter,
    UnknownVariable,
    assemble_region,
    bound_pieces,
    equivocation_set_explicit,
    fixtures as fx,
    piece_is_empty,
    polytope,
    secrecy_capacity_value,
)
from gmacsec import one_set, regions, two_set
from gmacsec.infotheory import _SCHEME_FIELDS
from gmacsec.optimizer import _BOUND_TABLES, BOUNDS, SearchConfig
from gmacsec.regions import BoundTable, RatePolytope
from conftest import nonempty
from scalar_oracle import mutual_information, scheme_joint
from references import search_schemes

FIXTURES = sorted(fx.FIXTURE_BUILDERS)
EQ = ("R0", "R1", "Re")
SEC = ("R0", "R1")
MAC = ("R0", "R1", "R2")
FULL = ("R0", "R1", "R2", "R1e", "R2e")


# --- hand-written references -------------------------------------------------

def expand_per_scheme(coords, plain, clipped, drop_empty=True):
    """The positive-part expansion as a loop over one scheme's numeric rows,
    independent of the package's: a bracket with no coordinate inside is
    resolved in place (lhs.x <= c for c >= 0, else lhs.x <= 0); the others
    branch in itertools.product order, 0 giving (lhs - affine, c) and 1
    giving (lhs, 0.0)."""
    base, branching = list(plain), []
    for lhs, affine, c in clipped:
        lhs, affine = np.asarray(lhs, dtype=float), np.asarray(affine, dtype=float)
        if np.max(np.abs(affine)) <= 1e-15:
            base.append((lhs, c if c >= 0 else 0.0))
        else:
            branching.append((lhs, affine, c))
    pieces = []
    for choice in itertools.product((0, 1), repeat=len(branching)):
        pairs = list(base)
        for take_affine, (lhs, affine, c) in zip(choice, branching):
            if take_affine == 0:
                pairs.append((lhs - affine, c))
            else:
                pairs.append((lhs, 0.0))
        piece = polytope(coords, pairs)
        if drop_empty and piece_is_empty(piece):
            continue
        pieces.append(piece)
    return pieces


def ref_inner(scheme, channel):
    a, b, d = one_set.INNER.scheme_terms(scheme, channel).values()
    return expand_per_scheme(
        EQ,
        plain=[((0.0, 1.0, 0.0), a), ((1.0, 1.0, 0.0), b), ((0.0, -1.0, 1.0), 0.0)],
        clipped=[((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), a - d),
                 ((0.0, 0.0, 1.0), (-1.0, 0.0, 0.0), b - d)],
    )


def _outer_rows(a_v, a, b, d):
    return [((0.0, 1.0, 0.0), a_v), ((1.0, 1.0, 0.0), b), ((0.0, -1.0, 1.0), 0.0),
            ((0.0, 0.0, 1.0), a - d), ((1.0, 0.0, 1.0), b - d)]


def ref_outer(scheme, channel):
    joint = scheme_joint(scheme, channel)
    a_v = mutual_information(*joint, "U", "Y", ("X2", "V"))
    a = mutual_information(*joint, "U", "Y", ("X2", "Q"))
    b = mutual_information(*joint, ("U", "X2", "Q"), "Y")
    d = mutual_information(*joint, "U", "Y2", ("X2", "Q"))
    return polytope(EQ, _outer_rows(a_v, a, b, d))


def _secrecy(a, b, d):
    if a - d < 0:
        return None
    return polytope(SEC, [((0.0, 1.0), a - d), ((1.0, 1.0), b - d)])


def ref_secrecy(scheme, channel):
    return _secrecy(*one_set.INNER.scheme_terms(scheme, channel).values())


def ref_degraded(scheme, channel):
    a, b, d = one_set.DEGRADED.scheme_terms(scheme, channel).values()
    return polytope(EQ, _outer_rows(a, a, b, d))


def ref_degraded_secrecy(scheme, channel):
    return _secrecy(*one_set.DEGRADED.scheme_terms(scheme, channel).values())


def ref_capacity(terms, r0):
    a, b, d = terms
    return max(0.0, min(a - d, b - d - r0))


def _plus(x):
    return x if x > 0.0 else 0.0


def ref_mac(scheme, channel):
    t = two_set.TWO_SET.scheme_terms(scheme, channel)
    return polytope(MAC, [((0.0, 1.0, 0.0), t["m1"]), ((0.0, 0.0, 1.0), t["m2"]),
                          ((0.0, 1.0, 1.0), t["m12"]), ((1.0, 1.0, 1.0), t["mt"])])


def ref_equivocation(scheme, channel, r0, r1, r2):
    t = two_set.TWO_SET.scheme_terms(scheme, channel)
    m1, m2, m12, mt, e1, e2 = (t[k] for k in ("m1", "m2", "m12", "mt", "e1", "e2"))
    caps1 = [((1.0, 0.0), _plus(m1 - e1)), ((1.0, 0.0), _plus(m12 - r2 - e1)),
             ((1.0, 0.0), _plus(mt - r0 - r2 - e1))]
    caps2 = [((0.0, 1.0), _plus(m2 - e2)), ((0.0, 1.0), _plus(m12 - r1 - e2)),
             ((0.0, 1.0), _plus(mt - r0 - r1 - e2))]
    coords = ("R1e", "R2e")
    return [
        polytope(coords, [((1.0, 0.0), r1), ((0.0, 1.0), r2)] + caps1 + caps2 + [
            ((1.0, 1.0), _plus(m12 - e1 - e2)), ((1.0, 1.0), _plus(mt - r0 - e1 - e2))]),
        polytope(coords, [((0.0, 1.0), 0.0), ((1.0, 0.0), r1)] + caps1),
        polytope(coords, [((1.0, 0.0), 0.0), ((0.0, 1.0), r2)] + caps2),
    ]


def ref_two_set(scheme, channel):
    t = two_set.TWO_SET.scheme_terms(scheme, channel)
    m1, m2, m12, mt, e1, e2 = (t[k] for k in ("m1", "m2", "m12", "mt", "e1", "e2"))
    z = (0.0,) * 5

    def vec(r0=0.0, r1=0.0, r2=0.0, r1e=0.0, r2e=0.0):
        return (r0, r1, r2, r1e, r2e)

    rates = [(vec(r1=1), m1), (vec(r2=1), m2), (vec(r1=1, r2=1), m12),
             (vec(r0=1, r1=1, r2=1), mt)]
    caps1 = [(vec(r1e=1), z, m1 - e1), (vec(r1e=1), vec(r2=-1), m12 - e1),
             (vec(r1e=1), vec(r0=-1, r2=-1), mt - e1)]
    caps2 = [(vec(r2e=1), z, m2 - e2), (vec(r2e=1), vec(r1=-1), m12 - e2),
             (vec(r2e=1), vec(r0=-1, r1=-1), mt - e2)]
    families = [
        (rates + [(vec(r1=-1, r1e=1), 0.0), (vec(r2=-1, r2e=1), 0.0)],
         caps1 + caps2 + [(vec(r1e=1, r2e=1), z, m12 - e1 - e2),
                          (vec(r1e=1, r2e=1), vec(r0=-1), mt - e1 - e2)]),
        (rates + [(vec(r2e=1), 0.0), (vec(r1=-1, r1e=1), 0.0)], caps1),
        (rates + [(vec(r1e=1), 0.0), (vec(r2=-1, r2e=1), 0.0)], caps2),
    ]
    return [p for plain, clipped in families
            for p in expand_per_scheme(FULL, plain, clipped)]


def ref_secrecy_two_set(scheme, channel):
    t = two_set.TWO_SET.scheme_terms(scheme, channel)
    m1, m2, m12, mt, e1, e2 = (t[k] for k in ("m1", "m2", "m12", "mt", "e1", "e2"))
    candidates = [
        polytope(MAC, [((0.0, 1.0, 0.0), m1 - e1), ((0.0, 0.0, 1.0), m2 - e2),
                       ((0.0, 1.0, 1.0), m12 - e1 - e2), ((1.0, 1.0, 1.0), mt - e1 - e2)]),
        polytope(MAC, [((0.0, 0.0, 1.0), 0.0), ((0.0, 1.0, 0.0), m1 - e1),
                       ((1.0, 1.0, 0.0), mt - e1)]),
        polytope(MAC, [((0.0, 1.0, 0.0), 0.0), ((0.0, 0.0, 1.0), m2 - e2),
                       ((1.0, 0.0, 1.0), mt - e2)]),
    ]
    return [p for p in candidates if not piece_is_empty(p)]


# Per bound: scheme variant and the reference pieces of one scheme.
REF_PIECES = {
    "inner-one-set": ("one_set", ref_inner),
    "outer-one-set": ("one_set_outer", lambda s, ch: [ref_outer(s, ch)]),
    "secrecy-one-set": ("one_set", lambda s, ch: [p for p in [ref_secrecy(s, ch)] if p]),
    "degraded": ("degraded", lambda s, ch: [ref_degraded(s, ch)]),
    "two-set": ("two_set", ref_two_set),
    "secrecy-two-set": ("two_set", ref_secrecy_two_set),
}


# --- helpers -----------------------------------------------------------------

def merged(piece):
    """The piece with each coefficient row kept once, at its first copy,
    bounded by the smallest bound of its copies, the first on a tie."""
    rows = {}                                 # row bytes -> (row, smallest bound)
    for row, bound in zip(piece.A, piece.b.tolist()):
        if row.tobytes() not in rows or bound < rows[row.tobytes()][1]:
            rows[row.tobytes()] = (row, bound)
    return RatePolytope(piece.coords,
                        np.array([row for row, _ in rows.values()]).reshape(-1, piece.dim),
                        np.array([bound for _, bound in rows.values()]))


def assert_same_piece(got, want):
    """got equals the reference want once want's repeated rows merge."""
    want = merged(want)
    assert got.coords == want.coords
    assert got.A.shape == want.A.shape and got.b.shape == want.b.shape
    assert got.A.tobytes() == want.A.tobytes()
    assert got.b.tobytes() == want.b.tobytes()


def assert_same_pieces(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_piece(g, w)


def scheme_values(table, variant, scheme, channel):
    """The table's terms of one scheme: its stacked terms with N = 1."""
    tables = [getattr(scheme, f)[None] for f in _SCHEME_FIELDS[variant].fields]
    return {name: float(col[0]) for name, col in table.terms(tables, channel).items()}


def schemes(variant, channel, count=4, seed=7):
    config = SearchConfig(strategy="random", sample_count=count, seed=seed,
                          cardinalities=(2, 2, 2))
    return list(search_schemes(variant, channel, config))


@pytest.fixture(scope="module", params=FIXTURES + ["random"])
def channel(request):
    if request.param == "random":
        # no zero terms, so sums of three terms round
        return fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(5))
    return fx.FIXTURE_BUILDERS[request.param]()


# --- tables against references -----------------------------------------------

def test_one_set_pieces_match_the_references(channel):
    for s in schemes("one_set", channel):
        terms = one_set.INNER.scheme_terms(s, channel)
        assert_same_pieces(nonempty(bound_pieces(one_set.INNER, terms)), ref_inner(s, channel))
        got = bound_pieces(one_set.SECRECY, one_set.SECRECY.scheme_terms(s, channel))
        assert_same_pieces(got, [p for p in [ref_secrecy(s, channel)] if p])
        for r0 in (0.0, 0.05, 0.3):
            got = secrecy_capacity_value(one_set.SECRECY, s, channel, r0)
            assert float(got).hex() == float(ref_capacity(terms.values(), r0)).hex()
    for s in schemes("one_set_outer", channel):
        assert isinstance(s, SchemeOneSetOuter)
        (got,) = bound_pieces(one_set.OUTER, one_set.OUTER.scheme_terms(s, channel))
        assert_same_piece(got, ref_outer(s, channel))


def test_degraded_pieces_match_the_references(channel):
    table = one_set.DEGRADED_SECRECY
    for s in schemes("degraded", channel):
        terms = one_set.DEGRADED.scheme_terms(s, channel)
        (got,) = bound_pieces(one_set.DEGRADED, terms)
        assert_same_piece(got, ref_degraded(s, channel))
        got = bound_pieces(table, table.scheme_terms(s, channel))
        assert_same_pieces(got, [p for p in [ref_degraded_secrecy(s, channel)] if p])
        for r0 in (0.0, 0.05, 0.3):
            got = secrecy_capacity_value(table, s, channel, r0)
            want = ref_capacity(terms.values(), r0)
            assert float(got).hex() == float(want).hex()


def test_two_set_pieces_match_the_references(channel):
    for s in schemes("two_set", channel, count=3):
        terms = two_set.TWO_SET.scheme_terms(s, channel)
        (got,) = bound_pieces(two_set.MAC, terms)
        assert_same_piece(got, ref_mac(s, channel))
        assert_same_pieces(nonempty(bound_pieces(two_set.TWO_SET, terms)),
                           ref_two_set(s, channel))
        assert_same_pieces(nonempty(bound_pieces(two_set.SECRECY, terms)),
                           ref_secrecy_two_set(s, channel))
        for rates in ((0.0, 0.0, 0.0), (0.1, 0.2, 0.05), (0.3, 0.01, 0.4)):
            got = equivocation_set_explicit(s, channel, *rates)
            want = [merged(w) for w in ref_equivocation(s, channel, *rates)]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.coords == w.coords
                assert g.A.tobytes() == w.A.tobytes()
                # a rate inside a bracket may be subtracted in another order
                np.testing.assert_allclose(g.b, w.b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bound", BOUNDS)
def test_assembled_regions_keep_the_reference_pieces(bound, channel, monkeypatch):
    variant, ref = REF_PIECES[bound]
    table = _BOUND_TABLES[bound]
    config = SearchConfig(strategy="random", sample_count=3, seed=5,
                          cardinalities=(2, 2, 2))

    def no_rays(piece):
        raise AssertionError("RatePolytope.rays read")

    # every table piece is capped, so convexify never needs a recession cone
    monkeypatch.setattr(RatePolytope, "rays", property(no_rays))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        region = assemble_region(channel, bound, config)
    want = []
    expanded = 0
    for s in search_schemes(variant, channel, config):
        want.extend(p for p in ref(s, channel) if not piece_is_empty(p))
        expanded += len(bound_pieces(table, scheme_values(table, variant, s, channel)))
    assert_same_pieces(region.pieces, want)
    # every empty piece of the expansion is counted
    assert len(region.pieces) + region.info["empty_pieces_dropped"] == expanded


# --- table semantics ---------------------------------------------------------

def test_two_set_expansion_count_is_static():
    assert len(two_set.TWO_SET.pieces) == 2 ** 5 + 2 ** 2 + 2 ** 2


def test_secrecy_guard_is_exact():
    # a - d = -1e-17 is within the emptiness slack, yet leaves no piece
    values = {"a": 0.0, "b": 0.5, "d": 1e-17}
    assert not piece_is_empty(polytope(SEC, [((0.0, 1.0), -1e-17), ((1.0, 1.0), 0.5)]))
    assert bound_pieces(one_set.SECRECY, values) == []
    values["d"] = 0.0
    (piece,) = bound_pieces(one_set.SECRECY, values)
    assert piece.b.tolist() == [0.0, 0.5]


# a term of a plain row, the guard's d, and e2, which also sits in brackets
# with no coordinate inside, where a NaN used to clip to 0.0
@pytest.mark.parametrize("table,name", [(one_set.INNER, "b"), (one_set.SECRECY, "d"),
                                        (two_set.TWO_SET, "e2")])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_terms_are_refused(table, name, bad):
    values = {term: 0.25 for term in table._names}
    assert bound_pieces(table, values)
    values[name] = bad
    with pytest.raises(ValueError, match=f"term '{name}'"):
        bound_pieces(table, values)


def test_right_hand_sides_add_left_to_right():
    table = BoundTable(("x", "y"), None, {}, [("x <= a + b + b", "y <= b + b + a")])
    (piece,) = bound_pieces(table, {"a": 1.0, "b": 1e-16})
    assert piece.b.tolist() == [(1.0 + 1e-16) + 1e-16, (1e-16 + 1e-16) + 1.0]
    assert piece.b[0] != piece.b[1]


def test_rows_parse_to_coefficients_and_ordered_terms():
    table = BoundTable(("R0", "R1", "Re"), None, {}, [(
        "R0 + Re <= b - d", "Re <= R1", "Re <= [b - R0 - d + c]+", "R1 <= 0",
    )])
    (rows,) = table.families
    assert rows[0][0].tolist() == [1.0, 0.0, 1.0] and rows[0][1] is None
    assert rows[0][2] == ((1.0, "b"), (-1.0, "d"))
    assert rows[1][0].tolist() == [0.0, -1.0, 1.0] and rows[1][2] == ()
    assert rows[2][1].tolist() == [-1.0, 0.0, 0.0]
    assert rows[2][2] == ((1.0, "b"), (-1.0, "d"), (1.0, "c"))
    assert rows[3][2] == ()
    assert len(table.pieces) == 2


@pytest.mark.parametrize("row", [
    "R1 a", "R1 <= b d", "R1 <= 0.5", "a <= R1", "<= b", "R1 <= [b - R0",
])
def test_malformed_rows_are_rejected(row):
    with pytest.raises(ValueError):
        BoundTable(("R0", "R1"), None, {}, [(row,)])


# --- terms: one expression each, read from the table's own kind ----------------

def _pieces(table):
    """One scheme's pieces under table: its terms, then bound_pieces."""
    return lambda s, ch: bound_pieces(table, table.scheme_terms(s, ch))


# The N = 1 calls, each reading one table and labelled by what it gives,
# and the scheme kind that table reads.
ONE_SCHEME = {
    "inner_polytope": ("one_set", _pieces(one_set.INNER)),
    "outer_polytope": ("one_set_outer", _pieces(one_set.OUTER)),
    "secrecy_polytope": ("one_set", _pieces(one_set.SECRECY)),
    "one_set_terms": ("one_set", one_set.INNER.scheme_terms),
    "secrecy_capacity_value": (
        "one_set", lambda s, ch: secrecy_capacity_value(one_set.SECRECY, s, ch, 0.0)),
    "degraded_polytope": ("degraded", _pieces(one_set.DEGRADED)),
    "degraded_secrecy_polytope": ("degraded", _pieces(one_set.DEGRADED_SECRECY)),
    "degraded_terms": ("degraded", one_set.DEGRADED.scheme_terms),
    "degraded_secrecy_capacity_value": (
        "degraded",
        lambda s, ch: secrecy_capacity_value(one_set.DEGRADED_SECRECY, s, ch, 0.0)),
    "two_set_terms": ("two_set", two_set.TWO_SET.scheme_terms),
    "mac_polytope": ("two_set", _pieces(two_set.MAC)),
    "equivocation_set_explicit": (
        "two_set", lambda s, ch: equivocation_set_explicit(s, ch, 0.0, 0.1, 0.1)),
    "two_set_region_piece": ("two_set", _pieces(two_set.TWO_SET)),
    "secrecy_inner_pieces": ("two_set", _pieces(two_set.SECRECY)),
}
SCHEMES = {
    "one_set": fx.uniform_u_equals_x1,
    "one_set_outer": fx.uniform_one_set_outer,
    "degraded": fx.uniform_degraded_scheme,
    "two_set": fx.uniform_two_set_scheme,
}


@pytest.mark.parametrize("kind", sorted(SCHEMES))
@pytest.mark.parametrize("function", sorted(ONE_SCHEME))
def test_every_table_reads_only_its_own_kind(function, kind, binary_degraded):
    table_kind, call = ONE_SCHEME[function]
    scheme = SCHEMES[kind](binary_degraded)
    if kind == table_kind:
        call(scheme, binary_degraded)
        return
    with pytest.raises(TypeError) as err:
        call(scheme, binary_degraded)
    assert f"a {table_kind} bound" in str(err.value)
    assert f"a {kind} scheme" in str(err.value)


def test_tables_name_their_kind():
    assert {name: table.kind for name, table in TABLES.items()} == {
        "one_set.DEGRADED": "degraded", "one_set.DEGRADED_SECRECY": "degraded",
        "one_set.INNER": "one_set", "one_set.OUTER": "one_set_outer",
        "one_set.SECRECY": "one_set", "two_set.EQUIVOCATION": "two_set",
        "two_set.MAC": "two_set", "two_set.SECRECY": "two_set",
        "two_set.TWO_SET": "two_set"}
    assert one_set.DEGRADED.expressions["b"] == "I(X1,X2;Y)"
    assert one_set.OUTER.expressions["a_v"] == "I(U;Y|X2,V)"


@pytest.mark.parametrize("expr, error", [
    ("I(U;Y|X2,W)", UnknownVariable),     # no W in the one-set joint
    ("I(U;Y1|X2,Q)", UnknownVariable),    # the one-set joint drops Y1
    ("H(U|Q)", ValueError),
    ("I(U;Y;Q)", ValueError),
    ("I(U;U,Y)", ValueError),
    ("U;Y", ValueError),
])
def test_term_expressions_are_checked_when_built(expr, error):
    with pytest.raises(error):
        BoundTable(SEC, "one_set", {"a": expr}, [("R1 <= a",)])


# --- expansion at construction against expansion per scheme ------------------

TABLES = {f"{mod.__name__.rpartition('.')[2]}.{name}": table
          for mod in (one_set, two_set)
          for name, table in sorted(vars(mod).items()) if isinstance(table, BoundTable)}


def _term_names(table):
    """Every name the table's right-hand sides and guard read."""
    sums = [terms for fam in table.families for _, _, terms in fam] + [table.guard]
    return sorted({name for terms in sums for _, name in terms})


def _left_to_right(signed_terms, values):
    if not signed_terms:
        return 0.0
    return functools.reduce(operator.add, [s * values[name] for s, name in signed_terms])


def pieces_per_scheme(table, values):
    """Each family's parsed rows with the values filled in, expanded by
    expand_per_scheme: the expansion done again for every scheme, keeping
    the empty pieces."""
    if _left_to_right(table.guard, values) < 0:
        return []
    pieces = []
    for fam in table.families:
        pieces.extend(expand_per_scheme(
            table.coords,
            plain=[(lhs, _left_to_right(rhs, values)) for lhs, aff, rhs in fam if aff is None],
            clipped=[(lhs, aff, _left_to_right(rhs, values))
                     for lhs, aff, rhs in fam if aff is not None],
            drop_empty=False))
    return pieces


_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0]),
                   st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _table_values(draw):
    name = draw(st.sampled_from(sorted(TABLES)))
    table = TABLES[name]
    return name, {term: draw(_VALUE) for term in _term_names(table)}


# a bracket constant [a - d]+ of -0.0, 0.0 and below zero, and a negative guard
@example(("one_set.INNER", {"a": -0.0, "b": 0.5, "d": 0.0}))
@example(("one_set.INNER", {"a": 0.0, "b": 0.5, "d": 0.0}))
@example(("one_set.INNER", {"a": 0.25, "b": 0.5, "d": 0.5}))
@example(("one_set.SECRECY", {"a": 0.25, "b": 1.0, "d": 0.5}))
@example(("two_set.EQUIVOCATION", {"m1": 0.25, "m2": -0.0, "m12": 0.5, "mt": 0.5,
                                   "e1": 0.5, "e2": 0.0, "R0": 0.0, "R1": 0.25,
                                   "R2": -0.0}))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(_table_values())
def test_table_pieces_equal_the_expansion_per_scheme(case):
    name, values = case
    table = TABLES[name]
    assert_same_pieces(bound_pieces(table, values), pieces_per_scheme(table, values))


def test_every_table_piece_is_capped():
    # each coordinate has a row with no negative coefficient that caps it,
    # so convexify knows the pieces are bounded without their rays
    for name, table in TABLES.items():
        for A, _ in table.pieces:
            assert regions._capped(A), name


def test_a_table_with_an_uncapped_matrix_is_refused_when_built():
    # R0 - R1 <= a leaves R0 free to grow with R1, and nothing caps R1
    with pytest.raises(ValueError, match="piece 0 of the table"):
        BoundTable(SEC, "one_set", {"a": "I(U;Y|X2,Q)"}, [("R0 <= a + R1",)])
    # only a bracket's <= 0 branch caps R1; its other branch comes first
    with pytest.raises(ValueError, match="piece 0 of the table"):
        BoundTable(SEC, "one_set", {"a": "I(U;Y|X2,Q)"}, [("R0 <= a", "R1 <= [a + R0]+")])
    # the second family's piece caps R0 alone
    with pytest.raises(ValueError, match="piece 1 of the table"):
        BoundTable(SEC, "one_set", {"a": "I(U;Y|X2,Q)"}, [("R0 <= a", "R1 <= a"), ("R0 <= a",)])


def test_convexify_takes_table_pieces_as_bounded(monkeypatch):
    pieces = [p for table in TABLES.values() if table.kind == "one_set"
              for p in bound_pieces(table, dict.fromkeys(_term_names(table), 0.5))]

    def no_check(A):
        raise AssertionError("a table piece's matrix checked again")

    monkeypatch.setattr(regions, "_capped", no_check)
    by_coords = {}
    for p in pieces:
        by_coords.setdefault(p.coords, []).append(p)
    for coords, group in by_coords.items():
        assert regions.convexify(group).hull_points.shape[0] > 0
    # a plain copy of a table piece is checked as any piece is
    with pytest.raises(AssertionError, match="checked again"):
        regions.convexify([RatePolytope(p.coords, p.A, p.b) for p in pieces[:1]])


def test_table_matrices_are_built_once_and_read_only():
    for table in TABLES.values():
        names = _term_names(table)
        first = bound_pieces(table, dict.fromkeys(names, 0.5))
        second = bound_pieces(table, dict.fromkeys(names, 0.25))
        assert len(first) == len(second) == len(table.pieces)
        for (A, index), p, q in zip(table.pieces, first, second):
            assert p.A is A and q.A is A
            assert not A.flags.writeable and not index.flags.writeable
