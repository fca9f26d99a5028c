"""The bound tables checked against hand-written constructions.

Every bound is built from a BoundTable: fixed rows whose right-hand sides
are signed sums of information terms. The references below spell each
system out by hand, as the package did before the tables; the pieces built
from the tables must equal them bit for bit, in the same order.
"""

import warnings

import numpy as np
import pytest

from gmacsec import (
    NotDegradedWarning,
    PieceExplosion,
    SchemeOneSetOuter,
    assemble_region,
    clip_plus_split,
    degraded_polytope,
    degraded_secrecy_capacity_value,
    degraded_secrecy_polytope,
    degraded_terms,
    equivocation_set_explicit,
    fixtures as fx,
    inner_polytope,
    mac_polytope,
    one_set_terms,
    outer_polytope,
    piece_is_empty,
    polytope,
    sample_schemes_random,
    secrecy_capacity_value,
    secrecy_inner_pieces,
    secrecy_polytope,
    template,
    two_set_region_piece,
    two_set_terms,
)
from gmacsec import one_set, two_set
from gmacsec.infotheory import assemble_joint_one_set_outer, mutual_information
from gmacsec.optimizer import _BOUND_TABLES, BOUNDS, SearchConfig
from gmacsec.regions import BoundTable, bound_pieces

FIXTURES = sorted(fx.FIXTURE_BUILDERS)
EQ = ("R0", "R1", "Re")
SEC = ("R0", "R1")
MAC = ("R0", "R1", "R2")
FULL = ("R0", "R1", "R2", "R1e", "R2e")


# --- hand-written references -------------------------------------------------

def ref_inner(scheme, channel):
    a, b, d = one_set_terms(scheme, channel)
    return clip_plus_split(template(
        EQ,
        plain=[((0.0, 1.0, 0.0), a), ((1.0, 1.0, 0.0), b), ((0.0, -1.0, 1.0), 0.0)],
        clipped=[((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), a - d),
                 ((0.0, 0.0, 1.0), (-1.0, 0.0, 0.0), b - d)],
    ))


def _outer_rows(a_v, a, b, d):
    return [((0.0, 1.0, 0.0), a_v), ((1.0, 1.0, 0.0), b), ((0.0, -1.0, 1.0), 0.0),
            ((0.0, 0.0, 1.0), a - d), ((1.0, 0.0, 1.0), b - d)]


def ref_outer(scheme, channel):
    joint = assemble_joint_one_set_outer(scheme, channel)
    a_v = mutual_information(joint, "U", "Y", ("X2", "V"))
    a = mutual_information(joint, "U", "Y", ("X2", "Q"))
    b = mutual_information(joint, ("U", "X2", "Q"), "Y")
    d = mutual_information(joint, "U", "Y2", ("X2", "Q"))
    return polytope(EQ, _outer_rows(a_v, a, b, d))


def _secrecy(a, b, d):
    if a - d < 0:
        return None
    return polytope(SEC, [((0.0, 1.0), a - d), ((1.0, 1.0), b - d)])


def ref_secrecy(scheme, channel):
    return _secrecy(*one_set_terms(scheme, channel))


def ref_degraded(scheme, channel):
    a, b, d = degraded_terms(scheme, channel)
    return polytope(EQ, _outer_rows(a, a, b, d))


def ref_degraded_secrecy(scheme, channel):
    return _secrecy(*degraded_terms(scheme, channel))


def ref_capacity(terms, r0):
    a, b, d = terms
    return max(0.0, min(a - d, b - d - r0))


def _plus(x):
    return x if x > 0.0 else 0.0


def ref_mac(scheme, channel):
    t = two_set_terms(scheme, channel)
    return polytope(MAC, [((0.0, 1.0, 0.0), t["m1"]), ((0.0, 0.0, 1.0), t["m2"]),
                          ((0.0, 1.0, 1.0), t["m12"]), ((1.0, 1.0, 1.0), t["mt"])])


def ref_equivocation(scheme, channel, r0, r1, r2):
    t = two_set_terms(scheme, channel)
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
    t = two_set_terms(scheme, channel)
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
        template(FULL, rates + [(vec(r1=-1, r1e=1), 0.0), (vec(r2=-1, r2e=1), 0.0)],
                 caps1 + caps2 + [(vec(r1e=1, r2e=1), z, m12 - e1 - e2),
                                  (vec(r1e=1, r2e=1), vec(r0=-1), mt - e1 - e2)]),
        template(FULL, rates + [(vec(r2e=1), 0.0), (vec(r1=-1, r1e=1), 0.0)], caps1),
        template(FULL, rates + [(vec(r1e=1), 0.0), (vec(r2=-1, r2e=1), 0.0)], caps2),
    ]
    return [p for fam in families for p in clip_plus_split(fam)]


def ref_secrecy_two_set(scheme, channel):
    t = two_set_terms(scheme, channel)
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

def assert_same_piece(got, want):
    assert got.coords == want.coords
    assert got.A.shape == want.A.shape and got.b.shape == want.b.shape
    assert got.A.tobytes() == want.A.tobytes()
    assert got.b.tobytes() == want.b.tobytes()


def assert_same_pieces(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_piece(g, w)


def schemes(variant, channel, count=4, seed=7):
    config = SearchConfig(strategy="random", sample_count=count, seed=seed,
                          cardinalities=(2, 2, 2))
    return list(sample_schemes_random(variant, channel, config))


@pytest.fixture(scope="module", params=FIXTURES + ["random"])
def channel(request):
    if request.param == "random":
        # no zero terms, so sums of three terms round
        return fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(5))
    return fx.FIXTURE_BUILDERS[request.param]()


# --- tables against references -----------------------------------------------

def test_one_set_pieces_match_the_references(channel):
    for s in schemes("one_set", channel):
        assert_same_pieces(inner_polytope(s, channel), ref_inner(s, channel))
        got, want = secrecy_polytope(s, channel), ref_secrecy(s, channel)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_piece(got, want)
        for r0 in (0.0, 0.05, 0.3):
            got = secrecy_capacity_value(s, channel, r0)
            assert float(got).hex() == float(ref_capacity(one_set_terms(s, channel), r0)).hex()
    for s in schemes("one_set_outer", channel):
        assert isinstance(s, SchemeOneSetOuter)
        assert_same_piece(outer_polytope(s, channel), ref_outer(s, channel))


def test_degraded_pieces_match_the_references(channel):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        for s in schemes("degraded", channel):
            assert_same_piece(degraded_polytope(s, channel), ref_degraded(s, channel))
            got = degraded_secrecy_polytope(s, channel)
            want = ref_degraded_secrecy(s, channel)
            assert (got is None) == (want is None)
            if want is not None:
                assert_same_piece(got, want)
            for r0 in (0.0, 0.05, 0.3):
                got = degraded_secrecy_capacity_value(s, channel, r0)
                want = ref_capacity(degraded_terms(s, channel), r0)
                assert float(got).hex() == float(want).hex()


def test_two_set_pieces_match_the_references(channel):
    for s in schemes("two_set", channel, count=3):
        assert_same_piece(mac_polytope(s, channel), ref_mac(s, channel))
        assert_same_pieces(two_set_region_piece(s, channel), ref_two_set(s, channel))
        assert_same_pieces(secrecy_inner_pieces(s, channel),
                           ref_secrecy_two_set(s, channel))
        for rates in ((0.0, 0.0, 0.0), (0.1, 0.2, 0.05), (0.3, 0.01, 0.4)):
            got = equivocation_set_explicit(s, channel, *rates)
            want = ref_equivocation(s, channel, *rates)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.coords == w.coords
                assert g.A.tobytes() == w.A.tobytes()
                # a rate inside a bracket may be subtracted in another order
                np.testing.assert_allclose(g.b, w.b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bound", BOUNDS)
def test_assembled_regions_keep_the_reference_pieces(bound, channel):
    variant, ref = REF_PIECES[bound]
    table = _BOUND_TABLES[bound][1]
    config = SearchConfig(strategy="random", sample_count=3, seed=5,
                          cardinalities=(2, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        region = assemble_region(channel, bound, config)
    want = []
    expanded = 0
    for s in sample_schemes_random(variant, channel, config):
        want.extend(p for p in ref(s, channel) if not piece_is_empty(p))
        expanded += len(bound_pieces(table, table.terms(s, channel), drop_empty=False))
    assert_same_pieces(region.pieces, want)
    # every empty piece of the expansion is counted
    assert len(region.pieces) + region.info["empty_pieces_dropped"] == expanded


# --- table semantics ---------------------------------------------------------

def test_two_set_expansion_count_is_static():
    assert two_set.TWO_SET.max_pieces == 2 ** 5 + 2 ** 2 + 2 ** 2
    scheme = fx.uniform_two_set_scheme(fx.clean_mac())
    with pytest.raises(PieceExplosion):
        two_set_region_piece(scheme, fx.clean_mac(), max_pieces=39)
    assert two_set_region_piece(scheme, fx.clean_mac(), max_pieces=40)


def test_secrecy_guard_is_exact():
    # a - d = -1e-17 is within the emptiness slack, yet leaves no piece
    values = {"a": 0.0, "b": 0.5, "d": 1e-17}
    assert not piece_is_empty(polytope(SEC, [((0.0, 1.0), -1e-17), ((1.0, 1.0), 0.5)]))
    assert bound_pieces(one_set.SECRECY, values, drop_empty=False) == []
    values["d"] = 0.0
    (piece,) = bound_pieces(one_set.SECRECY, values, drop_empty=False)
    assert piece.b.tolist() == [0.0, 0.5]


def test_right_hand_sides_add_left_to_right():
    table = BoundTable(("x",), None, [("x <= a + b + b", "x <= b + b + a")])
    (piece,) = bound_pieces(table, {"a": 1.0, "b": 1e-16}, drop_empty=False)
    assert piece.b.tolist() == [(1.0 + 1e-16) + 1e-16, (1e-16 + 1e-16) + 1.0]
    assert piece.b[0] != piece.b[1]


def test_rows_parse_to_coefficients_and_ordered_terms():
    table = BoundTable(("R0", "R1", "Re"), None, [(
        "R0 + Re <= b - d", "Re <= R1", "Re <= [b - R0 - d + c]+", "R1 <= 0",
    )])
    (rows,) = table.families
    assert rows[0][0].tolist() == [1.0, 0.0, 1.0] and rows[0][1] is None
    assert rows[0][2] == ((1.0, "b"), (-1.0, "d"))
    assert rows[1][0].tolist() == [0.0, -1.0, 1.0] and rows[1][2] == ()
    assert rows[2][1].tolist() == [-1.0, 0.0, 0.0]
    assert rows[2][2] == ((1.0, "b"), (-1.0, "d"), (1.0, "c"))
    assert rows[3][2] == ()
    assert table.max_pieces == 2


@pytest.mark.parametrize("row", [
    "R1 a", "R1 <= b d", "R1 <= 0.5", "a <= R1", "<= b", "R1 <= [b - R0",
])
def test_malformed_rows_are_rejected(row):
    with pytest.raises(ValueError):
        BoundTable(("R0", "R1"), None, [(row,)])
