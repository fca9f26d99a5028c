import warnings

import numpy as np
import pytest

from gmacsec import (
    NotDegradedWarning,
    SchemeOneSet,
    SchemeOneSetOuter,
    SearchConfig,
    assemble_region,
    bound_pieces,
    check_stochastically_degraded,
    convexify,
    piece_is_empty,
    piece_vertices,
    secrecy_capacity_value,
)
from gmacsec import fixtures as fx
from gmacsec.one_set import DEGRADED, DEGRADED_SECRECY, INNER, OUTER, SECRECY

from conftest import binary_entropy, nonempty
from references import piece_contains, piece_support

H_TENTH = 0.4689955935892812
TINY = SearchConfig(sample_count=2, cardinalities=(2, 1, 1))


def _vertex_set(points):
    return {tuple(np.round(p, 9)) for p in points}


def _random_matched_schemes(rng, nq=2, nu=3):
    """An inner scheme and its outer extension with V set equal to Q."""
    p_q_x2 = rng.dirichlet(np.ones(nq)).reshape(nq, 1)
    p_u_given_q = rng.dirichlet(np.ones(nu), size=nq)
    p_x1_given_u = rng.dirichlet(np.ones(2), size=nu)
    inner = SchemeOneSet(p_q_x2, p_u_given_q, p_x1_given_u)
    outer = SchemeOneSetOuter(p_q_x2, p_u_given_q, p_x1_given_u, np.eye(nq))
    return inner, outer


class TestTerms:
    def test_clean_access_terms_are_exact(self, clean_mac):
        scheme = fx.uniform_u_equals_x1(clean_mac)
        a, b, d = INNER.scheme_terms(scheme, clean_mac).values()
        assert (a, b, d) == (1.0, 2.0, 0.0)

    def test_noiseless_wiretapper_terms(self, noiseless_wiretapper):
        scheme = fx.uniform_u_equals_x1(noiseless_wiretapper)
        a, b, d = INNER.scheme_terms(scheme, noiseless_wiretapper).values()
        assert a == pytest.approx(1.0 - H_TENTH, abs=1e-12)
        assert b == pytest.approx(1.0 - H_TENTH, abs=1e-12)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_leaky_channel_gap_vanishes_bitwise(self, leaky_wiretap):
        scheme = fx.uniform_u_equals_x1(leaky_wiretap)
        a, _, d = INNER.scheme_terms(scheme, leaky_wiretap).values()
        assert a - d == 0.0

    def test_flow_bound_dominates_separation(self, rng):
        # b >= a for every scheme: the total flow includes the separated part
        for _ in range(10):
            channel = fx.random_channel((2, 2, 3, 1, 2), rng)
            scheme = SchemeOneSet(
                rng.dirichlet(np.ones(4)).reshape(2, 2),
                rng.dirichlet(np.ones(2), size=2),
                rng.dirichlet(np.ones(2), size=2),
            )
            a, b, _ = INNER.scheme_terms(scheme, channel).values()
            assert b >= a - 1e-12

    def test_degraded_terms_closed_form(self, binary_degraded):
        scheme = fx.uniform_degraded_scheme(binary_degraded)
        a, b, d = DEGRADED.scheme_terms(scheme, binary_degraded).values()
        flip = 0.1 * 0.9 + 0.9 * 0.1
        assert a == pytest.approx(1.0 - H_TENTH, abs=1e-12)
        assert b == pytest.approx(1.0 - H_TENTH, abs=1e-12)
        assert d == pytest.approx(1.0 - binary_entropy(flip), abs=1e-12)


class TestInnerPieces:
    def test_clean_access_gives_two_pieces(self, clean_mac):
        scheme = fx.uniform_u_equals_x1(clean_mac)
        pieces = nonempty(bound_pieces(INNER, INNER.scheme_terms(scheme, clean_mac)))
        assert len(pieces) == 2

    def test_clean_access_hull_vertices(self, clean_mac):
        scheme = fx.uniform_u_equals_x1(clean_mac)
        pieces = nonempty(bound_pieces(INNER, INNER.scheme_terms(scheme, clean_mac)))
        region = convexify(pieces)
        assert _vertex_set(region.hull_points) == {
            (0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1),
        }

    def test_equivocation_never_exceeds_private_rate(self, clean_mac, rng):
        scheme = fx.uniform_u_equals_x1(clean_mac)
        pieces = nonempty(bound_pieces(INNER, INNER.scheme_terms(scheme, clean_mac)))
        for piece in pieces:
            for vertex in piece_vertices(piece):
                assert vertex[2] <= vertex[1] + 1e-9

    def test_leaking_scheme_pins_equivocation_to_zero(self, noiseless_wiretapper):
        scheme = fx.uniform_u_equals_x1(noiseless_wiretapper)
        terms = INNER.scheme_terms(scheme, noiseless_wiretapper)
        pieces = nonempty(bound_pieces(INNER, terms))
        assert len(pieces) == 1
        value, _ = piece_support(pieces[0], (0.0, 0.0, 1.0))
        assert value == pytest.approx(0.0, abs=1e-9)
        # the rate caps are still live
        value, _ = piece_support(pieces[0], (0.0, 1.0, 0.0))
        assert value == pytest.approx(1.0 - H_TENTH, abs=1e-9)


class TestOuterPiece:
    def test_rate_supports_match_the_inner_branch(self, binary_degraded, rng):
        # with V = Q on a degraded channel the converse piece coincides with
        # the full-equivocation branch of the achievable set, so the two
        # sides agree along every pure rate direction
        for _ in range(5):
            inner, outer = _random_matched_schemes(rng)
            terms = INNER.scheme_terms(inner, binary_degraded)
            inner_pieces = nonempty(bound_pieces(INNER, terms))
            (outer_piece,) = bound_pieces(OUTER, OUTER.scheme_terms(outer, binary_degraded))
            for direction in [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0),
                              (0.0, 0.0, 1.0)]:
                inner_best = max(
                    piece_support(p, direction)[0] for p in inner_pieces
                )
                outer_best = piece_support(outer_piece, direction)[0]
                assert outer_best == pytest.approx(inner_best, abs=1e-9)

    def test_outer_vertices_are_achievable(self, binary_degraded, rng):
        inner, outer = _random_matched_schemes(rng)
        terms = INNER.scheme_terms(inner, binary_degraded)
        inner_pieces = nonempty(bound_pieces(INNER, terms))
        (outer_piece,) = bound_pieces(OUTER, OUTER.scheme_terms(outer, binary_degraded))
        for vertex in piece_vertices(outer_piece):
            assert any(piece_contains(p, vertex, tol=1e-7)
                       for p in inner_pieces)

    def test_unclipped_cap_cuts_the_no_secrecy_corner(self, binary_degraded, rng):
        # the converse piece pays for equivocation up front: at Re = 0 it
        # still caps R0 by b - d, while the achievable union reaches R0 = b
        inner, outer = _random_matched_schemes(rng)
        terms = INNER.scheme_terms(inner, binary_degraded)
        a, b, d = terms.values()
        assert d > 1e-6, "fixture should leak a little"
        inner_pieces = nonempty(bound_pieces(INNER, terms))
        (outer_piece,) = bound_pieces(OUTER, OUTER.scheme_terms(outer, binary_degraded))
        inner_r0 = max(piece_support(p, (1.0, 0.0, 0.0))[0]
                       for p in inner_pieces)
        outer_r0 = piece_support(outer_piece, (1.0, 0.0, 0.0))[0]
        assert inner_r0 == pytest.approx(b, abs=1e-9)
        assert outer_r0 == pytest.approx(b - d, abs=1e-9)


class TestSecrecy:
    def test_clean_access_secrecy_vertices(self, clean_mac):
        scheme = fx.uniform_u_equals_x1(clean_mac)
        (piece,) = bound_pieces(SECRECY, SECRECY.scheme_terms(scheme, clean_mac))
        assert _vertex_set(piece_vertices(piece)) == {
            (0, 0), (2, 0), (0, 1), (1, 1),
        }

    def test_leaking_scheme_contributes_nothing(self, noiseless_wiretapper):
        scheme = fx.uniform_u_equals_x1(noiseless_wiretapper)
        (piece,) = bound_pieces(SECRECY, SECRECY.scheme_terms(scheme, noiseless_wiretapper))
        assert piece.b[0] < 0.0 and piece_is_empty(piece)

    def test_borderline_scheme_keeps_a_degenerate_piece(self, leaky_wiretap):
        scheme = fx.uniform_u_equals_x1(leaky_wiretap)
        (piece,) = bound_pieces(SECRECY, SECRECY.scheme_terms(scheme, leaky_wiretap))
        value, _ = piece_support(piece, (0.0, 1.0))
        assert value == 0.0

    def test_value_traces_the_piecewise_formula(self, clean_mac):
        scheme = fx.uniform_u_equals_x1(clean_mac)
        # a - d = 1 and b - d = 2 here, so the value is min(1, 2 - r0)
        assert secrecy_capacity_value(SECRECY, scheme, clean_mac, 0.0) == 1.0
        assert secrecy_capacity_value(SECRECY, scheme, clean_mac, 0.5) == 1.0
        assert secrecy_capacity_value(SECRECY, scheme, clean_mac, 1.5) == 0.5
        assert secrecy_capacity_value(SECRECY, scheme, clean_mac, 2.5) == 0.0

    def test_leaky_value_is_exact_zero(self, leaky_wiretap):
        scheme = fx.uniform_u_equals_x1(leaky_wiretap)
        assert secrecy_capacity_value(SECRECY, scheme, leaky_wiretap, 0.0) == 0.0

    def test_negative_common_rate_rejected(self, clean_mac, binary_degraded):
        with pytest.raises(ValueError):
            secrecy_capacity_value(SECRECY, fx.uniform_u_equals_x1(clean_mac),
                                   clean_mac, -0.1)
        with pytest.raises(ValueError):
            secrecy_capacity_value(
                DEGRADED_SECRECY, fx.uniform_degraded_scheme(binary_degraded),
                binary_degraded, -0.1)


class TestDegradedForms:
    def test_uniform_scheme_hits_the_known_gap(self, binary_degraded):
        scheme = fx.uniform_degraded_scheme(binary_degraded)
        value = secrecy_capacity_value(DEGRADED_SECRECY, scheme, binary_degraded, 0.0)
        flip = 0.1 * 0.9 + 0.9 * 0.1
        expected = binary_entropy(flip) - binary_entropy(0.1)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_no_warning_on_a_degraded_channel(self, binary_degraded):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assemble_region(binary_degraded, "degraded", TINY)

    def test_warns_when_the_channel_is_not_degraded(self, noiseless_wiretapper):
        with pytest.warns(NotDegradedWarning):
            assemble_region(noiseless_wiretapper, "degraded", TINY)

    @pytest.mark.parametrize("name", ["binary_degraded", "noiseless_wiretapper"])
    def test_info_records_the_degradedness_verdict(self, name, request):
        channel = request.getfixturevalue(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotDegradedWarning)
            region = assemble_region(channel, "degraded", TINY)
        verdict = check_stochastically_degraded(channel).verdict
        assert region.info["degradedness_verdict"] == verdict

    def test_piece_matches_the_one_set_shape(self, binary_degraded):
        scheme = fx.uniform_degraded_scheme(binary_degraded)
        terms = DEGRADED.scheme_terms(scheme, binary_degraded)
        (piece,) = bound_pieces(DEGRADED, terms)
        a, b, d = terms.values()
        top, _ = piece_support(piece, (0.0, 0.0, 1.0))
        assert top == pytest.approx(a - d, abs=1e-9)
        cap, _ = piece_support(piece, (0.0, 1.0, 0.0))
        assert cap == pytest.approx(a, abs=1e-9)
