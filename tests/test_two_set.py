import numpy as np
import pytest

from gmacsec import (
    SchemeTwoSet,
    bound_pieces,
    convexify,
    equivocation_set_explicit,
    piece_vertices,
    region_support,
)
from gmacsec import fixtures as fx
from gmacsec.two_set import MAC, SECRECY, TWO_SET

from conftest import nonempty
from references import equivocation_set_oracle, piece_contains, piece_support, slice_piece


def _vertex_set(points):
    return {tuple(np.round(p, 9)) for p in points}


def _in_union(pieces, point, tol=1e-9):
    return any(piece_contains(p, point, tol) for p in pieces)


def _random_scheme(rng, nx1=2, nx2=2, nq=2, nu=2, nv=2):
    return SchemeTwoSet(
        rng.dirichlet(np.ones(nq)),
        rng.dirichlet(np.ones(nu), size=nq),
        rng.dirichlet(np.ones(nx1), size=nu),
        rng.dirichlet(np.ones(nv), size=nq),
        rng.dirichlet(np.ones(nx2), size=nv),
    )


def _adder_with_leaky_feedback(flip=0.3):
    """Y = X1 + X2; each sender's receiver sees the other input through a
    symmetric flip, so both leakage terms are positive."""
    noise = np.array([[1 - flip, flip], [flip, 1 - flip]])
    p = np.zeros((2, 2, 3, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            p[x1, x2, x1 + x2] = np.outer(noise[x2], noise[x1])
    from gmacsec import validate_channel
    return validate_channel(p, (2, 2, 3, 2, 2))


def _grid_cells(points, step):
    return {(int(round(x / step)), int(round(y / step))) for x, y in points}


def _explicit_cells(pieces, step, span):
    cells = set()
    for i in range(span + 1):
        for j in range(span + 1):
            if _in_union(pieces, (i * step, j * step)):
                cells.add((i, j))
    return cells


def _chebyshev_within_one(cells_a, cells_b):
    """Every cell of a has a cell of b within one grid step, both ways."""
    for src, dst in ((cells_a, cells_b), (cells_b, cells_a)):
        for (i, j) in src:
            if not any((i + di, j + dj) in dst
                       for di in (-1, 0, 1) for dj in (-1, 0, 1)):
                return False
    return True


class TestTerms:
    def test_clean_access_terms_are_exact(self, clean_mac):
        t = TWO_SET.scheme_terms(fx.uniform_two_set_scheme(clean_mac), clean_mac)
        assert t == {"m1": 1.0, "m2": 1.0, "m12": 2.0, "mt": 2.0,
                     "e1": 0.0, "e2": 0.0}

    def test_leakage_terms_on_a_noisy_channel(self, noiseless_wiretapper):
        scheme = fx.uniform_two_set_scheme(noiseless_wiretapper)
        t = TWO_SET.scheme_terms(scheme, noiseless_wiretapper)
        # sender 2's receiver sees X1 itself, so the full bit leaks
        assert t["e1"] == pytest.approx(1.0, abs=1e-12)
        # sender 1's receiver sees nothing
        assert t["e2"] == 0.0

    def test_joint_cap_dominates_singles(self, rng):
        for _ in range(8):
            channel = fx.random_channel((2, 2, 3, 2, 2), rng)
            t = TWO_SET.scheme_terms(_random_scheme(rng), channel)
            assert t["m12"] >= t["m1"] - 1e-12
            assert t["m12"] >= t["m2"] - 1e-12
            assert t["mt"] >= t["m12"] - 1e-12


class TestMacPolytope:
    def test_clean_access_vertices(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        (piece,) = bound_pieces(MAC, MAC.scheme_terms(scheme, clean_mac))
        assert _vertex_set(piece_vertices(piece)) == {
            (0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (1, 0, 1), (0, 1, 1),
        }


class TestExplicitEquivocation:
    def test_rectangle_reached_when_nothing_leaks(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        pieces = equivocation_set_explicit(scheme, clean_mac, 0.5, 0.8, 0.7)
        assert len(pieces) == 3
        assert _in_union(pieces, (0.8, 0.7))
        assert not _in_union(pieces, (0.81, 0.0))
        assert not _in_union(pieces, (0.0, 0.71))

    def test_per_sender_total_caps(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        pieces = equivocation_set_explicit(scheme, clean_mac, 0.9, 0.8, 0.7)
        # each equivocation is capped by mt - r0 - (other rate):
        # R1e <= 0.4 and R2e <= 0.3 here
        assert _in_union(pieces, (0.4, 0.3))
        assert not _in_union(pieces, (0.45, 0.0))
        assert not _in_union(pieces, (0.0, 0.35))

    def test_sum_cap_bites_when_both_sides_leak(self):
        channel = _adder_with_leaky_feedback()
        scheme = fx.uniform_two_set_scheme(channel)
        t = TWO_SET.scheme_terms(scheme, channel)
        # terms here: m1 = m2 = 1, m12 = mt = 1.5, e1 = e2 = 1 - h(0.3)
        assert t["m12"] == pytest.approx(1.5, abs=1e-12)
        assert t["e1"] == pytest.approx(t["e2"], abs=1e-12)
        assert 0.11 < t["e1"] < 0.13
        pieces = equivocation_set_explicit(scheme, channel, 0.0, 0.7, 0.7)
        # per-sender caps sit near 0.6813 but the sum cap m12 - e1 - e2
        # near 1.2626 cuts the corner of the rectangle
        assert _in_union(pieces, (0.68, 0.58))
        assert _in_union(pieces, (0.58, 0.68))
        assert not _in_union(pieces, (0.68, 0.60))
        assert not _in_union(pieces, (0.69, 0.0))

    def test_negative_rates_rejected(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        with pytest.raises(ValueError):
            equivocation_set_explicit(scheme, clean_mac, -0.1, 0.0, 0.0)
        for rates in ((0.0, float("nan"), 0.0), (0.0, 0.0, float("inf"))):
            with pytest.raises(ValueError):
                equivocation_set_explicit(scheme, clean_mac, *rates)


class TestOracle:
    def test_hand_rectangle_matches_exactly(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        step = 0.05
        got = equivocation_set_oracle(scheme, clean_mac, 0.0, 0.5, 0.5,
                                      step=step)
        cells = _grid_cells(got, step)
        assert cells == {(i, j) for i in range(11) for j in range(11)}

    def test_empty_outside_the_decodable_set(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        got = equivocation_set_oracle(scheme, clean_mac, 5.0, 0.5, 0.5)
        assert got.shape == (0, 2)
        # the explicit pieces keep only the origin there
        pieces = equivocation_set_explicit(scheme, clean_mac, 5.0, 0.5, 0.5)
        assert max(piece_support(p, (1.0, 1.0))[0] for p in pieces) == 0.0

    def test_bad_step_rejected(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        with pytest.raises(ValueError):
            equivocation_set_oracle(scheme, clean_mac, 0.0, 0.0, 0.0, step=0.0)

    def test_explicit_matches_oracle_inside_the_decodable_set(self, rng):
        step = 0.02
        checked = 0
        for _ in range(8):
            channel = fx.random_channel((2, 2, 4, 2, 2), rng,
                                        concentration=0.25)
            scheme = fx.uniform_two_set_scheme(channel)
            t = TWO_SET.scheme_terms(scheme, channel)
            # rates snapped onto the oracle grid so the dummy-rate floors
            # are attainable exactly
            r1 = np.floor(0.5 * t["m1"] / step) * step
            r2 = np.floor(0.5 * min(t["m2"], t["m12"] - r1) / step) * step
            r0 = 0.5 * (t["mt"] - r1 - r2)
            if min(r1, r2) < 0.05:
                continue
            checked += 1
            oracle = equivocation_set_oracle(scheme, channel, r0, r1, r2,
                                             step=step)
            assert oracle.shape[0] > 0
            oracle_cells = _grid_cells(oracle, step)
            pieces = equivocation_set_explicit(scheme, channel, r0, r1, r2)
            span = max(i for i, _ in oracle_cells) + 3
            explicit_cells = _explicit_cells(pieces, step, span)
            assert _chebyshev_within_one(explicit_cells, oracle_cells)
        assert checked >= 4


class TestFullRegion:
    def test_clean_access_piece_count_and_coords(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        pieces = nonempty(bound_pieces(TWO_SET, TWO_SET.scheme_terms(scheme, clean_mac)))
        assert len(pieces) == 40
        assert all(p.coords == ("R0", "R1", "R2", "R1e", "R2e")
                   for p in pieces)

    def test_rate_sum_support(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        pieces = nonempty(bound_pieces(TWO_SET, TWO_SET.scheme_terms(scheme, clean_mac)))
        region = convexify(pieces)
        got = region_support(region, (0.0, 1.0, 1.0, 0.0, 0.0))
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_fixed_rate_slice_agrees_with_explicit_set(self, rng):
        step = 0.1
        for _ in range(3):
            channel = fx.random_channel((2, 2, 3, 2, 2), rng)
            scheme = _random_scheme(rng)
            t = TWO_SET.scheme_terms(scheme, channel)
            r1 = 0.5 * t["m1"]
            r2 = 0.5 * min(t["m2"], t["m12"] - r1)
            r0 = 0.5 * (t["mt"] - r1 - r2)
            if min(r0, r1, r2) <= 0.01:
                continue
            sliced = [
                slice_piece(p, {"R0": r0, "R1": r1, "R2": r2})
                for p in nonempty(bound_pieces(TWO_SET, TWO_SET.scheme_terms(scheme, channel)))
            ]
            explicit = equivocation_set_explicit(scheme, channel, r0, r1, r2)
            for i in range(12):
                for j in range(12):
                    point = (i * step * r1, j * step * r2)
                    assert _in_union(sliced, point) == \
                        _in_union(explicit, point), point


class TestSecrecyPieces:
    def test_clean_access_keeps_all_three(self, clean_mac):
        scheme = fx.uniform_two_set_scheme(clean_mac)
        pieces = nonempty(bound_pieces(SECRECY, SECRECY.scheme_terms(scheme, clean_mac)))
        assert len(pieces) == 3
        region = convexify(pieces)
        assert region_support(region, (0.0, 1.0, 1.0)) == pytest.approx(
            2.0, abs=1e-9)
        assert _in_union(pieces, (0.0, 1.0, 1.0))

    def test_full_leak_keeps_only_the_silent_sender(self, noiseless_wiretapper):
        scheme = fx.uniform_two_set_scheme(noiseless_wiretapper)
        terms = SECRECY.scheme_terms(scheme, noiseless_wiretapper)
        pieces = nonempty(bound_pieces(SECRECY, terms))
        assert len(pieces) == 1
        top_r1, _ = piece_support(pieces[0], (0.0, 1.0, 0.0))
        assert top_r1 == 0.0
