import functools
import math
import warnings

import numpy as np
import pytest

from gmacsec import regions
from gmacsec import (
    EmptySlice,
    RatePolytope,
    SearchConfig,
    Unbounded,
    VertexEnumerationOverflow,
    assemble_region,
    convexify,
    frontier,
    frontier_sweep,
    piece_is_empty,
    piece_vertices,
    polytope,
    region_contains,
    region_support,
)

from conftest import nonempty, split_rows
from references import piece_contains, piece_support, slice_piece

RR = ("R0", "R1")


def _unit_square():
    return polytope(RR, [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])


def _wide_rectangle():
    return polytope(RR, [((1.0, 0.0), 2.0), ((0.0, 1.0), 0.5)])


def _triangle():
    return polytope(RR, [((1.0, 1.0), 1.0)])


def _vertex_set(points):
    return {tuple(np.round(p, 9)) for p in points}


class TestPieceBasics:
    def test_contains_interior_boundary_outside(self):
        square = _unit_square()
        assert piece_contains(square, (0.5, 0.5))
        assert piece_contains(square, (1.0, 1.0))
        assert piece_contains(square, (1.0 + 5e-10, 1.0))
        assert not piece_contains(square, (1.1, 1.0))
        assert not piece_contains(square, (-0.1, 0.5))

    def test_empty_detection(self):
        feasible = _unit_square()
        assert not piece_is_empty(feasible)
        empty = polytope(RR, [((0.0, 1.0), -1.0)])
        assert piece_is_empty(empty)

    def test_nonnegative_bounds_hold_the_origin(self, monkeypatch):
        # a piece whose bounds are all >= 0 holds the origin, so it is not
        # empty, and no vertex is enumerated to say so
        def no_work(piece):
            raise AssertionError("vertices enumerated")

        monkeypatch.setattr(regions, "piece_vertices", no_work)
        for pairs in ([((1.0, 1.0), 1.0)], [((1.0, -1.0), 0.0), ((0.0, 1.0), -0.0)],
                      [((-1.0, 0.0), 0.0)]):
            assert not piece_is_empty(polytope(RR, pairs))
        monkeypatch.undo()
        # a negative bound anywhere is decided from the vertices: empty
        # however small the bound or the row, and nonempty off the origin
        empty = [[((1.0, 1.0), 1.0), ((-1.0, 0.0), -2.0)],
                 [((1.0, 0.0), -1e-6)],
                 [((0.0, 1.0), 0.5), ((1.0, 1.0), 1.0), ((-1.0, -1.0), -1.5)],
                 [((1.0, 1.0), 1.0), ((-1.0, 0.0), -0.6), ((0.0, -1.0), -0.6)]]
        for pairs in empty:
            assert piece_is_empty(polytope(RR, pairs))
        assert not piece_is_empty(polytope(RR, [((1.0, 1.0), 1.0), ((-1.0, 0.0), -0.5)]))

    def test_vertices_and_rays_are_cached_read_only(self):
        piece = polytope(RR, [((1.0, -1.0), 0.5)])
        for name in ("vertices", "rays"):
            first = getattr(piece, name)
            assert getattr(piece, name) is first
            assert not first.flags.writeable

    def test_unconstrained_piece_is_feasible(self):
        free = polytope(RR, [])
        assert not piece_is_empty(free)
        assert piece_contains(free, (100.0, 100.0))

    def test_support_value_and_point(self):
        value, point = piece_support(_unit_square(), (1.0, 1.0))
        assert value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(point, [1.0, 1.0], atol=1e-9)

    def test_support_unbounded_direction(self):
        half = polytope(RR, [((1.0, 0.0), 1.0)])
        with pytest.raises(Unbounded):
            piece_support(half, (0.0, 1.0))

    def test_support_of_empty_piece(self):
        empty = polytope(RR, [((0.0, 1.0), -1.0)])
        with pytest.raises(EmptySlice):
            piece_support(empty, (1.0, 0.0))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            piece_support(_unit_square(), (0.0, 0.0))


class TestSlice:
    def test_substitution_algebra(self):
        coords = ("R0", "R1", "Re")
        piece = polytope(coords, [((1.0, 1.0, 1.0), 3.0), ((0.0, 1.0, 0.0), 2.0)])
        sliced = slice_piece(piece, {"Re": 1.0})
        assert sliced.coords == ("R0", "R1")
        value, _ = piece_support(sliced, (1.0, 1.0))
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_negative_fixed_value_kills_the_piece(self):
        coords = ("R0", "R1", "Re")
        piece = polytope(coords, [((1.0, 1.0, 1.0), 3.0)])
        sliced = slice_piece(piece, {"Re": -0.5})
        assert piece_is_empty(sliced)

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(ValueError):
            slice_piece(_unit_square(), {"Rx": 0.0})

    def test_cannot_slice_everything_away(self):
        with pytest.raises(ValueError):
            slice_piece(_unit_square(), {"R0": 0.0, "R1": 0.0})


class TestClipPlusSplit:
    def test_branching_matches_positive_part_semantics(self):
        pieces = split_rows(
            RR,
            plain=[((1.0, 0.0), 1.0)],
            clipped=[((0.0, 1.0), (1.0, 0.0), -0.5)],
        )
        assert len(pieces) == 2

        def in_union(point):
            return any(piece_contains(p, point) for p in pieces)

        for x in np.linspace(0.0, 1.0, 11):
            for y in np.linspace(0.0, 1.0, 11):
                expected = y <= max(x - 0.5, 0.0) + 1e-12
                assert in_union((x, y)) == expected, (x, y)

    def test_constant_bracket_resolves_without_branching(self):
        pieces = split_rows(
            RR, plain=[((1.0, 0.0), 1.0)],
            clipped=[((0.0, 1.0), (0.0, 0.0), -0.25)],
        )
        assert len(pieces) == 1
        assert not piece_contains(pieces[0], (0.5, 0.1))
        assert piece_contains(pieces[0], (0.5, 0.0))

        pieces = split_rows(
            RR, plain=[((1.0, 0.0), 1.0)],
            clipped=[((0.0, 1.0), (0.0, 0.0), 0.25)],
        )
        assert len(pieces) == 1
        assert piece_contains(pieces[0], (0.5, 0.25))
        assert not piece_contains(pieces[0], (0.5, 0.3))

    def test_empty_branches_are_dropped_unless_asked(self):
        rows = dict(
            plain=[((0.0, 1.0), -1.0)],
            clipped=[((1.0, 0.0), (0.0, 1.0), 0.0)],
        )
        kept = split_rows(RR, **rows)
        assert nonempty(kept) == []
        assert len(kept) == 2

    def test_clipped_rows_must_match_the_coordinates(self):
        # every expanded row reaches RatePolytope, which checks its width
        for lhs, affine in (((1.0,), (0.0,)), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))):
            with pytest.raises(ValueError, match="width"):
                split_rows(RR, plain=[], clipped=[(lhs, affine, 0.0)])


class TestVertices:
    def test_unit_square(self):
        verts = piece_vertices(_unit_square())
        assert _vertex_set(verts) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_triangle(self):
        verts = piece_vertices(_triangle())
        assert _vertex_set(verts) == {(0, 0), (1, 0), (0, 1)}

    def test_redundant_constraints_change_nothing(self):
        piece = polytope(RR, [
            ((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((1.0, 1.0), 5.0),
        ])
        assert _vertex_set(piece_vertices(piece)) == \
            _vertex_set(piece_vertices(_unit_square()))

    def test_combination_budget_guard(self):
        rng = np.random.default_rng(7)
        directions = rng.normal(size=(230, 3))
        piece = polytope(("R0", "R1", "Re"),
                         [(tuple(row), 1.0) for row in directions])
        with pytest.raises(VertexEnumerationOverflow):
            piece_vertices(piece)


class TestConvexify:
    def test_hull_keeps_the_deduplicated_cloud(self):
        # every vertex once, sorted, with the first piece that has it
        small = polytope(RR, [((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5)])
        region = convexify([_unit_square(), small])
        assert region.hull_points.tolist() == [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
                                               [0.5, 0.0], [0.5, 0.5], [1.0, 0.0],
                                               [1.0, 1.0]]
        assert region.hull_sources.tolist() == [0, 1, 0, 1, 1, 0, 0]

    def test_piece_order_does_not_matter(self):
        a = convexify([_unit_square(), _wide_rectangle()])
        b = convexify([_wide_rectangle(), _unit_square()])
        assert np.array_equal(a.hull_points, b.hull_points)

    def test_flat_cloud_is_kept(self):
        segment = polytope(RR, [((1.0, 0.0), 1.0), ((0.0, 1.0), 0.0)])
        region = convexify([segment])
        assert _vertex_set(region.hull_points) == {(0, 0), (1, 0)}

    def test_no_pieces_needs_coords(self):
        with pytest.raises(ValueError):
            convexify([])
        region = convexify([], coords=RR)
        assert region.hull_points.shape == (0, 2)

    def test_mixed_coords_rejected(self):
        other = polytope(("R0", "Re"), [((1.0, 0.0), 1.0)])
        with pytest.raises(ValueError):
            convexify([_unit_square(), other])

    def test_unbounded_piece_is_refused(self):
        # R0 - R1 <= 1 recedes along (0, 1) and (1, 1): no vertex cloud spans it
        with pytest.raises(Unbounded):
            convexify([polytope(RR, [((1.0, -1.0), 1.0)])])
        # an empty piece has no hull to span, however its rows recede
        empty = polytope(RR, [((1.0, -1.0), -1.0), ((-1.0, 1.0), -1.0)])
        assert convexify([empty, _unit_square()]).hull_points.shape == (4, 2)

    def test_uncapped_bounded_piece_is_kept(self):
        # no nonnegative row caps R0, but R1 <= 2 caps R0 through R0 - R1 <= 1
        A = np.array([[1.0, -1.0], [0.0, 1.0]])
        assert not regions._capped(A)
        region = convexify([polytope(RR, [(A[0], 1.0), (A[1], 2.0)])])
        assert _vertex_set(region.hull_points) == {(0, 0), (1, 0), (0, 2), (3, 2)}
        assert region_support(region, (0.0, 1.0)) == 2.0


class TestRegionQueries:
    def test_containment_uses_the_hull(self):
        region = convexify([_unit_square(), _wide_rectangle()])
        # inside the convex hull but in neither piece
        assert not piece_contains(_unit_square(), (1.4, 0.7))
        assert not piece_contains(_wide_rectangle(), (1.4, 0.7))
        assert region_contains(region, (1.4, 0.69))
        assert not region_contains(region, (1.4, 0.85))

    def test_support_agrees_with_vertex_maximum(self):
        region = convexify([_unit_square(), _wide_rectangle()])
        for direction in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.9)]:
            by_hull = region_support(region, direction)
            by_cloud = float(np.max(region.hull_points @ np.asarray(direction)))
            assert by_hull == by_cloud

    def test_empty_region_has_no_support(self):
        region = convexify([], coords=RR)
        with pytest.raises(EmptySlice):
            region_support(region, (1.0, 0.0))
        assert not region_contains(region, (0.0, 0.0))

    def test_non_finite_direction_raises(self, clean_mac):
        # the README tour's secrecy region
        config = SearchConfig(strategy="grid", cardinalities=(1, 2, 1),
                              grid_resolution=5)
        region = assemble_region(clean_mac, "secrecy-one-set", config)
        assert region_support(region, (0.0, 1.0)) == 1.0
        for direction in ((math.nan, 1.0), (math.inf, 0.0), (0.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                region_support(region, direction)

    @pytest.mark.parametrize("query, argument, message", [
        (region_support, (1.0, 0.0, 0.0), "direction dimension mismatch"),
        (region_support, (0.0, 0.0), "direction must be nonzero"),
        (region_contains, (0.5,), "point dimension mismatch"),
        (region_contains, (0.5, 0.5, 0.0), "point dimension mismatch"),
        (region_contains, (math.nan, 0.5), "finite"),
        (region_contains, (math.inf, 0.0), "finite"),
        (region_contains, (0.0, -math.inf), "finite"),
        (functools.partial(region_contains, tol=math.nan), (0.5, 0.5), "finite"),
    ], ids=["support_dim", "support_zero", "contains_short", "contains_long",
            "contains_nan", "contains_inf", "contains_minus_inf", "contains_nan_tol"])
    def test_malformed_queries_raise(self, query, argument, message):
        region = convexify([_unit_square(), _wide_rectangle()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                query(region, argument)


class TestFrontier:
    def test_staircase_hand_case(self):
        region = convexify([_unit_square(), _wide_rectangle()])
        pts = frontier(region, RR)
        assert np.allclose(pts, [[1.0, 1.0], [2.0, 0.5]], atol=1e-9)

    def test_sweep_reports_winning_piece_without_hull(self):
        # the winning piece is named through the mix's hull points and
        # hull_sources, not by a sweep over single pieces
        region = convexify([_unit_square(), _wide_rectangle()])
        samples = frontier_sweep(region, RR)

        def pieces(sample):
            return {int(region.hull_sources[j]) for _, j in sample.mix}

        along_x = samples[0]
        assert along_x.theta == 0.0
        assert along_x.value == pytest.approx(2.0, abs=1e-9)
        assert pieces(along_x) == {1}
        along_y = samples[-1]
        assert along_y.value == pytest.approx(1.0, abs=1e-9)
        assert pieces(along_y) == {0}

    def test_whole_float_resolution_sweeps_its_int(self):
        region = convexify([_unit_square(), _wide_rectangle()])
        samples = frontier_sweep(region, RR, resolution=3.0)
        want = frontier_sweep(region, RR, resolution=3)
        assert [s.theta for s in samples] == [s.theta for s in want]
        assert len(samples) == 3

    def test_slice_out_of_reach_raises(self):
        piece = polytope(("R0", "R1", "Re"), [((1.0, 1.0, 1.0), 1.0)])
        region = convexify([piece])
        with pytest.raises(EmptySlice):
            frontier(region, RR, fixed={"Re": 5.0})

    def test_three_dimensional_slice(self):
        piece = polytope(("R0", "R1", "Re"), [((1.0, 1.0, 1.0), 3.0)])
        region = convexify([piece])
        pts = frontier(region, RR, fixed={"Re": 1.0})
        # the slice is the simplex R0 + R1 <= 2
        assert np.allclose(pts.sum(axis=1), 2.0, atol=1e-9)

    def test_validation_errors(self):
        region = convexify([_unit_square()])
        with pytest.raises(ValueError):
            frontier_sweep(region, ("R0",))
        with pytest.raises(ValueError):
            frontier_sweep(region, ("R0", "Rx"))
        with pytest.raises(ValueError):
            frontier_sweep(region, RR, fixed={"R1": 0.0})
        with pytest.raises(ValueError):
            frontier_sweep(region, RR, resolution=1)
        with pytest.raises(ValueError, match="resolution must be a whole number"):
            frontier_sweep(region, RR, resolution=3.5)
        piece3 = polytope(("R0", "R1", "Re"), [((1.0, 1.0, 1.0), 1.0)])
        region3 = convexify([piece3])
        with pytest.raises(ValueError):
            frontier_sweep(region3, RR)
        # a fixed value must be finite and name a coordinate of the region
        for fixed in ({"Re": 0.0, "Rx": 5.0}, {"Re": float("nan")}, {"Re": math.inf}):
            with pytest.raises(ValueError):
                frontier_sweep(region3, RR, fixed=fixed)
        with pytest.raises(ValueError):
            frontier_sweep(region3, ("R0", "R0"), fixed={"R1": 0.0, "Re": 0.0})

    def test_outputs_are_pareto_and_contained(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.uniform(0.1, 1.0, size=(n, 2))
            b = rng.uniform(0.5, 2.0, size=n)
            region = convexify([polytope(RR, list(zip(map(tuple, A), b)))])
            pts = frontier(region, RR)
            for i, p in enumerate(pts):
                assert region_contains(region, p, tol=1e-7)
                for j, q in enumerate(pts):
                    if i == j:
                        continue
                    dominates = q[0] >= p[0] - 1e-12 and q[1] >= p[1] - 1e-12 \
                        and (q[0] > p[0] + 1e-12 or q[1] > p[1] + 1e-12)
                    assert not dominates
