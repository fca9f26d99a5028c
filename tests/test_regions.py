import numpy as np
import pytest

from gmacsec import (
    EmptySlice,
    RatePolytope,
    RateRegion,
    Unbounded,
    VertexEnumerationOverflow,
    clip_plus_split,
    convexify,
    frontier,
    frontier_sweep,
    piece_contains,
    piece_is_empty,
    piece_support,
    piece_vertices,
    polytope,
    region_contains,
    region_support,
    slice_piece,
    template,
)

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
        tmpl = template(
            RR,
            plain=[((1.0, 0.0), 1.0)],
            clipped=[((0.0, 1.0), (1.0, 0.0), -0.5)],
        )
        pieces = clip_plus_split(tmpl)
        assert len(pieces) == 2

        def in_union(point):
            return any(piece_contains(p, point) for p in pieces)

        for x in np.linspace(0.0, 1.0, 11):
            for y in np.linspace(0.0, 1.0, 11):
                expected = y <= max(x - 0.5, 0.0) + 1e-12
                assert in_union((x, y)) == expected, (x, y)

    def test_constant_bracket_resolves_without_branching(self):
        negative = template(
            RR, plain=[((1.0, 0.0), 1.0)],
            clipped=[((0.0, 1.0), (0.0, 0.0), -0.25)],
        )
        pieces = clip_plus_split(negative)
        assert len(pieces) == 1
        assert not piece_contains(pieces[0], (0.5, 0.1))
        assert piece_contains(pieces[0], (0.5, 0.0))

        positive = template(
            RR, plain=[((1.0, 0.0), 1.0)],
            clipped=[((0.0, 1.0), (0.0, 0.0), 0.25)],
        )
        pieces = clip_plus_split(positive)
        assert len(pieces) == 1
        assert piece_contains(pieces[0], (0.5, 0.25))
        assert not piece_contains(pieces[0], (0.5, 0.3))

    def test_empty_branches_are_dropped_unless_asked(self):
        tmpl = template(
            RR,
            plain=[((0.0, 1.0), -1.0)],
            clipped=[((1.0, 0.0), (0.0, 1.0), 0.0)],
        )
        assert clip_plus_split(tmpl) == []
        kept = clip_plus_split(tmpl, drop_empty=False)
        assert len(kept) == 2


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

    def test_large_subset_index_is_not_cached(self):
        from gmacsec import regions

        rng = np.random.default_rng(3)
        rows = np.abs(rng.normal(size=(80, 3)))
        piece = polytope(("R0", "R1", "Re"), [(tuple(r), 1.0) for r in rows])
        cached = regions._combinations.cache_info().currsize
        piece_vertices(piece)               # C(83, 3) = 91,881 subsets
        assert regions._combinations.cache_info().currsize == cached


class TestConvexify:
    def test_hull_prunes_to_extreme_points(self):
        small = polytope(RR, [((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5)])
        region = convexify([_unit_square(), small])
        assert _vertex_set(region.hull_points) == {(0, 0), (1, 0), (0, 1), (1, 1)}

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


class TestRegionQueries:
    def test_containment_uses_the_hull(self):
        region = convexify([_unit_square(), _wide_rectangle()])
        # inside the convex hull but in neither piece
        assert not piece_contains(_unit_square(), (1.4, 0.7))
        assert not piece_contains(_wide_rectangle(), (1.4, 0.7))
        assert region_contains(region, (1.4, 0.69))
        assert not region_contains(region, (1.4, 0.85))

    def test_union_membership_without_hull(self):
        region = RateRegion(coords=RR,
                            pieces=(_unit_square(), _wide_rectangle()))
        assert region_contains(region, (1.5, 0.4))
        assert region_contains(region, (0.4, 0.9))
        assert not region_contains(region, (1.4, 0.69))

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
        piece3 = polytope(("R0", "R1", "Re"), [((1.0, 1.0, 1.0), 1.0)])
        region3 = convexify([piece3])
        with pytest.raises(ValueError):
            frontier_sweep(region3, RR)
        bare = RateRegion(coords=RR, pieces=(_unit_square(),))
        with pytest.raises(ValueError):
            frontier_sweep(bare, RR)

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
