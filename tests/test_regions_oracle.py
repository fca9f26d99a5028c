"""Vertex-based geometry checked against its slow references.

The package answers emptiness and support queries from piece vertices, and
hull-slice and hull-membership queries with its own small simplex over the
region's vertex cloud; these tests solve the same queries with scipy's
linprog and require the same answers. Every piece gets
its vertices from a subsystem index: the pieces of one scheme under a
bound table come with theirs, from one pass over the table's index, and
any other piece enumerates its own, as an index of one piece. Vertices are
checked against the brute-force enumeration that solves every subsystem of
every piece afresh, and byte for byte against own_enumeration, which finds
and solves one piece's subsystems on their own.
"""

import dataclasses
import itertools
import json
import math
import pathlib
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from gmacsec import (
    EmptySlice,
    NotDegradedWarning,
    RatePolytope,
    RateRegion,
    SolverStall,
    Unbounded,
    VertexEnumerationOverflow,
    convexify,
    fixtures as fx,
    frontier,
    frontier_sweep,
    piece_is_empty,
    piece_vertices,
    polytope,
    region_contains,
)
from gmacsec import one_set, optimizer, regions, two_set
from gmacsec.channel import validate_channel
from gmacsec.optimizer import SearchConfig, assemble_region
from gmacsec.regions import BoundTable, _Min, bound_pieces
from conftest import split_rows
from references import (
    piece_contains,
    piece_support,
    search_schemes,
    slice_piece,
    vertex_argmax,
    zero_slice_points,
)
from test_bound_tables import pieces_per_scheme

LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}
NAMES = ("R0", "R1", "R2", "R1e", "R2e")
DATA = pathlib.Path(__file__).parent / "data"


def lp_support(piece, direction):
    """LP status (0 optimal, 2 infeasible, 3 unbounded) and max d.x.

    HiGHS's presolve (scipy 1.17) can call a feasible LP that is unbounded
    along the direction infeasible, so an infeasible verdict is solved
    again without it."""
    rows = piece.A.shape[0]
    for presolve in (True, False):
        res = linprog(-np.asarray(direction), A_ub=piece.A if rows else None,
                      b_ub=piece.b if rows else None,
                      bounds=[(0, None)] * piece.dim, method="highs",
                      options={**LP_OPTIONS, "presolve": presolve})
        if res.status != 2:
            break
    return res.status, (-res.fun if res.status == 0 else None)


def lp_is_empty(piece, tol=1e-9):
    rows = piece.A.shape[0]
    if rows == 0:
        return False
    res = linprog(np.zeros(piece.dim), A_ub=piece.A, b_ub=piece.b + tol,
                  bounds=[(0, None)] * piece.dim, method="highs",
                  options=LP_OPTIONS)
    assert res.status in (0, 2), res.message
    return res.status == 2


def lp_hull_slice_support(points, plane_idx, fixed_idx, fixed_vals, direction):
    """Support of conv(points) sliced at the fixed values, solved over hull
    weights: max d.(P w) over w >= 0, sum w = 1, F w = fixed values.
    Returns None when the slice is empty."""
    n = points.shape[0]
    obj = points[:, plane_idx] @ np.asarray(direction)
    A_eq = np.vstack([np.ones(n)] + [points[:, i] for i in fixed_idx])
    b_eq = np.array([1.0] + list(fixed_vals))
    res = linprog(-obj, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * n,
                  method="highs", options=LP_OPTIONS)
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def lp_hull_distance(points, x):
    """Chebyshev distance from x to conv(points), solved over hull weights:
    min s over w >= 0, sum w = 1, |P w - x| <= s coordinatewise."""
    n, d = points.shape
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    A_ub = np.zeros((2 * d, n + 1))
    A_ub[:d, :n], A_ub[d:, :n] = points.T, -points.T
    A_ub[:, n] = -1.0
    A_eq = np.append(np.ones(n), 0.0)[None, :]
    res = linprog(cost, A_ub=A_ub, b_ub=np.concatenate([x, -x]), A_eq=A_eq,
                  b_eq=[1.0], bounds=[(0, None)] * (n + 1), method="highs",
                  options=LP_OPTIONS)
    assert res.status == 0, res.message
    return res.fun


def _random_piece(rng, dim, kind):
    coords = NAMES[:dim]
    rows = []
    if kind != "unbounded":
        # caps: nonnegative rows that together bound every coordinate
        for i in range(dim):
            cap = rng.uniform(0.0, 1.0, size=dim) * (rng.uniform(size=dim) < 0.5)
            cap[i] = rng.uniform(0.2, 1.0)
            rows.append((cap, rng.uniform(0.5, 2.0)))
    else:
        # one coordinate is left without a cap, so the piece recedes
        free = int(rng.integers(dim))
        for i in range(dim):
            if i != free:
                row = np.zeros(dim)
                row[i] = 1.0
                rows.append((row, rng.uniform(0.5, 2.0)))
    for _ in range(int(rng.integers(1, 4))):
        rows.append((rng.normal(size=dim), rng.uniform(0.1, 1.0)))
    if kind == "empty":
        # a floor on a positive combination, often above what the caps allow
        rows.append((-rng.uniform(0.0, 1.0, size=dim), -rng.uniform(1.0, 6.0)))
    return polytope(coords, rows)


def _directions(rng, dim, count):
    dirs = [np.eye(dim)[0], np.ones(dim)]
    dirs += [rng.normal(size=dim) for _ in range(count)]
    return dirs


class TestPieceOracle:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_emptiness_and_support_match_the_lp(self, dim):
        rng = np.random.default_rng(1000 + dim)
        seen = {"empty": 0, "nonempty": 0, "unbounded": 0}
        for kind in ("bounded", "empty", "unbounded"):
            for _ in range(8):
                piece = _random_piece(rng, dim, kind)
                empty = lp_is_empty(piece)
                assert piece_is_empty(piece) == empty
                seen["empty" if empty else "nonempty"] += 1
                for d in _directions(rng, dim, 2):
                    status, value = lp_support(piece, d)
                    if status == 2:
                        assert empty
                        with pytest.raises(EmptySlice):
                            piece_support(piece, d)
                    elif status == 3:
                        seen["unbounded"] += 1
                        with pytest.raises(Unbounded):
                            piece_support(piece, d)
                    else:
                        assert status == 0
                        got, point = piece_support(piece, d)
                        assert got == pytest.approx(value, abs=1e-9)
                        assert float(point @ d) == pytest.approx(got, abs=1e-12)
                        assert piece_contains(piece, point)
        # the draws exercise every verdict
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_sliced_away_piece_is_empty(self, dim):
        rng = np.random.default_rng(2000 + dim)
        piece = _random_piece(rng, dim, "bounded")
        sliced = slice_piece(piece, {NAMES[dim - 1]: -0.5})
        # the slice adds the all-zero row 0 <= -1
        assert not np.any(sliced.A[-1]) and sliced.b[-1] == -1.0
        assert lp_is_empty(sliced)
        assert piece_is_empty(sliced)
        with pytest.raises(EmptySlice):
            piece_support(sliced, np.ones(sliced.dim))

    def test_witness_takes_the_largest_coordinate_sum(self):
        # R0 + R1 <= 1 with R0 <= 0.75: along (1, 1) the whole edge from
        # (0, 1) to (0.75, 0.25) is optimal, with equal coordinate sums, so
        # the remaining tie goes to the lexicographically largest vertex
        piece = polytope(NAMES[:2], [((1.0, 1.0), 1.0), ((1.0, 0.0), 0.75)])
        value, point = piece_support(piece, (1.0, 1.0))
        assert value == 1.0
        assert point.tolist() == [0.75, 0.25]
        # along (0, 1) the optimal face is the single vertex (0, 1)
        assert piece_support(piece, (0.0, 1.0))[1].tolist() == [0.0, 1.0]

    def test_unbounded_pieces_need_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(regions, "linprog", no_lp)
        # R0 - R1 <= 0.5 and R1 - R0 <= 0.5: a strip along (1, 1)
        strip = polytope(NAMES[:2], [((1.0, -1.0), 0.5), ((-1.0, 1.0), 0.5)])
        with pytest.raises(Unbounded):
            piece_support(strip, (1.0, 0.0))
        # along (-1, 0) the edge R0 = 0 from (0, 0) to (0, 0.5) is optimal
        value, point = piece_support(strip, (-1.0, 0.0))
        assert value == 0.0 and point.tolist() == [0.0, 0.5]
        assert sorted(strip.rays.tolist()) == [[0.0, 0.0], [0.5, 0.5]]

    def test_package_pieces_need_no_lp(self, monkeypatch, binary_degraded):
        config = SearchConfig(strategy="random", sample_count=4)

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(regions, "linprog", no_lp)
        region = assemble_region(binary_degraded, "inner-one-set", config)
        frontier(region, ("R0", "R1"), fixed={"Re": 0.05}, resolution=9)
        assert region_contains(region, region.hull_points.mean(axis=0))



# --- properties on pieces with coefficients on the grid of halves --------------
# Dot products of halves with the quarter grid below are exact, so the
# checks need no slack beyond the package's own, and parallel, repeated,
# zero and degenerate rows arise often.

_HALVES = st.integers(-4, 4).map(lambda k: k / 2)


@st.composite
def _pieces_and_directions(draw):
    dim = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 7))
    vec = st.lists(_HALVES, min_size=dim, max_size=dim)
    pairs = [(draw(vec), draw(st.integers(-2, 8)) / 2) for _ in range(rows)]
    directions = draw(st.lists(vec.filter(any), min_size=1, max_size=4))
    return polytope(NAMES[:dim], pairs), directions


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_pieces_and_directions())
def test_vertex_support_equals_lp_support(case):
    piece, directions = case
    empty = lp_is_empty(piece)
    assert piece_is_empty(piece) == empty
    for d in directions:
        status, value = lp_support(piece, d)
        if status == 2:
            assert empty
            with pytest.raises(EmptySlice):
                piece_support(piece, d)
        elif status == 3:
            with pytest.raises(Unbounded):
                piece_support(piece, d)
        else:
            assert status == 0
            got, point = piece_support(piece, d)
            assert got == pytest.approx(value, abs=1e-9)
            assert piece_contains(piece, point)


@st.composite
def _bracketed_rows(draw):
    dim = draw(st.integers(2, 3))
    vec = st.lists(_HALVES, min_size=dim, max_size=dim)
    const = st.integers(-4, 8).map(lambda k: k / 4)
    plain = [(draw(vec), draw(const)) for _ in range(draw(st.integers(0, 3)))]
    clipped = []
    for _ in range(draw(st.integers(1, 3))):
        # about one bracket in four has no coordinate inside
        affine = draw(st.one_of(vec, st.just([0.0] * dim)))
        clipped.append((draw(vec), affine, draw(const)))
    return NAMES[:dim], plain, clipped


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_bracketed_rows())
def test_clip_plus_split_union_is_the_bracketed_template(rows):
    coords, plain, clipped = rows
    axis = np.arange(-1, 10) / 4
    points = np.array(list(itertools.product(axis, repeat=len(coords))))
    # membership read straight off the rows: x >= 0, plain rows, and
    # lhs.x <= [affine.x + const]_+ for every clipped row
    inside = np.all(points >= 0, axis=1)
    for lhs, bound in plain:
        inside &= points @ np.array(lhs) <= bound
    for lhs, affine, const in clipped:
        inside &= points @ np.array(lhs) <= np.maximum(points @ np.array(affine) + const, 0.0)
    union = np.zeros(len(points), dtype=bool)
    for piece in split_rows(coords, plain, clipped):
        union |= np.all(points >= 0, axis=1) & np.all(
            points @ piece.A.T <= piece.b, axis=1)
    assert np.array_equal(union, inside)

def _inner1_region():
    config = SearchConfig(strategy="random", sample_count=8)
    return assemble_region(fx.binary_degraded(), "inner-one-set", config)


def _two_set_region():
    channel = fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(1))
    config = SearchConfig(strategy="random", sample_count=3,
                          cardinalities=(2, 2, 2))
    return assemble_region(channel, "two-set", config)


@pytest.fixture(scope="module")
def workload_regions():
    return {"inner1": _inner1_region(), "two-set": _two_set_region()}


def _assert_slice_matches_lp(region, plane, fixed, resolution=9):
    """Each sample of the sweep against the weight-space LP over the cloud:
    its value within 1e-12, its point on its direction's line, and its mix,
    which reproduces the point with the fixed values. Returns whether the
    slice is nonempty."""
    pts = region.hull_points
    plane_idx = [region.coords.index(c) for c in plane]
    fixed_idx = [region.coords.index(c) for c in fixed]
    fixed_vals = [fixed[c] for c in fixed]
    thetas = [0.5 * np.pi * k / (resolution - 1) for k in range(resolution)]
    expected = [lp_hull_slice_support(pts, plane_idx, fixed_idx, fixed_vals,
                                      (np.cos(t), np.sin(t))) for t in thetas]
    if all(v is None for v in expected):
        with pytest.raises(EmptySlice):
            frontier_sweep(region, plane, fixed=fixed, resolution=resolution)
        return False
    samples = frontier_sweep(region, plane, fixed=fixed, resolution=resolution)
    assert len(samples) == resolution
    for s, want in zip(samples, expected):
        assert s.value == pytest.approx(want, abs=1e-12)
        assert float(np.dot(s.point, s.direction)) == pytest.approx(s.value, abs=1e-12)
        # the mix of hull points reproduces the point with the fixed values
        weights = np.array([w for w, _ in s.mix])
        full = np.empty(region.dim)
        full[plane_idx], full[fixed_idx] = s.point, fixed_vals
        assert np.all(weights > 0) and abs(weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(weights @ pts[[j for _, j in s.mix]], full,
                                   rtol=0.0, atol=1e-9)
    return True


def _flat_cloud(rank):
    """A piece in (R0, R1, Re) that spans a point, a segment or a square
    inside the plane Re = 0.25, convexified, and the box [lo, hi] it fills."""
    hi = np.array([0.5 if rank else 0.0, 0.5 if rank == 2 else 0.0, 0.25])
    region = convexify([polytope(("R0", "R1", "Re"),
                                 [((1.0, 0.0, 0.0), hi[0]), ((0.0, 1.0, 0.0), hi[1]),
                                  ((0.0, 0.0, 1.0), 0.25), ((0.0, 0.0, -1.0), -0.25)])])
    return region, np.array([0.0, 0.0, 0.25]), hi


class TestHullSliceOracle:
    @pytest.mark.parametrize("re_value", [0.0, 0.05, 0.5])
    def test_inner1_slices(self, workload_regions, re_value):
        region = workload_regions["inner1"]
        nonempty = _assert_slice_matches_lp(region, ("R0", "R1"), {"Re": re_value})
        assert nonempty == (re_value < 0.1)

    @pytest.mark.parametrize("scale", [0.0, 0.1, 0.3])
    def test_two_set_slices(self, workload_regions, scale):
        region = workload_regions["two-set"]
        top = region.hull_points.max(axis=0)
        for plane in (("R1", "R2"), ("R0", "R1e")):
            fixed = {c: scale * float(top[i]) for i, c in enumerate(region.coords)
                     if c not in plane}
            nonempty = _assert_slice_matches_lp(region, plane, fixed)
            assert nonempty or scale > 0

    def test_hull_with_thousands_of_facets(self):
        # points on the unit sphere in the first octant: their hull has more
        # than 2,000 facets, every one a row of the slice system
        rng = np.random.default_rng(7)
        sphere = np.abs(rng.normal(size=(1100, 3)))
        sphere /= np.linalg.norm(sphere, axis=1)[:, None]
        points = np.vstack([sphere, np.zeros((1, 3))])
        assert ConvexHull(points).equations.shape[0] > 2000
        region = RateRegion(("R0", "R1", "Re"), (), hull_points=points)
        for re_value in (0.0, 0.3):
            assert _assert_slice_matches_lp(region, ("R0", "R1"), {"Re": re_value})

    @pytest.mark.parametrize("name", ["inner1", "two-set"])
    def test_mixes_of_interior_points(self, workload_regions, name):
        # a slice through a point inside the hull, at that point's values of
        # every coordinate but the plane's, holds the point
        region = workload_regions[name]
        pts = region.hull_points
        plane = region.coords[:2]
        rng = np.random.default_rng(51)
        for x in rng.dirichlet(np.ones(pts.shape[0]), size=4) @ pts:
            fixed = {c: float(v) for c, v in zip(region.coords[2:], x[2:])}
            assert _assert_slice_matches_lp(region, plane, fixed, resolution=5)
            for s in frontier_sweep(region, plane, fixed=fixed, resolution=5):
                assert s.value >= float(np.dot(x[:2], s.direction)) - 1e-12

    def test_seeded_channels(self):
        # seeded random channels, at slices through zero and off it
        for seed in (11, 12):
            channel = fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(seed))
            inner = assemble_region(channel, "inner-one-set",
                                    SearchConfig(strategy="random", sample_count=6, seed=seed))
            top = float(inner.hull_points[:, 2].max())
            for re_value in (0.0, 0.4 * top):
                assert _assert_slice_matches_lp(inner, ("R0", "R1"), {"Re": re_value})
            two = assemble_region(channel, "two-set", SearchConfig(
                strategy="random", sample_count=2, cardinalities=(2, 2, 2), seed=seed))
            top = two.hull_points.max(axis=0)
            fixed = {"R0": 0.2 * float(top[0]), "R1e": 0.1 * float(top[3]),
                     "R2e": 0.1 * float(top[4])}
            assert _assert_slice_matches_lp(two, ("R1", "R2"), fixed)

    @pytest.mark.parametrize("name", ["inner1", "two-set"])
    def test_pivot_rules_agree(self, workload_regions, name, monkeypatch):
        # Bland's rule from the first degenerate pivot, or never: the same
        # picks, whatever path the simplex takes to them
        region = workload_regions[name]
        plane = region.coords[:2]
        top = region.hull_points.max(axis=0)
        sweeps = []
        for after in (0, 10 ** 9):
            monkeypatch.setattr(regions, "BLAND_AFTER", after)
            sweeps.append([frontier_sweep(region, plane, resolution=9,
                                          fixed={c: scale * float(top[i])
                                                 for i, c in enumerate(region.coords)
                                                 if c not in plane})
                           for scale in (0.0, 0.05)])
        for bland, dantzig in zip(*sweeps):
            for a, b in zip(bland, dantzig):
                np.testing.assert_allclose(a.point, b.point, rtol=0.0, atol=1e-12)

    def test_degenerate_grid_cloud(self):
        # a 5 x 5 x 5 grid: every slice vertex has many bases, and every
        # direction's optimal face holds many grid points
        axis = np.linspace(0.0, 1.0, 5)
        points = np.array(list(itertools.product(axis, repeat=3)))
        region = RateRegion(("R0", "R1", "Re"), (), hull_points=points)
        for re_value in (0.0, 0.5, 1.0):
            assert _assert_slice_matches_lp(region, ("R0", "R1"), {"Re": re_value})
            samples = frontier_sweep(region, ("R0", "R1"), fixed={"Re": re_value},
                                     resolution=3)
            assert all(s.point.tolist() == [1.0, 1.0] for s in samples)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_flat_clouds(self, rank):
        region = _flat_cloud(rank)[0]
        for re_value in (0.25, 0.3):
            nonempty = _assert_slice_matches_lp(region, ("R0", "R1"),
                                                {"Re": re_value})
            assert nonempty == (re_value == 0.25)
        pts = frontier(region, ("R0", "R1"), fixed={"Re": 0.25})
        expected = [[0.5 if rank else 0.0, 0.5 if rank == 2 else 0.0]]
        assert np.allclose(pts, expected, rtol=0.0, atol=1e-12)

    def test_flat_five_dimensional_cloud(self):
        # R0, R1e and R2e are the same at every point: each of their rows
        # repeats the row of ones, and the slice drops all three
        square = np.array(list(itertools.product((0.0, 0.5), repeat=2)))
        points = np.zeros((4, 5))
        points[:, 1:3], points[:, [0, 3, 4]] = square, (0.3, 0.1, 0.2)
        region = RateRegion(NAMES, (), hull_points=points)
        fixed = {"R0": 0.3, "R1e": 0.1, "R2e": 0.2}
        assert _assert_slice_matches_lp(region, ("R1", "R2"), fixed)
        assert frontier(region, ("R1", "R2"), fixed=fixed).tolist() == [[0.5, 0.5]]
        with pytest.raises(EmptySlice):
            frontier(region, ("R1", "R2"), fixed={**fixed, "R1e": 0.15})


class TestMembershipOracle:
    """region_contains runs the package's phase one over the cloud; the
    weight-space LP is the reference. Points closer than MARGIN to the
    hull's boundary are skipped."""

    MARGIN = 1e-6

    def _assert_agrees(self, region, points, margins):
        verdicts = {True: 0, False: 0}
        for x, margin in zip(points, margins):
            if abs(margin) < self.MARGIN:
                continue
            inside = lp_hull_distance(region.hull_points, x) <= 1e-9
            assert inside == (margin > 0)
            assert region_contains(region, x) == inside
            verdicts[inside] += 1
        # the draws exercise both verdicts
        assert min(verdicts.values()) > 0, verdicts

    @pytest.mark.parametrize("name", ["inner1", "two-set"])
    def test_workload_hulls(self, workload_regions, name):
        region = workload_regions[name]
        hull = ConvexHull(region.hull_points)
        # the cloud's extreme points, and its first point, in cloud order
        pts = region.hull_points[np.union1d(hull.simplices, 0)]
        rng = np.random.default_rng(31)
        centre = pts.mean(axis=0)
        # convex combinations of extreme points, pushed out or pulled in
        mixes = rng.dirichlet(np.full(pts.shape[0], 0.3), size=150) @ pts
        points = centre + rng.uniform(0.6, 1.6, size=(150, 1)) * (mixes - centre)
        eq = hull.equations
        # depth inside the hull (positive) or a lower bound on the distance
        # outside it (negative), from the facet planes
        margins = -np.max(points @ eq[:, :-1].T + eq[:, -1], axis=1)
        self._assert_agrees(region, points, margins)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_flat_clouds(self, rank):
        region, lo, hi = _flat_cloud(rank)
        rng = np.random.default_rng(41 + rank)
        points = rng.uniform(lo - 0.25, hi + 0.25, size=(60, 3))
        flat = hi == lo
        # half the points lie in the cloud's affine hull, the rest off it
        points[:30, flat] = lo[flat]
        points[30:, flat] += np.where(rng.uniform(size=(30, int(flat.sum()))) < 0.5,
                                      -1.0, 1.0) * rng.uniform(1e-6, 0.1, size=(30, 1))
        outside = np.max(np.maximum(lo - points, points - hi), axis=1)
        depth = np.min(np.minimum(points - lo, hi - points)[:, ~flat], axis=1,
                       initial=np.inf)
        margins = np.where(outside > 0, -outside, depth)
        if rank == 0:
            points = np.vstack([points, lo])
            margins = np.append(margins, np.inf)
        self._assert_agrees(region, points, margins)


def _sample_tuples(samples):
    return [(s.theta, s.direction, s.point.tolist(), s.value, s.mix)
            for s in samples]


_FIXES = [{"R0": 0.0, "R1e": 0.0, "R2e": 0.0},
          {"R0": 0.002, "R1e": 0.0, "R2e": 0.0},
          {"R0": 0.0, "R1e": 0.001, "R2e": 1e-5}]


def _probe_points(pts):
    """Points around a hull's cloud, some inside it and some outside."""
    rng = np.random.default_rng(7)
    centre = pts.mean(axis=0)
    return centre + rng.uniform(0.5, 3.0, size=(50, 1)) * (
        rng.dirichlet(np.full(pts.shape[0], 0.3), size=50) @ pts - centre)


class TestCloud:
    def test_a_copy_answers_the_same(self):
        region = _two_set_region()
        points = _probe_points(region.hull_points)
        answers = []
        for r in (region, dataclasses.replace(region)):
            answers.append((
                [_sample_tuples(frontier_sweep(r, ("R1", "R2"), fixed=f)) for f in _FIXES],
                [frontier(r, ("R1", "R2"), fixed=f).tobytes() for f in _FIXES],
                [region_contains(r, x) for x in points]))
        assert answers[0] == answers[1]
        assert 0 < sum(answers[0][2]) < len(points)

    def test_flat_clouds_keep_every_vertex(self):
        # two squares in the plane Re = 0.25, one inside the other: the
        # cloud keeps both squares' corners, the shared one once, sorted
        coords = ("R0", "R1", "Re")
        squares = [polytope(coords, [((1.0, 0.0, 0.0), side), ((0.0, 1.0, 0.0), side),
                                     ((0.0, 0.0, 1.0), 0.25), ((0.0, 0.0, -1.0), -0.25)])
                   for side in (0.5, 0.25)]
        region = convexify(squares)
        assert region.hull_points[:, :2].tolist() == [
            [0.0, 0.0], [0.0, 0.25], [0.0, 0.5], [0.25, 0.0], [0.25, 0.25],
            [0.5, 0.0], [0.5, 0.5]]
        assert region.hull_sources.tolist() == [0, 1, 0, 1, 1, 0, 0]
        assert frontier(region, ("R0", "R1"), fixed={"Re": 0.25}).tolist() == [[0.5, 0.5]]

    def test_empty_region_has_no_slice(self):
        empty = convexify([], coords=("R0", "R1"))
        with pytest.raises(EmptySlice):
            frontier_sweep(empty, ("R0", "R1"))
        leaky = assemble_region(fx.noiseless_wiretapper(), "secrecy-one-set",
                                SearchConfig(sample_count=60, seed=5))
        assert leaky.hull_points.shape[0] == 0
        with pytest.raises(EmptySlice):
            frontier_sweep(leaky, ("R0", "R1"))
        assert not region_contains(leaky, (0.0, 0.0))


@pytest.mark.parametrize("channel", sorted(fx.FIXTURE_BUILDERS))
def test_sweep_picks_match_the_vertex_rule(channel):
    """At theta = 0, pi/4 and pi/2 the sweep picks, on the fixture's region
    under each bound at the default config, the point that vertex_argmax
    picks among the slice's points, at the CLI's default slice: every
    coordinate off the plane at zero. two-set runs the golden digests'
    four-scheme config instead, since its default search takes about
    0.8 s a fixture."""
    build = fx.FIXTURE_BUILDERS[channel]
    small = SearchConfig(strategy="random", sample_count=4, cardinalities=(2, 2, 2), seed=7)
    picks = 0
    for bound in optimizer.BOUNDS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotDegradedWarning)
            region = assemble_region(build(), bound,
                                     small if bound == "two-set" else SearchConfig())
        if region.hull_points.shape[0] == 0:
            continue
        plane = ("R1", "R2") if "R2" in region.coords else ("R0", "R1")
        fixed = {c: 0.0 for c in region.coords if c not in plane}
        points = zero_slice_points(region.hull_points,
                                   [region.coords.index(c) for c in plane],
                                   [region.coords.index(c) for c in fixed])
        for s in frontier_sweep(region, plane, fixed=fixed, resolution=3):
            value, i = vertex_argmax(points, np.asarray(s.direction))
            assert s.value == pytest.approx(value, abs=1e-12)
            np.testing.assert_allclose(s.point, points[i], rtol=0.0, atol=1e-12)
            picks += 1
    assert picks >= 9


def test_sweep_takes_one_tie_stage_per_direction(workload_regions, monkeypatch):
    """Each direction's sample costs one _simplex for its direction and at
    most one more for its face's Pareto corner, after the slice's one
    phase-one solve: at most 1 + 2 * 17 calls on a 17-direction sweep."""
    calls = []
    simplex = regions._simplex

    def counted(*args, **kwargs):
        calls.append(1)
        return simplex(*args, **kwargs)

    monkeypatch.setattr(regions, "_simplex", counted)
    frontier_sweep(workload_regions["two-set"], ("R1", "R2"),
                   fixed={"R0": 0.0, "R1e": 0.0, "R2e": 0.0}, resolution=17)
    assert len(calls) <= 1 + 2 * 17


class TestExactness:
    def test_axis_point_is_exactly_zero(self, workload_regions):
        pts = frontier(workload_regions["inner1"], ("R0", "R1"),
                       fixed={"Re": 0.0}, resolution=17)
        on_axis = pts[pts[:, 1] < 1e-9]
        assert on_axis.shape[0] == 1
        assert on_axis[0, 1] == 0.0


def _simplex_and_cube():
    """Two 3-D pieces whose pooled vertices include non-extreme points."""
    coords = ("R0", "R1", "Re")
    return [polytope(coords, [((1.0, 1.0, 1.0), 1.0)]),
            polytope(coords, [((1.0, 0.0, 0.0), 0.5), ((0.0, 1.0, 0.0), 0.5),
                              ((0.0, 0.0, 1.0), 0.5)])]


def _qhull_rejects():
    """A 5-D cloud that Qhull rejects (QH6271, a dupridge): 34 extreme points
    of a W2 two-set region at 4,000 schemes."""
    doc = json.loads((DATA / "qhull_rejects.json").read_text())
    return RateRegion(tuple(doc["coords"]), (), hull_points=np.array(doc["points"]))


class TestNoSilentFallbacks:
    def test_membership_lp_failure_raises(self, monkeypatch):
        # phase one needs a pivot here, and is allowed one pricing round
        region = convexify(_simplex_and_cube())
        monkeypatch.setattr(regions, "PIVOT_CEILING", 1)
        with pytest.raises(SolverStall):
            region_contains(region, (0.1, 0.1, 0.1))

    def test_slice_lp_failure_raises(self, monkeypatch):
        region = convexify(_simplex_and_cube())
        monkeypatch.setattr(regions, "PIVOT_CEILING", 1)
        with pytest.raises(SolverStall):
            frontier(region, ("R0", "R1"), fixed={"Re": 0.2})

    def test_a_cloud_qhull_rejects_has_exact_slices(self):
        region = _qhull_rejects()
        with pytest.raises(QhullError, match="QH6271"):
            ConvexHull(region.hull_points)
        for fixed in ({"R0": 0.0, "R1e": 0.0, "R2e": 0.0},
                      {"R0": 0.002, "R1e": 0.001, "R2e": 0.001}):
            assert _assert_slice_matches_lp(region, ("R1", "R2"), fixed, resolution=17)


def unique_groups(rows, decimals=regions.DEDUP_DECIMALS):
    """Rows grouped by np.unique after rounding: each group's first row in
    row order, and every row's group."""
    keys = np.round(rows, decimals)
    keys[keys == 0.0] = 0.0
    _, first, group = np.unique(keys, axis=0, return_index=True,
                                return_inverse=True)
    order = np.argsort(first)
    position = np.empty_like(order)
    position[order] = np.arange(order.shape[0])
    return first[order], position[group.ravel()]


def brute_force_vertices(piece):
    """Every d-subset of the rows and nonnegativity facets, solved on its
    own; the feasible solutions deduplicated as piece_vertices does."""
    d = piece.dim
    n_rows = piece.A.shape[0]
    A_full = np.vstack([piece.A, -np.eye(d)]) if n_rows else -np.eye(d)
    b_full = np.concatenate([piece.b, np.zeros(d)])
    m = A_full.shape[0]
    idx = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), d)),
                      dtype=np.intp, count=math.comb(m, d) * d).reshape(-1, d)
    mats = A_full[idx]
    ok = np.abs(np.linalg.det(mats)) > 1e-10
    if not np.any(ok):
        return np.empty((0, d))
    idx = idx[ok]
    sols = np.linalg.solve(mats[ok], b_full[idx][..., None])[..., 0]
    rows, cols = np.nonzero(idx >= n_rows)
    sols[rows, idx[rows, cols] - n_rows] = 0.0
    sols = sols[np.all(A_full @ sols.T <= b_full[:, None] + 1e-9, axis=0)]
    if sols.shape[0] == 0:
        return np.empty((0, d))
    first, group = unique_groups(sols)
    zeros = np.zeros((first.shape[0], d), dtype=bool)
    np.logical_or.at(zeros, group, sols == 0.0)
    verts = sols[first]
    verts[zeros] = 0.0
    return verts


def drop_repeated_rows(A, b):
    """The rows to keep, one per coefficient vector: the smallest bound, the
    first on a tie, in the original row order; None when no row repeats."""
    best = {}                                 # row bytes -> kept row
    for i, row in enumerate(A):
        key = row.tobytes()
        if b[i] < b[best.setdefault(key, i)]:
            best[key] = i
    if len(best) == A.shape[0]:
        return None
    return tuple(sorted(best.values()))


def own_enumeration(piece):
    """The piece's vertices, as piece_vertices defines them, found from the
    piece alone: its repeated rows dropped (drop_repeated_rows), then every
    nonsingular d-subset of the rows left and the nonnegativity facets, in
    itertools order and each listing its rows in lexicographic order of
    their coefficients, solved by its inverse; the feasible solutions are
    kept one per 9-decimal group, the first, with a coordinate that any
    solution of the group has at exactly 0.0 set to 0.0."""
    d = piece.dim
    A, b = piece.A, piece.b
    keep = drop_repeated_rows(A, b)
    if keep is not None:
        A, b = A[list(keep)], b[list(keep)]
    A_full = np.vstack([A, -np.eye(d)])
    b_full = np.concatenate([b, np.zeros(d)])
    m = A_full.shape[0]
    idx = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), d)),
                      dtype=np.intp, count=math.comb(m, d) * d).reshape(-1, d)
    idx = idx[np.abs(np.linalg.det(A_full[idx])) > 1e-10]
    rank = np.empty(m, dtype=np.intp)
    rank[np.lexsort(A_full.T[::-1])] = np.arange(m)
    idx = np.take_along_axis(idx, np.argsort(rank[idx], axis=1), axis=1)
    sols = np.einsum("nij,nj->ni", np.linalg.inv(A_full[idx]), b_full[idx])
    fixed = idx >= m - d
    sols[np.nonzero(fixed)[0], idx[fixed] - (m - d)] = 0.0
    sols = sols[np.all(A_full @ sols.T <= b_full[:, None] + 1e-9, axis=0)]
    if sols.shape[0] == 0:
        return np.empty((0, d))
    first, group = unique_groups(sols)
    zeros = np.zeros((first.shape[0], d), dtype=bool)
    np.logical_or.at(zeros, group, sols == 0.0)
    verts = sols[first]
    verts[zeros] = 0.0
    return verts


def _assert_oracle_vertices(piece, got=None):
    """got (piece_vertices by default) against brute_force_vertices, and,
    for a piece outside any table, byte for byte against own_enumeration;
    table pieces meet it in test_table_pieces_equal_their_own_enumeration."""
    got = piece_vertices(piece) if got is None else got
    want = brute_force_vertices(piece)
    assert got.shape == want.shape
    # same vertices in the same order, and the same exact zeros
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    assert np.array_equal(got == 0.0, want == 0.0)
    if not isinstance(piece, regions._TablePiece):
        assert got.tobytes() == own_enumeration(piece).tobytes()


def _recording(monkeypatch):
    """Record every (piece, vertices) that piece_vertices returns."""
    seen = []
    real = regions.piece_vertices

    def record(piece, *args, **kwargs):
        verts = real(piece, *args, **kwargs)
        seen.append((piece, verts))
        return verts

    monkeypatch.setattr(regions, "piece_vertices", record)
    return seen


def _relabelled_w2(seed):
    """The two-set benchmark channel with its output letters relabelled by
    seed, as the region-two-set workload draws it."""
    sizes = (2, 2, 3, 2, 2)
    base = fx.random_channel(sizes, np.random.default_rng(1))
    state = np.random.SeedSequence([seed, 3]).generate_state(1)[0]
    rng = np.random.default_rng(int(state))
    y, y1, y2 = (rng.permutation(n) for n in sizes[2:])
    table = base.prob[:, :, y][:, :, :, y1][:, :, :, :, y2]
    return validate_channel(table, sizes)


def _with_duplicates(rng, piece, equal_bounds):
    """The piece with some rows repeated, at the same or a looser bound,
    and the rows shuffled."""
    rows = list(zip(piece.A, piece.b))
    for i in rng.integers(len(rows), size=3):
        a, v = rows[i]
        rows.append((a.copy(), v if equal_bounds else v + rng.uniform(0.01, 1.0)))
    # a repeated row may also come with the tighter bound
    a, v = rows[0]
    rows.append((a.copy(), v if equal_bounds else v - rng.uniform(0.01, 0.2)))
    order = rng.permutation(len(rows))
    return polytope(piece.coords, [rows[i] for i in order])


class TestVertexOracle:
    def test_workload_pieces(self, monkeypatch):
        # the table pieces come with their vertices; piece_vertices sees
        # the slices
        seen = _recording(monkeypatch)
        config = SearchConfig(strategy="random", sample_count=3,
                              cardinalities=(2, 2, 2))
        for seed in (1, 2, 3):
            region = assemble_region(_relabelled_w2(seed), "two-set", config)
            seen += [(p, p.vertices) for p in region.pieces]
            frontier(region, ("R1", "R2"),
                     fixed={"R0": 0.0, "R1e": 0.0, "R2e": 0.0}, resolution=17)
        one_set = SearchConfig(strategy="random", sample_count=8)
        for bound in ("inner-one-set", "outer-one-set"):
            region = assemble_region(fx.binary_degraded(), bound, one_set)
            seen += [(p, p.vertices) for p in region.pieces]
            frontier(region, ("R0", "R1"), fixed={"Re": 0.05}, resolution=17)
        dims = {piece.dim for piece, _ in seen}
        # 5-D two-set pieces and 3-D one-set pieces; a hull slice enumerates
        # no vertices
        assert dims == {3, 5}
        assert sum(piece.dim == 5 for piece, _ in seen) >= 360
        for piece, verts in seen:
            _assert_oracle_vertices(piece, verts)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("equal_bounds", [True, False])
    def test_repeated_rows(self, dim, equal_bounds):
        rng = np.random.default_rng(3000 + 10 * dim + equal_bounds)
        for kind in ("bounded", "empty", "unbounded"):
            for _ in range(6):
                piece = _with_duplicates(rng, _random_piece(rng, dim, kind),
                                         equal_bounds)
                _assert_oracle_vertices(piece)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_empty_and_unbounded_pieces(self, dim):
        rng = np.random.default_rng(4000 + dim)
        for kind in ("empty", "unbounded"):
            for _ in range(6):
                piece = _random_piece(rng, dim, kind)
                _assert_oracle_vertices(piece)
                # the recession cone cut by sum r <= 1, as RatePolytope.rays
                cone = polytope(piece.coords,
                                [(a, 0.0) for a in piece.A] + [(np.ones(dim), 1.0)])
                _assert_oracle_vertices(cone, piece.rays)
        _assert_oracle_vertices(slice_piece(_random_piece(rng, dim, "bounded"),
                                            {NAMES[0]: -0.5}))

    @pytest.mark.parametrize("dim, rows", [(8, 4), (20, 2)])
    def test_high_dimensional_polytopes(self, dim, rows):
        # the simplex sum x <= 1 cut by x0 <= 0.5, then random rows: at 20-D
        # with two rows, 20 vertices of the simplex and 20 on its cut edges
        rng = np.random.default_rng(5000 + dim)
        cut = np.eye(dim)[0]
        pairs = [(np.ones(dim), 1.0), (cut, 0.5)]
        pairs += [(rng.normal(size=dim), rng.uniform(0.1, 1.0)) for _ in range(rows - 2)]
        piece = polytope(tuple(f"R{i}" for i in range(dim)), pairs)
        _assert_oracle_vertices(piece)
        if rows == 2:
            assert piece.vertices.shape == (2 * dim, dim)

    def test_round_groups_match_unique(self):
        rng = np.random.default_rng(21)
        for n, d in ((1, 2), (7, 3), (200, 5)):
            # few distinct values, so rows repeat; offsets below 5e-10 and
            # signed zeros round into the same group
            rows = rng.integers(0, 3, size=(n, d)) / 3.0
            rows += rng.choice([0.0, 4e-10, -4e-10, -0.0], size=(n, d))
            assert np.array_equal(np.sort(regions._key_groups(rows)[0]),
                                  unique_groups(rows)[0])

    def test_overflow_checks_still_raise(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("subsystems built past the budget")

        monkeypatch.setattr(regions, "_combinations", no_work)
        rows = np.random.default_rng(7).normal(size=(230, 3))
        piece = polytope(("R0", "R1", "Re"), [(tuple(r), 1.0) for r in rows])
        assert math.comb(233, 3) > regions.COMBO_CEILING
        with pytest.raises(VertexEnumerationOverflow):
            piece_vertices(piece)
        monkeypatch.undo()
        monkeypatch.setattr(regions, "VERTEX_CEILING", 3)
        square = polytope(NAMES[:2], [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])
        with pytest.raises(VertexEnumerationOverflow):
            piece_vertices(square)

    def test_table_index_checks_its_budget_before_listing_subsets(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("subsystems built past the budget")

        monkeypatch.setattr(regions, "_combinations", no_work)
        # one piece of 231 rows: (k, 0, 1) for k = 1..230, and (0, 1, 0)
        rows = [" + ".join(["R0"] * k + ["Re"]) + " <= t" for k in range(1, 231)]
        table = BoundTable(("R0", "R1", "Re"), "one_set", {}, [rows + ["R1 <= t"]])
        assert math.comb(231 + 3, 3) > regions.COMBO_CEILING
        with pytest.raises(VertexEnumerationOverflow):
            bound_pieces(table, {"t": 1.0})


def _fresh_two_set():
    """two_set.TWO_SET built anew, its subsystems not yet found."""
    return BoundTable(two_set.COORDS_FULL, "two_set", two_set.TERMS,
                      [two_set._RATES + fam for fam in two_set._EQUIVOCATION])


def _two_set_values(seed, count):
    """The TWO_SET term values of count random schemes on a relabelled W2."""
    channel = _relabelled_w2(seed)
    config = SearchConfig(strategy="random", sample_count=count,
                          cardinalities=(2, 2, 2), seed=seed)
    return [two_set.TWO_SET.scheme_terms(s, channel)
            for s in search_schemes("two_set", channel, config)]


def _vertex_bytes(pieces):
    return [p.vertices.tobytes() for p in pieces]


def _solves(monkeypatch):
    """Record the index and bounds of every _SubsystemIndex._solve call."""
    calls, solve = [], regions._SubsystemIndex._solve

    def spy(index, bounds):
        calls.append((index, bounds))
        return solve(index, bounds)

    monkeypatch.setattr(regions._SubsystemIndex, "_solve", spy)
    return calls


class TestTableSubsystems:
    def test_fresh_table_matches_cold_and_warm(self):
        values = _two_set_values(1, 3)
        table = _fresh_two_set()
        assert "_subsystem_index" not in vars(table)        # built on first use
        cold = [_vertex_bytes(bound_pieces(table, v)) for v in values]
        assert "_subsystem_index" in vars(table)
        warm = [_vertex_bytes(bound_pieces(table, v)) for v in values]
        shared = [_vertex_bytes(bound_pieces(two_set.TWO_SET, v)) for v in values]
        assert cold == warm == shared
        # the same pieces outside any table find their own subsystems
        assert cold[0] == _vertex_bytes(RatePolytope(p.coords, p.A, p.b)
                                        for p in bound_pieces(table, values[0]))

    def test_one_solve_serves_every_piece_of_a_scheme(self, monkeypatch):
        table = _fresh_two_set()
        calls = _solves(monkeypatch)
        values = _two_set_values(2, 2)
        pieces = bound_pieces(table, values[0])
        assert len(pieces) == 40 and len(calls) == 1
        _vertex_bytes(pieces)
        assert len(calls) == 1
        _vertex_bytes(bound_pieces(table, values[1]))
        assert len(calls) == 2
        assert all(index is table._subsystem_index for index, _ in calls)

    def test_a_leaking_scheme_takes_the_same_single_solve(self, monkeypatch):
        # a < d leaves R1 <= a - d below zero: the one piece comes back with
        # no vertex, from one solve, as a scheme with a >= d does
        calls = _solves(monkeypatch)
        terms = {"a": 0.3, "b": 0.5, "d": 0.1}
        (kept,) = bound_pieces(one_set.SECRECY, terms)
        assert not piece_is_empty(kept) and len(calls) == 1
        (leaking,) = bound_pieces(one_set.SECRECY, {**terms, "d": 0.4})
        assert leaking.vertices.shape[0] == 0 and piece_is_empty(leaking)
        assert len(calls) == 2

    def test_index_lists_distinct_subsystems_in_lexicographic_order(self):
        index = two_set.TWO_SET._subsystem_index
        rows = index.rows
        # each subsystem's rows ascend, and the subsystems ascend strictly
        assert np.all(np.diff(rows, axis=1) > 0)
        assert np.array_equal(np.lexsort(rows.T[::-1]), np.arange(rows.shape[0]))
        assert np.all(np.any(rows[1:] != rows[:-1], axis=1))
        assert rows.shape == (7912, 5)

    def test_table_pieces_share_the_table_matrix(self):
        table = two_set.TWO_SET
        for (A, _), p in zip(table.pieces, bound_pieces(table, _two_set_values(7, 1)[0])):
            assert p.A is A
            assert not p.A.flags.writeable and not p.b.flags.writeable
        # a polytope built by hand is still checked
        with pytest.raises(ValueError, match="constraint width"):
            RatePolytope(table.coords, p.A[:, :-1], p.b)
        with pytest.raises(ValueError, match="constraint width"):
            RatePolytope(table.coords, np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError, match="row counts"):
            RatePolytope(table.coords, p.A, p.b[:-1])

    def test_pieces_carry_read_only_slices_of_one_pass(self, monkeypatch):
        table = _fresh_two_set()
        calls = _solves(monkeypatch)
        pieces = bound_pieces(table, _two_set_values(5, 1)[0])
        # one solve built every piece's vertices, back to back in one array
        assert len(pieces) == 40 and len(calls) == 1
        whole = pieces[0].vertices.base
        assert whole is not None and not whole.flags.writeable
        assert all(p.vertices.base is whole and not p.vertices.flags.writeable
                   for p in pieces)
        assert np.concatenate([p.vertices for p in pieces]).tobytes() == whole.tobytes()
        assert len(calls) == 1
        # each equals its own one-piece enumeration
        for p in pieces:
            assert piece_vertices(p).tobytes() == p.vertices.tobytes()

    def test_slack_products_split_without_changing_a_bit(self, monkeypatch):
        # the default keeps each product on one OpenBLAS thread
        assert regions._GEMM_CELLS <= 4 * 65536
        values = _two_set_values(6, 2)
        expected = [_vertex_bytes(bound_pieces(two_set.TWO_SET, v)) for v in values]
        table = _fresh_two_set()
        cells = table._subsystem_index.A.size
        # 7 solutions per product, then one product for all of them
        for limit in (7 * cells + 3, 10 ** 9):
            monkeypatch.setattr(regions, "_GEMM_CELLS", limit)
            assert [_vertex_bytes(bound_pieces(table, v)) for v in values] == expected

    def test_threads_on_a_fresh_table_match_a_sequential_run(self):
        values = _two_set_values(3, 4)
        expected = [_vertex_bytes(bound_pieces(two_set.TWO_SET, v)) for v in values]
        table = _fresh_two_set()
        # one scheme's pieces, split among the threads
        shared = bound_pieces(table, values[0])
        barrier = threading.Barrier(8)
        failures = []

        def worker(offset):
            try:
                barrier.wait()
                for k in range(offset, len(shared), 8):
                    assert piece_vertices(shared[k]).tobytes() == expected[0][k]
                for i in range(len(values)):
                    k = (i + offset) % len(values)
                    assert _vertex_bytes(bound_pieces(table, values[k])) == expected[k]
            except Exception as exc:         # reported to the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[0]

    def test_no_table_piece_repeats_a_row(self, monkeypatch):
        # each table merges a piece's repeated rows when it is built
        for name, table in TABLES.items():
            for A, _ in table.pieces:
                assert len({row.tobytes() for row in A}) == A.shape[0], name
        table = _fresh_two_set()
        monkeypatch.setitem(optimizer._BOUND_TABLES, "two-set", table)
        channel = fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(1))
        region = assemble_region(channel, "two-set")
        assert len(region.pieces) == 7778
        index = table._subsystem_index
        assert sum(A.shape[0] for A, _ in table.pieces) == 432
        assert index.subsystems.shape == (58568,) and index.rows.shape == (7912, 5)

    def test_pieces_outside_a_table_keep_nothing(self, monkeypatch):
        table = _fresh_two_set()
        piece = bound_pieces(table, _two_set_values(4, 1)[0])[0]
        index = table._subsystem_index
        arrays = {name: array.tobytes() for name, array in vars(index).items()}
        calls = _solves(monkeypatch)
        fixed = {name: 0.0 for name in piece.coords[2:]}
        copy = RatePolytope(piece.coords, piece.A, piece.b)
        # a copy, the cut recession cone and a slice; a hull slice solves no
        # index
        assert len(copy.vertices) and len(piece.rays)
        assert len(slice_piece(piece, fixed).vertices)
        assert len(frontier(convexify([copy]), piece.coords[:2], fixed=fixed))
        # each solved an index of its own, and the table's is unchanged
        assert len(calls) == 3
        assert all(own is not index for own, _ in calls)
        assert table._subsystem_index is index
        assert {name: array.tobytes() for name, array in vars(index).items()} == arrays
        assert not any(array.flags.writeable for array in vars(index).values())
        assert copy.vertices.tobytes() == piece.vertices.tobytes()


TABLES = {f"{mod.__name__.rpartition('.')[2]}.{name}": table
          for mod in (one_set, two_set)
          for name, table in sorted(vars(mod).items()) if isinstance(table, BoundTable)}


def _table_values(table, rng, channels, per_channel, draws):
    """Term values of schemes of the table's kind, per_channel of them on
    each channel, with any name that is not a term (the rates that
    two_set.EQUIVOCATION reads) drawn uniformly; then draws sets drawn from
    a few values, so that repeated rows tie and bounds go negative."""
    names = sorted({name for fam in table.families for _, _, terms in fam
                    for _, name in terms})
    config = SearchConfig(strategy="random", sample_count=per_channel,
                          cardinalities=(2, 2, 2), seed=int(rng.integers(1 << 30)))
    for channel in channels:
        for scheme in search_schemes(table.kind, channel, config):
            values = table.scheme_terms(scheme, channel)
            yield {name: values.get(name, float(rng.uniform(0.0, 0.5))) for name in names}
    for _ in range(draws):
        yield {name: float(rng.choice([-0.25, 0.0, 0.25, 0.5, 1.0])) for name in names}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_pieces_equal_their_own_enumeration(name):
    """Every piece of all nine tables, with the vertices its scheme's one
    pass gave it, equals the bytes of own_enumeration of the same piece."""
    table = TABLES[name]
    rng = np.random.default_rng(sorted(TABLES).index(name))
    randoms = [fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(seed))
               for seed in (5, 6)]
    if name == "two_set.TWO_SET":
        # 0.4 s a scheme on its own: one fixture, one random channel
        channels, per_channel, draws = [fx.binary_degraded(), randoms[0]], 1, 2
    else:
        channels = [build() for _, build in sorted(fx.FIXTURE_BUILDERS.items())] + randoms
        per_channel, draws = 2, 12
    checked = set()                           # pieces enumerated and compared
    for values in _table_values(table, rng, channels, per_channel, draws):
        for k, p in enumerate(bound_pieces(table, values)):
            got, want = p.vertices, own_enumeration(p)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            checked.add(k)
    # the pieces whose merged repeated rows take the smallest copy's bound
    # (a _Min rule) are among those compared, in the three tables that have any
    merged = {k for k, (_, index) in enumerate(table.pieces)
              if any(isinstance(table.rules[r], _Min) for r in index)}
    assert bool(merged) == (name in ("one_set.INNER", "two_set.EQUIVOCATION",
                                     "two_set.TWO_SET"))
    assert merged <= checked


def _copies(table, values):
    """Per piece of the per-scheme reference expansion (pieces_per_scheme,
    through expand_per_scheme), the bounds of each coefficient row's
    copies, keyed by the row, in order of its first copy."""
    out = []
    for want in pieces_per_scheme(table, values):
        copies = {}
        for row, bound in zip(want.A, want.b.tolist()):
            copies.setdefault(row.tobytes(), []).append(bound)
        out.append(copies)
    return out


def _check_merged(pieces, references, decides) -> int:
    """Each piece keeps each row of its reference once, at its first copy,
    and its bound is, as bytes, the smallest of the copies' bounds, the
    first on a tie; each piece where decides holds for the copies of some
    row equals its own enumeration. Returns the number of such pieces."""
    count = 0
    for p, copies in zip(pieces, references, strict=True):
        assert [row.tobytes() for row in p.A] == list(copies)
        assert p.b.tobytes() == np.array([min(c) for c in copies.values()]).tobytes()
        if any(decides(c) for c in copies.values()):
            count += 1
            want = own_enumeration(p).tobytes()
            assert p.vertices.tobytes() == want and piece_vertices(p).tobytes() == want
    return count


def test_a_tie_keeps_the_first_repeated_row():
    """On identity_copy two-set terms tie exactly, so a repeated row's copies
    tie at their bounds, and degenerate vertices carry solutions a few ulps
    apart. Each merged row keeps the first of the tied bounds, and every
    piece of the golden digests' first scheme where copies tie at their
    smallest bound equals its own enumeration."""
    channel = fx.identity_copy()
    config = SearchConfig(strategy="random", sample_count=1, cardinalities=(2, 2, 2),
                          seed=7)
    (scheme,) = search_schemes("two_set", channel, config)
    terms = two_set.TWO_SET.scheme_terms(scheme, channel)
    decided = _check_merged(bound_pieces(two_set.TWO_SET, terms),
                            _copies(two_set.TWO_SET, terms),
                            lambda c: c.count(min(c)) > 1)
    assert decided >= 30


def test_a_near_tie_keeps_the_row_with_the_smaller_bound():
    """On leaky_wiretap the first scheme of this search has m2 = 2^-51 and
    m1 - e1 of the same order, so a repeated row's copies differ in their
    bounds by rounding error only: piece 2 repeats one row at bounds
    4.4e-16 and 0.0. Keeping every copy moves such vertices by about 1e-15;
    each merged row keeps the smaller bound, and every piece with a near
    tie equals its own enumeration, byte for byte."""
    channel = fx.leaky_wiretap()
    config = SearchConfig(strategy="random", sample_count=1, cardinalities=(2, 3, 2),
                          seed=1)
    (scheme,) = search_schemes("two_set", channel, config)
    terms = two_set.TWO_SET.scheme_terms(scheme, channel)
    assert terms["m2"] == 2.0 ** -51 and abs(terms["m1"] - terms["e1"]) < 1e-15
    references = _copies(two_set.TWO_SET, terms)
    assert any(set(c) == {0.0, 2.0 ** -51} for c in references[2].values())
    near = _check_merged(bound_pieces(two_set.TWO_SET, terms), references,
                         lambda c: len(set(c)) > 1 and max(c) - min(c) <= 1e-12)
    assert near >= 30
