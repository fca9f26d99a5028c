"""Vertex-based geometry checked against its slow references.

The package answers emptiness, support, hull-slice and hull-membership
queries from piece vertices and hull facets; these tests solve the same
queries as linear programs and require the same answers. Piece vertices come from cached
subsystem inverses; they are checked against the brute-force enumeration
that solves every subsystem of every piece afresh.
"""

import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from gmacsec import (
    EmptySlice,
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
    piece_support,
    piece_vertices,
    polytope,
    region_contains,
    slice_piece,
)
from gmacsec import regions
from gmacsec.channel import validate_channel
from gmacsec.optimizer import SearchConfig, assemble_region

LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}
NAMES = ("R0", "R1", "R2", "R1e", "R2e")


def lp_support(piece, direction):
    """LP status (0 optimal, 2 infeasible, 3 unbounded) and max d.x."""
    rows = piece.A.shape[0]
    res = linprog(-np.asarray(direction), A_ub=piece.A if rows else None,
                  b_ub=piece.b if rows else None,
                  bounds=[(0, None)] * piece.dim, method="highs",
                  options=LP_OPTIONS)
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
                        assert regions.piece_contains(piece, point)
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
        assert s.value == pytest.approx(want, abs=1e-9)
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
        # slice vertices lie on the hull's boundary; a point inside it also
        # weighs hull_points[0], the start of the ray
        pts = workload_regions[name].hull_points
        G, h, simplices = regions._hull_inequalities(pts)
        rng = np.random.default_rng(51)
        for x in rng.dirichlet(np.ones(pts.shape[0]), size=20) @ pts:
            mix = regions._hull_mix(pts, G, h, simplices, x)
            weights = np.array([w for w, _ in mix])
            assert mix[0][1] == 0 and np.all(weights > 0)
            assert abs(weights.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(weights @ pts[[j for _, j in mix]], x,
                                       rtol=0.0, atol=1e-9)

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


class TestMembershipOracle:
    """region_contains reads facets; the weight-space LP is the reference.
    Points closer than MARGIN to the hull's boundary are skipped."""

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
        pts = region.hull_points
        rng = np.random.default_rng(31)
        centre = pts.mean(axis=0)
        # convex combinations of hull points, pushed out or pulled in
        mixes = rng.dirichlet(np.full(pts.shape[0], 0.3), size=150) @ pts
        points = centre + rng.uniform(0.6, 1.6, size=(150, 1)) * (mixes - centre)
        eq = ConvexHull(pts).equations
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


class TestHullFacetCache:
    def test_facets_are_built_once_per_region(self, monkeypatch):
        region = _two_set_region()
        builds = []
        real = regions._hull_inequalities

        def counting(points):
            builds.append(1)
            return real(points)

        monkeypatch.setattr(regions, "_hull_inequalities", counting)
        fixes = [{"R0": 0.0, "R1e": 0.0, "R2e": 0.0},
                 {"R0": 0.002, "R1e": 0.0, "R2e": 0.0},
                 {"R0": 0.0, "R1e": 0.001, "R2e": 1e-5}]
        sweeps = [_sample_tuples(frontier_sweep(region, ("R1", "R2"), fixed=f))
                  for f in fixes]
        pts = region.hull_points
        rng = np.random.default_rng(7)
        centre = pts.mean(axis=0)
        points = centre + rng.uniform(0.5, 3.0, size=(50, 1)) * (
            rng.dirichlet(np.full(pts.shape[0], 0.3), size=50) @ pts - centre)
        verdicts = [region_contains(region, x) for x in points]
        assert len(builds) == 1
        assert 0 < sum(verdicts) < len(verdicts)
        # a fresh region builds its own facets and answers the same
        for f, sweep in zip(fixes, sweeps):
            fresh = dataclasses.replace(region)
            assert _sample_tuples(frontier_sweep(fresh, ("R1", "R2"), fixed=f)) == sweep
        fresh = [region_contains(dataclasses.replace(region), x) for x in points]
        assert fresh == verdicts
        assert len(builds) == 1 + len(fixes) + len(points)


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


class TestNoSilentFallbacks:
    def test_membership_lp_failure_raises(self, monkeypatch):
        # membership reads the hull's facets, so a Qhull failure must raise
        region = convexify([polytope(NAMES[:2], [((1.0, 1.0), 1.0)])])
        self._qhull_failing(monkeypatch, calls_to_fail=1)
        with pytest.raises(SolverStall):
            region_contains(region, (0.2, 0.2))

    def _qhull_failing(self, monkeypatch, calls_to_fail):
        real = regions.ConvexHull
        calls = []

        def hull(points, *args, **kwargs):
            calls.append(1)
            if len(calls) <= calls_to_fail:
                raise QhullError("QH6154 Qhull precision error: made up")
            return real(points, *args, **kwargs)

        monkeypatch.setattr(regions, "ConvexHull", hull)

    def test_qhull_failure_is_not_cached(self, monkeypatch):
        region = convexify(_simplex_and_cube())
        self._qhull_failing(monkeypatch, calls_to_fail=1)
        with pytest.raises(SolverStall):
            region_contains(region, (0.1, 0.1, 0.1))
        # the failure was not kept: the next query builds the facets
        assert region_contains(region, (0.1, 0.1, 0.1))
        assert not region_contains(region, (5.0, 5.0, 5.0))

    def test_hull_fallback_is_recorded_and_slices_stay_exact(self, monkeypatch):
        pieces = _simplex_and_cube()
        pruned = convexify(pieces)
        assert "hull_fallback" not in pruned.info
        self._qhull_failing(monkeypatch, calls_to_fail=1)
        fallback = convexify(pieces)
        assert fallback.info["hull_fallback"].startswith("QH6154")
        assert fallback.hull_points.shape[0] > pruned.hull_points.shape[0]
        # the slice is computed from the unpruned cloud, and correctly
        for re_value in (0.0, 0.2):
            _assert_slice_matches_lp(fallback, ("R0", "R1"), {"Re": re_value})

    def test_hull_slice_raises_when_qhull_keeps_failing(self, monkeypatch):
        self._qhull_failing(monkeypatch, calls_to_fail=2)
        region = convexify(_simplex_and_cube())
        assert "hull_fallback" in region.info
        with pytest.raises(SolverStall):
            frontier(region, ("R0", "R1"), fixed={"Re": 0.0})

    def test_mix_that_reproduces_nothing_raises(self, monkeypatch):
        monkeypatch.setattr(regions, "MIX_TOL", -1.0)
        with pytest.raises(SolverStall):
            frontier(convexify(_simplex_and_cube()), ("R0", "R1"), fixed={"Re": 0.0})

    def test_other_hull_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a Qhull failure")

        monkeypatch.setattr(regions, "ConvexHull", broken)
        with pytest.raises(ValueError):
            convexify(_simplex_and_cube())


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


def _assert_oracle_vertices(piece, got=None):
    got = piece_vertices(piece) if got is None else got
    want = brute_force_vertices(piece)
    assert got.shape == want.shape
    # same vertices in the same order, and the same exact zeros
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    assert np.array_equal(got == 0.0, want == 0.0)


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty subsystem cache for one test; the previous one comes back."""
    monkeypatch.setattr(regions, "_cache", regions._SubsystemCache())


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
        seen = _recording(monkeypatch)
        config = SearchConfig(strategy="random", sample_count=3,
                              cardinalities=(2, 2, 2))
        for seed in (1, 2, 3):
            region = assemble_region(_relabelled_w2(seed), "two-set", config)
            frontier(region, ("R1", "R2"),
                     fixed={"R0": 0.0, "R1e": 0.0, "R2e": 0.0}, resolution=17)
        one_set = SearchConfig(strategy="random", sample_count=8)
        for bound in ("inner-one-set", "outer-one-set"):
            region = assemble_region(fx.binary_degraded(), bound, one_set)
            frontier(region, ("R0", "R1"), fixed={"Re": 0.05}, resolution=17)
        dims = {piece.dim for piece, _ in seen}
        # 5-D two-set pieces, 3-D one-set pieces, 2-D slices and hull slices
        assert dims == {2, 3, 5}
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

    def test_round_groups_match_unique(self):
        rng = np.random.default_rng(21)
        for n, d in ((1, 2), (7, 3), (200, 5)):
            # few distinct values, so rows repeat; offsets below 5e-10 and
            # signed zeros round into the same group
            rows = rng.integers(0, 3, size=(n, d)) / 3.0
            rows += rng.choice([0.0, 4e-10, -4e-10, -0.0], size=(n, d))
            got_first, got_group = regions._round_groups(rows)
            want_first, want_group = unique_groups(rows)
            assert np.array_equal(got_first, want_first)
            assert np.array_equal(got_group, want_group)

    def test_hull_slice_pieces(self, monkeypatch):
        seen = _recording(monkeypatch)
        rng = np.random.default_rng(7)
        sphere = np.abs(rng.normal(size=(300, 3)))
        sphere /= np.linalg.norm(sphere, axis=1)[:, None]
        region = RateRegion(("R0", "R1", "Re"), (),
                            hull_points=np.vstack([sphere, np.zeros((1, 3))]))
        for re_value in (0.0, 0.3, 0.6):
            frontier(region, ("R0", "R1"), fixed={"Re": re_value})
        assert len(seen) == 3 and all(p.A.shape[0] > 10 for p, _ in seen)
        for piece, verts in seen:
            _assert_oracle_vertices(piece, verts)

    def test_overflow_checks_still_raise(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("subsystems built past the budget")

        monkeypatch.setattr(regions, "_drop_repeated_rows", no_work)
        monkeypatch.setattr(regions._cache, "shape", no_work)
        rows = np.random.default_rng(7).normal(size=(230, 3))
        piece = polytope(("R0", "R1", "Re"), [(tuple(r), 1.0) for r in rows])
        assert math.comb(233, 3) > regions.COMBO_CEILING
        with pytest.raises(VertexEnumerationOverflow):
            piece_vertices(piece)
        monkeypatch.undo()
        square = polytope(NAMES[:2], [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])
        with pytest.raises(VertexEnumerationOverflow):
            piece_vertices(square, max_vertices=3)


def _cache_within_caps():
    cache = regions._cache
    held = sum(cache.entry_bytes(k, s.rows) for k, s in cache.shapes.items())
    assert held == cache.bytes <= regions.SHAPE_CACHE_BYTES
    for pool in cache.pools.values():
        assert len(pool.slot) <= pool.inv.shape[0] <= regions.POOL_SLOTS


class TestSubsystemCache:
    def _float_pieces(self, count, dim):
        rng = np.random.default_rng(5000 + dim)
        return [_random_piece(rng, dim, "bounded") for _ in range(count)]

    def test_pool_stops_at_its_cap(self, cold_cache):
        pools = set()
        for i, piece in enumerate(self._float_pieces(1000, 3)):
            verts = piece_vertices(piece)
            pools.add(id(regions._cache.pools[3]))
            _cache_within_caps()
            if i % 100 == 0:
                _assert_oracle_vertices(piece, verts)
        # the pool filled up and started afresh more than once
        assert len(pools) > 2

    def test_shapes_stop_at_their_cap(self, cold_cache, monkeypatch):
        monkeypatch.setattr(regions, "SHAPE_CACHE_BYTES", 50_000)
        pieces = self._float_pieces(1000, 2)
        for piece in pieces:
            piece_vertices(piece)
            _cache_within_caps()
        assert 0 < len(regions._cache.shapes) < 1000
        # the most recent shapes are the ones kept, and they still solve
        last = pieces[-1]
        A_full = np.vstack([last.A, -np.eye(2)])
        assert next(reversed(regions._cache.shapes)) == (2, A_full.tobytes())
        _assert_oracle_vertices(last)

    def test_large_shapes_are_solved_but_not_kept(self, cold_cache):
        rng = np.random.default_rng(13)
        caps = np.abs(rng.normal(size=(200, 2)))
        piece = polytope(NAMES[:2], list(zip(caps, rng.uniform(0.5, 2.0, 200))))
        # C(202, 2) = 20,301 subsystems, most of them nonsingular
        assert math.comb(202, 2) > regions.POOL_SLOTS
        _assert_oracle_vertices(piece)
        assert not regions._cache.shapes and not regions._cache.pools

    def test_shapes_share_pooled_inverses(self, cold_cache):
        rng = np.random.default_rng(11)
        piece = _random_piece(rng, 3, "bounded")
        piece_vertices(piece)
        pooled = len(regions._cache.pools[3].slot)
        # the same rows in another order and with other bounds: a new shape
        # whose row sets are all pooled already
        order = rng.permutation(piece.A.shape[0])
        other = RatePolytope(piece.coords, piece.A[order], piece.b[order] + 0.5)
        _assert_oracle_vertices(other)
        assert len(regions._cache.shapes) == 2
        assert len(regions._cache.pools[3].slot) == pooled

    def test_cold_cache_runs_match_bitwise(self, cold_cache, monkeypatch):
        channel = fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(1))
        config = SearchConfig(strategy="random", sample_count=3,
                              cardinalities=(2, 2, 2))
        first = assemble_region(channel, "two-set", config)
        monkeypatch.setattr(regions, "_cache", regions._SubsystemCache())
        second = assemble_region(channel, "two-set", config)
        assert np.array_equal(first.hull_points, second.hull_points)
        assert len(first.pieces) == len(second.pieces)
        for a, b in zip(first.pieces, second.pieces):
            assert np.array_equal(a.vertices, b.vertices)

    def test_concurrent_misses_and_resets(self, cold_cache, monkeypatch):
        # small caps, so threads evict shapes and restart pools under each other
        monkeypatch.setattr(regions, "SHAPE_CACHE_BYTES", 30_000)
        monkeypatch.setattr(regions, "POOL_SLOTS", 600)
        rng = np.random.default_rng(17)
        pieces = [_random_piece(rng, dim, kind) for dim in (2, 3, 4)
                  for kind in ("bounded", "empty", "unbounded") for _ in range(10)]
        expected = [brute_force_vertices(p) for p in pieces]
        failures = []

        def worker(offset):
            try:
                for i in range(len(pieces)):
                    k = (i + 7 * offset) % len(pieces)
                    got = piece_vertices(pieces[k])
                    np.testing.assert_allclose(got, expected[k], rtol=0.0, atol=1e-9)
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
        _cache_within_caps()
