"""Vertex-based geometry checked against scipy's LP solver as the oracle.

The package answers emptiness, support and hull-slice queries from piece
vertices and hull facets; these tests solve the same queries as linear
programs and require the same answers.
"""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from gmacsec import (
    EmptySlice,
    RateRegion,
    SolverStall,
    Unbounded,
    convexify,
    fixtures as fx,
    frontier,
    frontier_sweep,
    piece_is_empty,
    piece_support,
    polytope,
    region_contains,
    slice_piece,
)
from gmacsec import regions
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
        region = assemble_region(binary_degraded, "inner-one-set", config, jobs=1)
        frontier(region, ("R0", "R1"), fixed={"Re": 0.05}, resolution=9)
        frontier_sweep(region, ("R0", "R1"), fixed={"Re": 0.05}, resolution=9,
                       use_hull=False)


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
    return True


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

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_flat_clouds(self, rank):
        # pieces in (R0, R1, Re) whose union spans a point, a segment and a
        # square inside the plane Re = 0.25
        coords = ("R0", "R1", "Re")
        caps = [((1.0, 0.0, 0.0), 0.5 if rank else 0.0),
                ((0.0, 1.0, 0.0), 0.5 if rank == 2 else 0.0),
                ((0.0, 0.0, 1.0), 0.25), ((0.0, 0.0, -1.0), -0.25)]
        region = convexify([polytope(coords, caps)])
        for re_value in (0.25, 0.3):
            nonempty = _assert_slice_matches_lp(region, ("R0", "R1"),
                                                {"Re": re_value})
            assert nonempty == (re_value == 0.25)
        pts = frontier(region, ("R0", "R1"), fixed={"Re": 0.25})
        expected = [[0.5 if rank else 0.0, 0.5 if rank == 2 else 0.0]]
        assert np.allclose(pts, expected, rtol=0.0, atol=1e-12)


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
        region = convexify([polytope(NAMES[:2], [((1.0, 1.0), 1.0)])])

        class Stalled:
            status = 4
            message = "numerical difficulties"

        monkeypatch.setattr(regions, "linprog", lambda *a, **k: Stalled())
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

    def test_other_hull_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a Qhull failure")

        monkeypatch.setattr(regions, "ConvexHull", broken)
        with pytest.raises(ValueError):
            convexify(_simplex_and_cube())
