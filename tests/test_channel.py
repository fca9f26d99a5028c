import json

import numpy as np
import pytest
from scipy.optimize import linprog

from gmacsec import (
    ChannelSpec,
    DimensionMismatch,
    NegativeProbability,
    RowSumViolation,
    SolverStall,
    check_physically_degraded,
    check_stochastically_degraded,
    compose_degraded_channel,
    load_channel,
    marginal_kernel,
    save_channel,
    validate_channel,
)
from gmacsec import fixtures as fx
from references import perturb_preserving_marginals


@pytest.mark.parametrize("sizes", [(2.7, 2, 3, 2, 2), (2, True, 3, 2, 2)])
def test_random_channel_sizes_are_whole_numbers(sizes):
    # neither is truncated: 2.7 to 2, True to 1
    with pytest.raises(ValueError, match="whole number"):
        fx.random_channel(sizes, np.random.default_rng(0))
    assert fx.random_channel((2.0, 1, 3, 2, 2), np.random.default_rng(0)).prob.shape == (
        2, 1, 3, 2, 2)


def _bsc(p):
    return np.array([[1 - p, p], [p, 1 - p]])


# HiGHS's default feasibility tolerances sit near 1e-7; the oracle pins them
# lower, below the 1e-12 the package's residuals are held to
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


def _highs_residual(spec):
    """The degradedness LP's optimum by HiGHS, the oracle: min t over
    row-stochastic d(y2 | y, x2), every x2 in one LP, with each
    |sum_y p(y | x1, x2) d(y2 | y, x2) - p(y2 | x1, x2)| <= t as a pair of
    inequality rows, filled one entry at a time by nested loops."""
    p_y = marginal_kernel(spec, "destination")
    p_y2 = marginal_kernel(spec, "user2")
    nx1, nx2, ny = p_y.shape
    ny2 = p_y2.shape[2]
    nz = ny * nx2 * ny2
    var_index = lambda y, x2, y2: (y * nx2 + x2) * ny2 + y2
    a_eq = np.zeros((ny * nx2, nz + 1))
    b_eq = np.ones(ny * nx2)
    for y in range(ny):
        for x2 in range(nx2):
            for y2 in range(ny2):
                a_eq[y * nx2 + x2, var_index(y, x2, y2)] = 1.0
    n_match = nx1 * nx2 * ny2
    a_ub = np.zeros((2 * n_match, nz + 1))
    b_ub = np.zeros(2 * n_match)
    row = 0
    for x1 in range(nx1):
        for x2 in range(nx2):
            for y2 in range(ny2):
                for y in range(ny):
                    a_ub[row, var_index(y, x2, y2)] = p_y[x1, x2, y]
                    a_ub[row + 1, var_index(y, x2, y2)] = -p_y[x1, x2, y]
                a_ub[row, nz] = -1.0
                a_ub[row + 1, nz] = -1.0
                b_ub[row] = p_y2[x1, x2, y2]
                b_ub[row + 1] = -p_y2[x1, x2, y2]
                row += 2
    cost = np.zeros(nz + 1)
    cost[nz] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (nz + 1), method="highs", options=HIGHS_OPTIONS)
    assert res.status == 0, res.message
    return float(res.fun)


def _loop_kernel_lp(spec, x2):
    """rows, rhs, cost and start of x2's kernel LP in
    check_stochastically_degraded, filled one entry at a time by nested
    loops: columns d(y2 | y) in (y, y2) order, then t, then one slack per
    match row; rows each y's kernel summing to one, then per (x1, y2) the
    match row and its negation's."""
    p_y = marginal_kernel(spec, "destination")
    p_y2 = marginal_kernel(spec, "user2")
    nx1, _, ny = p_y.shape
    ny2 = p_y2.shape[2]
    nz, n_match = ny * ny2, 2 * nx1 * ny2
    rows = np.zeros((ny + n_match, nz + 1 + n_match))
    rhs = np.zeros(ny + n_match)
    for y in range(ny):
        for y2 in range(ny2):
            rows[y, y * ny2 + y2] = 1.0
        rhs[y] = 1.0
    row = ny
    for x1 in range(nx1):
        for y2 in range(ny2):
            for sign in (1.0, -1.0):
                for y in range(ny):
                    rows[row, y * ny2 + y2] = sign * p_y[x1, x2, y]
                rows[row, nz] = -1.0
                rows[row, nz + 1 + row - ny] = 1.0
                rhs[row] = sign * p_y2[x1, x2, y2]
                row += 1
    cost = np.zeros(rows.shape[1])
    cost[nz] = -1.0
    return rows, rhs, cost, [y * ny2 for y in range(ny)]


def _oracle_channels():
    """The fixtures, then 100 channels composed degraded by
    compose_degraded_channel and 100 drawn at random, every alphabet of
    one to four letters, from one seed."""
    rng = np.random.default_rng(31)
    channels = [(name, build()) for name, build in sorted(fx.FIXTURE_BUILDERS.items())]
    for i in range(100):
        nx1, nx2, ny, ny1, ny2 = (int(v) for v in rng.integers(1, 5, 5))
        main = rng.dirichlet(np.ones(ny), size=(nx1, nx2))
        degrade = rng.dirichlet(np.ones(ny2), size=(ny, nx2))
        side = rng.dirichlet(np.ones(ny1), size=(nx1, nx2))
        channels.append((f"composed{i}", compose_degraded_channel(main, degrade, side)))
    for i in range(100):
        sizes = tuple(int(v) for v in rng.integers(1, 5, 5))
        channels.append((f"random{i}", fx.random_channel(sizes, rng)))
    return channels


class TestValidateChannel:
    def test_accepts_clean_table(self):
        table = np.full((2, 2, 2, 1, 1), 0.5)
        spec = validate_channel(table, (2, 2, 2, 1, 1))
        assert spec.prob.shape == (2, 2, 2, 1, 1)
        assert not spec.prob.flags.writeable

    def test_renormalizes_tiny_drift(self):
        table = np.full((2, 1, 2, 1, 1), 0.5)
        table[0, 0, 0, 0, 0] += 3e-7
        spec = validate_channel(table, (2, 1, 2, 1, 1))
        sums = spec.prob.sum(axis=(2, 3, 4))
        assert np.allclose(sums, 1.0, atol=1e-15)

    def test_rejects_large_drift(self):
        table = np.full((2, 1, 2, 1, 1), 0.5)
        table[0, 0, 0, 0, 0] += 1e-3
        with pytest.raises(RowSumViolation):
            validate_channel(table, (2, 1, 2, 1, 1))

    def test_rejects_negative_entries(self):
        table = np.full((2, 1, 2, 1, 1), 0.5)
        table[0, 0, 0, 0, 0] = -0.1
        table[0, 0, 1, 0, 0] = 1.1
        with pytest.raises(NegativeProbability):
            validate_channel(table, (2, 1, 2, 1, 1))

    def test_rejects_nan_entries(self):
        # a NaN block sum compares False against any tolerance
        table = np.full((2, 1, 2, 1, 1), 0.5)
        table[1, 0, 0, 0, 0] = np.nan
        with pytest.raises(RowSumViolation):
            validate_channel(table, (2, 1, 2, 1, 1))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_channel(np.full((2, 2, 2), 0.5), (2, 2, 2, 1, 1))

    @pytest.mark.parametrize("build, message", [
        (lambda: ChannelSpec(np.full((2, 2), 0.5)), "must have 5 axes, got 2"),
        # four sizes that match a four-axis table
        (lambda: validate_channel(np.full((2, 1, 2, 1), 0.5), (2, 1, 2, 1)),
         "expected 5 alphabet sizes, got 4"),
        # an empty alphabet that matches an empty table
        (lambda: validate_channel(np.zeros((0, 1, 2, 1, 1)), (0, 1, 2, 1, 1)),
         "alphabet sizes must be >= 1"),
    ], ids=["rank", "size_count", "empty_alphabet"])
    def test_rejects_malformed_alphabets(self, build, message):
        with pytest.raises(DimensionMismatch, match=message):
            build()


class TestSerialization:
    def test_roundtrip_preserves_the_table(self, tmp_path, rng):
        spec = fx.random_channel((2, 3, 2, 2, 2), rng)
        path = tmp_path / "chan.json"
        save_channel(spec, path)
        again = load_channel(path)
        assert again.sizes == spec.sizes
        # JSON floats roundtrip exactly; only the renormalization on load may
        # touch the last ulp
        assert np.allclose(again.prob, spec.prob, rtol=0, atol=1e-15)

    def test_save_load_reaches_a_fixed_point(self, tmp_path, rng):
        spec = fx.random_channel((3, 2, 2, 1, 3), rng)
        path = tmp_path / "chan.json"
        save_channel(spec, path)
        once = load_channel(path)
        save_channel(once, path)
        twice = load_channel(path)
        assert np.array_equal(once.prob, twice.prob)

    def test_nan_literal_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        save_channel(fx.binary_degraded(), path)
        doc = json.loads(path.read_text())
        doc["p"][1][0][0][0][0] = float("nan")
        path.write_text(json.dumps(doc))          # writes the NaN literal
        assert "NaN" in path.read_text()
        with pytest.raises(RowSumViolation):
            load_channel(path)

    @pytest.mark.parametrize("size", [2.7, True, "2"])
    def test_alphabet_size_that_is_not_whole_is_rejected(self, tmp_path, size):
        # the file's |X1| is 2; a fractional, boolean or string size is refused,
        # not cast
        path = tmp_path / "frac.json"
        save_channel(fx.binary_degraded(), path)
        doc = json.loads(path.read_text())
        assert doc["x1"] == 2
        doc["x1"] = size
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionMismatch, match="whole number"):
            load_channel(path)
        with pytest.raises(DimensionMismatch, match="whole number"):
            validate_channel(doc["p"], [size] + [doc[k] for k in ("x2", "y", "y1", "y2")])

    def test_malformed_file_raises(self, tmp_path):
        # no sizes, a ragged table and a table that is not numbers
        sizes = {"x1": 1, "x2": 1, "y": 2, "y1": 1, "y2": 1}
        path = tmp_path / "bad.json"
        for doc in ({"p": []}, {**sizes, "p": [[[[[0.5]], [[0.5, 0.1]]]]]},
                    {**sizes, "p": "a"}):
            path.write_text(json.dumps(doc))
            with pytest.raises(DimensionMismatch, match="malformed channel file"):
                load_channel(path)


class TestMarginalKernel:
    def test_identity_copy_kernels_are_the_same_flip(self, identity_copy):
        dest = marginal_kernel(identity_copy, "destination")
        eaves = marginal_kernel(identity_copy, "user2")
        expected = _bsc(0.1).reshape(2, 1, 2)
        assert np.allclose(dest, expected, atol=1e-12)
        assert np.allclose(eaves, expected, atol=1e-12)

    def test_rows_are_distributions(self, rng):
        spec = fx.random_channel((2, 2, 3, 2, 2), rng)
        for receiver in ("destination", "user1", "user2"):
            table = marginal_kernel(spec, receiver)
            assert np.allclose(table.sum(axis=2), 1.0, atol=1e-9)
            assert table.min() >= -1e-15

    def test_unknown_receiver(self, clean_mac):
        with pytest.raises(ValueError):
            marginal_kernel(clean_mac, "nowhere")


class TestCompose:
    def test_composite_matches_hand_matmul(self):
        main = _bsc(0.1).reshape(2, 1, 2)
        degrade = _bsc(0.2).reshape(2, 1, 2)
        spec = compose_degraded_channel(main, degrade)
        dest = marginal_kernel(spec, "destination")
        assert np.allclose(dest, main, atol=1e-12)
        eaves = marginal_kernel(spec, "user2")
        # cascading two symmetric flips multiplies the kernels
        expected = (_bsc(0.1) @ _bsc(0.2)).reshape(2, 1, 2)
        assert np.allclose(eaves, expected, atol=1e-12)
        # overall flip probability 0.1*0.8 + 0.9*0.2 = 0.26
        assert eaves[0, 0, 1] == pytest.approx(0.26, abs=1e-12)

    MAIN = _bsc(0.1).reshape(2, 1, 2)

    @pytest.mark.parametrize("main, degrade, side, error, message", [
        (_bsc(0.1), MAIN, None, DimensionMismatch, "main law must have shape"),
        (MAIN, np.full((3, 1, 2), 0.5), None, DimensionMismatch,
         "degrading kernel shape"),
        (MAIN, MAIN, np.full((2, 2, 1), 1.0), DimensionMismatch, "side law shape"),
        (MAIN * 0.9, MAIN, None, RowSumViolation, "main kernel rows must sum to 1"),
        (MAIN, MAIN, np.full((2, 1, 2), 0.6), RowSumViolation,
         "side kernel rows must sum to 1"),
    ], ids=["main_rank", "degrade_shape", "side_shape", "main_mass", "side_mass"])
    def test_rejects_malformed_factors(self, main, degrade, side, error, message):
        with pytest.raises(error, match=message):
            compose_degraded_channel(main, degrade, side)


class TestDegradedness:
    def test_composed_fixture_is_physically_degraded(self, binary_degraded):
        cert = check_physically_degraded(binary_degraded)
        assert cert.verdict == "physically-degraded"
        assert cert.residual <= 1e-9
        # the recovered kernel must reproduce the construction's second flip
        witness = np.asarray(cert.witness)
        assert np.allclose(witness, _bsc(0.1).reshape(2, 1, 2), atol=1e-9)

    def test_identity_copy_is_stochastically_but_not_physically(self, identity_copy):
        phys = check_physically_degraded(identity_copy)
        assert phys.verdict == "not-degraded"
        assert phys.residual > 1e-3
        stoch = check_stochastically_degraded(identity_copy)
        assert stoch.verdict == "stochastically-degraded"
        witness = np.asarray(stoch.witness)
        assert np.allclose(witness.sum(axis=2), 1.0, atol=1e-9)
        # pushing the destination kernel through the witness must land on
        # user 2's kernel
        dest = marginal_kernel(identity_copy, "destination")
        eaves = marginal_kernel(identity_copy, "user2")
        recovered = np.einsum("aby,ybz->abz", dest, witness)
        assert np.allclose(recovered, eaves, atol=1e-6)

    def test_better_informed_wiretapper_is_not_degraded(self, noiseless_wiretapper):
        cert = check_stochastically_degraded(noiseless_wiretapper)
        assert cert.verdict == "not-degraded"
        assert cert.witness is None
        assert cert.residual > 0.01

    def test_a_failed_lp_is_a_solver_stall(self, binary_degraded, monkeypatch):
        # phase one needs a pivot here, and is allowed one pricing round
        import gmacsec.lp as lp

        monkeypatch.setattr(lp, "PIVOT_CEILING", 1)
        with pytest.raises(SolverStall, match="not optimal after 1 pricing rounds"):
            check_stochastically_degraded(binary_degraded)

    def test_physical_implies_stochastic(self, binary_degraded):
        cert = check_stochastically_degraded(binary_degraded)
        assert cert.verdict == "stochastically-degraded"
        assert cert.residual <= 1e-7

    @pytest.mark.parametrize("check", [check_physically_degraded,
                                       check_stochastically_degraded])
    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_tol_is_a_finite_nonnegative_number(self, binary_degraded, monkeypatch,
                                                check, tol):
        import gmacsec.channel as channel

        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(channel, "maximize", no_lp)
        with pytest.raises(ValueError, match="finite number >= 0"):
            check(binary_degraded, tol=tol)


    @pytest.mark.parametrize("name", sorted(fx.FIXTURE_BUILDERS) + ["random1", "random2"])
    def test_lp_matrices_equal_the_loop_built_ones(self, monkeypatch, name):
        import gmacsec.channel as channel

        if name.startswith("random"):
            sizes = (2, 3, 3, 2, 2) if name == "random1" else (3, 2, 2, 1, 4)
            spec = fx.random_channel(sizes, np.random.default_rng(int(name[-1])))
        else:
            spec = fx.FIXTURE_BUILDERS[name]()
        calls = []
        real = channel.maximize

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(channel, "maximize", spy)
        check_stochastically_degraded(spec)
        assert len(calls) == spec.size_x2
        for x2, call in enumerate(calls):
            for got, want in zip(call, _loop_kernel_lp(spec, x2), strict=True):
                assert np.array_equal(got, want)

    def test_highs_agrees_on_verdicts_and_residuals(self):
        # the package's simplex against HiGHS on the fixtures and 200 seeded
        # channels, half composed degraded and half random
        verdicts = set()
        for name, spec in _oracle_channels():
            cert = check_stochastically_degraded(spec)
            want = _highs_residual(spec)
            assert cert.residual == pytest.approx(want, rel=0.0, abs=1e-12), name
            if name in fx.FIXTURE_BUILDERS:
                # exact values stay exact: 0.0 on every degraded fixture
                assert cert.residual == want, name
            assert (cert.verdict == "not-degraded") == (want > 1e-7), name
            verdicts.add(cert.verdict)
            if cert.witness is not None:
                dest = marginal_kernel(spec, "destination")
                eaves = marginal_kernel(spec, "user2")
                recovered = np.einsum("aby,ybz->abz", dest, cert.witness)
                assert np.abs(recovered - eaves).max() == cert.residual, name
        assert verdicts == {"stochastically-degraded", "not-degraded"}


class TestPerturbation:
    def test_marginals_survive_perturbation(self, rng):
        spec = fx.random_channel((2, 2, 2, 2, 2), rng)
        before = {r: marginal_kernel(spec, r) for r in
                  ("destination", "user1", "user2")}
        moved = perturb_preserving_marginals(spec, rng, moves=12)
        assert not np.array_equal(moved.prob, spec.prob)
        for receiver, table in before.items():
            after = marginal_kernel(moved, receiver)
            assert np.allclose(after, table, atol=1e-12)

    def test_perturbed_table_is_still_a_channel(self, rng):
        spec = fx.random_channel((2, 2, 3, 2, 2), rng)
        moved = perturb_preserving_marginals(spec, rng, moves=20)
        assert moved.prob.min() >= -1e-15
        assert np.allclose(moved.prob.sum(axis=(2, 3, 4)), 1.0, atol=1e-9)

    def test_needs_two_wide_output_axes(self, clean_mac, rng):
        # clean access has singleton side outputs, nothing can move
        with pytest.raises(ValueError):
            perturb_preserving_marginals(clean_mac, rng)
