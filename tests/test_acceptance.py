"""End-to-end acceptance gates.

Every test here recomputes its expected answer from scratch, either via
a closed form or via a direct enumeration over the same search grid;
the determinism gate compares output bytes between runs instead. Run
with -v to get one pass/fail line per gate. Gates with a stated time
budget assert it.
"""

import json
import time

import numpy as np

from gmacsec import (
    SchemeOneSet,
    SchemeTwoSet,
    EmptySlice,
    build_codebook,
    equivocation_joint,
    equivocation_set_explicit,
    equivocation_set_oracle,
    exact_equivocation,
    exact_error_probability,
    inner_polytope,
    mac_polytope,
    marginal_kernel,
    one_set_terms,
    perturb_preserving_marginals,
    piece_contains,
    piece_support,
    region_support,
    save_channel,
    secrecy_capacity_value,
    secrecy_polytope,
    slice_piece,
    two_set_terms,
)
from gmacsec import fixtures as fx
from gmacsec.cli import main
from gmacsec.optimizer import (
    SearchConfig,
    assemble_region,
    enumerate_schemes_grid,
    maximize_secrecy_capacity,
    sample_schemes_random,
)


def _ent(masses):
    """Shannon entropy of an array of probabilities, in bits."""
    p = np.asarray(masses, dtype=float).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _h2(p):
    return _ent([p, 1.0 - p])


def _union_support(pieces, direction):
    best = None
    for piece in pieces:
        try:
            value, _ = piece_support(piece, direction)
        except EmptySlice:
            continue
        best = value if best is None else max(best, value)
    assert best is not None, "no feasible piece in the union"
    return best


def test_01_degenerate_auxiliary_recovers_the_plain_access_polytope():
    """With the auxiliary pinned to sender 1's input and zero equivocation,
    the inner bound must equal the two-rate polytope computed directly from
    the input-output law: R1 <= I(X1;Y|X2), R0+R1 <= I(X1,X2;Y)."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    directions = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3)]
    worst = 0.0
    for _ in range(20):
        channel = fx.random_channel((2, 2, 4, 1, 2), rng)
        p1 = rng.dirichlet(np.ones(2))
        p2 = rng.dirichlet(np.ones(2))
        scheme = SchemeOneSet(p_q_x2=p2[None, :], p_u_given_q=p1[None, :],
                              p_x1_given_u=np.eye(2))

        kernel = marginal_kernel(channel, "destination")
        joint = p1[:, None, None] * p2[None, :, None] * kernel
        i_x1_y_given_x2 = (_ent(joint.sum(axis=2)) + _ent(joint.sum(axis=0))
                           - _ent(joint.sum(axis=(0, 2))) - _ent(joint))
        i_both_y = (_ent(joint.sum(axis=(0, 1))) + _ent(joint.sum(axis=2))
                    - _ent(joint))
        vertices = [(0.0, 0.0), (i_both_y, 0.0), (0.0, i_x1_y_given_x2),
                    (i_both_y - i_x1_y_given_x2, i_x1_y_given_x2)]

        sliced = [slice_piece(p, {"Re": 0.0})
                  for p in inner_polytope(scheme, channel)]
        for direction in directions:
            want = max(v[0] * direction[0] + v[1] * direction[1]
                       for v in vertices)
            got = _union_support(sliced, direction)
            worst = max(worst, abs(got - want))
    assert worst <= 1e-9
    assert time.monotonic() - started < 10.0


def test_02_single_sender_secrecy_reduces_to_the_wiretap_difference():
    """When sender 2 has no alphabet and no common message rides along, the
    searched confidential rate must match the searched I(U;Y) - I(U;Y2),
    both maximized over the same scheme grid."""
    started = time.monotonic()
    rng = np.random.default_rng(202)
    config = SearchConfig(strategy="grid", cardinalities=(1, 3, 1),
                          grid_resolution=5)
    for _ in range(5):
        channel = fx.random_channel((2, 1, 2, 1, 2), rng)
        got, _ = maximize_secrecy_capacity(channel, r0=0.0, config=config)

        to_y = marginal_kernel(channel, "destination")[:, 0, :]
        to_y2 = marginal_kernel(channel, "user2")[:, 0, :]
        best = 0.0
        for scheme in enumerate_schemes_grid("one_set", channel, config):
            p_u_x1 = scheme.p_u_given_q[0][:, None] * scheme.p_x1_given_u
            p_u = p_u_x1.sum(axis=1)
            p_u_y = p_u_x1 @ to_y
            p_u_y2 = p_u_x1 @ to_y2
            gain = _ent(p_u_y.sum(axis=0)) + _ent(p_u) - _ent(p_u_y)
            loss = _ent(p_u_y2.sum(axis=0)) + _ent(p_u) - _ent(p_u_y2)
            best = max(best, gain - loss)
        assert abs(got - best) <= 0.02
    assert time.monotonic() - started < 120.0


def _dilate_once(mask):
    """Grow a boolean grid by one cell in Chebyshev distance."""
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    wide = out.copy()
    wide[:, 1:] |= out[:, :-1]
    wide[:, :-1] |= out[:, 1:]
    return wide


def test_03_explicit_equivocation_set_matches_the_exhaustive_oracle():
    """On random binary channels and schemes, the closed-form equivocation
    set and the grid enumeration over dummy-rate pairs must agree within
    one oracle step, tuple by tuple across the decodable rate polytope."""
    started = time.monotonic()
    rng = np.random.default_rng(303)
    step = 0.01
    span = 120
    axis = np.arange(span + 1) * step
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 2)
    checked = 0
    for _ in range(10):
        channel = fx.random_channel((2, 2, 2, 2, 2), rng, concentration=0.25)
        # random input marginals; the auxiliaries stay glued to the inputs
        # so the decodable polytope keeps a usable size
        scheme = SchemeTwoSet(
            np.ones(1),
            rng.dirichlet(4.0 * np.ones(2), size=1),
            np.eye(2),
            rng.dirichlet(4.0 * np.ones(2), size=1),
            np.eye(2),
        )
        t = two_set_terms(scheme, channel)

        tuples = []
        for i0 in range(int(t["mt"] / (5 * step)) + 1):
            for i1 in range(int(t["m1"] / (5 * step)) + 1):
                for i2 in range(int(t["m2"] / (5 * step)) + 1):
                    r0, r1, r2 = (5 * i0) * step, (5 * i1) * step, (5 * i2) * step
                    if (r1 <= t["m1"] and r2 <= t["m2"]
                            and r1 + r2 <= t["m12"]
                            and r0 + r1 + r2 <= t["mt"]):
                        tuples.append((r0, r1, r2))
        stride = max(1, -(-len(tuples) // 150))
        for r0, r1, r2 in tuples[::stride]:
            pieces = equivocation_set_explicit(scheme, channel, r0, r1, r2)
            inside = np.zeros(len(grid), dtype=bool)
            for piece in pieces:
                inside |= np.all(grid @ piece.A.T <= piece.b + 1e-9, axis=1)
            explicit_mask = inside.reshape(span + 1, span + 1)

            points = equivocation_set_oracle(scheme, channel, r0, r1, r2,
                                             step=step)
            assert len(points) > 0
            idx = np.rint(points / step).astype(int)
            assert idx.max() <= span
            oracle_mask = np.zeros_like(explicit_mask)
            oracle_mask[idx[:, 0], idx[:, 1]] = True

            assert not (explicit_mask & ~_dilate_once(oracle_mask)).any()
            assert not (oracle_mask & ~_dilate_once(explicit_mask)).any()
            checked += 1
    assert checked >= 100
    assert time.monotonic() - started < 120.0


def test_04_correlation_shuffles_never_move_region_supports():
    """Perturbing the joint output law while preserving every receiver's
    marginal kernel must leave all region support values in place."""
    rng = np.random.default_rng(404)
    channel = fx.random_channel((2, 2, 3, 2, 2), rng)
    one_set_scheme = fx.uniform_u_equals_x1(channel)
    two_set_scheme = fx.uniform_two_set_scheme(channel)
    dirs3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]
    dirs2 = [(1, 0), (0, 1), (1, 1)]

    def supports(spec):
        values = []
        pieces = inner_polytope(one_set_scheme, spec)
        for d in dirs3:
            values.append(_union_support(pieces, d))
        secrecy = secrecy_polytope(one_set_scheme, spec)
        assert secrecy is not None
        for d in dirs2:
            values.append(piece_support(secrecy, d)[0])
        mac = mac_polytope(two_set_scheme, spec)
        for d in dirs3:
            values.append(piece_support(mac, d)[0])
        return np.array(values)

    base = supports(channel)
    for _ in range(50):
        shaken = perturb_preserving_marginals(channel, rng)
        assert np.max(np.abs(supports(shaken) - base)) <= 1e-9


def test_05_binary_degraded_capacity_hits_the_closed_form():
    """A flip-0.1 main hop followed by another flip-0.1 hop has a known
    confidential capacity: h(0.1*0.9 + 0.9*0.1) - h(0.1)."""
    started = time.monotonic()
    channel = fx.binary_degraded()
    config = SearchConfig(strategy="grid", cardinalities=(1, 2, 1),
                          grid_resolution=5)
    value, _ = maximize_secrecy_capacity(channel, r0=0.0, config=config,
                                         variant="degraded")
    composed = 0.1 * 0.9 + 0.9 * 0.1
    assert abs(value - (_h2(composed) - _h2(0.1))) <= 0.02
    assert time.monotonic() - started < 60.0


def test_06_deterministic_access_frontier_and_full_secrecy():
    """When the destination sees both inputs exactly and user 2 sees only
    sender 2's, the secrecy region is {R1 <= 1, R0 + R1 <= 2} and a full
    confidential bit is achievable."""
    channel = fx.clean_mac()
    config = SearchConfig(strategy="grid", cardinalities=(1, 2, 1))
    region = assemble_region(channel, "secrecy-one-set", config)
    vertices = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    for direction in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3)]:
        d = np.asarray(direction, dtype=float)
        d /= np.linalg.norm(d)
        want = max(v @ d for v in np.asarray(vertices))
        assert abs(region_support(region, d) - want) <= 0.02
    value, _ = maximize_secrecy_capacity(channel, r0=0.0, config=config)
    assert value >= 0.99


def test_07_fully_observed_sender_has_exactly_zero_secrecy():
    """When user 2 reads sender 1's input verbatim, every scheme's
    confidential rate must come out 0.0 exactly, not merely small."""
    channel = fx.leaky_wiretap()
    grid = SearchConfig(strategy="grid", cardinalities=(1, 3, 1))
    count = 0
    for scheme in enumerate_schemes_grid("one_set", channel, grid):
        assert secrecy_capacity_value(scheme, channel, 0.0) == 0.0
        assert secrecy_capacity_value(scheme, channel, 0.37) == 0.0
        count += 1
    sampler = SearchConfig(strategy="random", sample_count=50, seed=7)
    for scheme in sample_schemes_random("one_set", channel, sampler):
        assert secrecy_capacity_value(scheme, channel, 0.0) == 0.0
        count += 1
    assert count >= 100


def test_08_simulator_is_exact_on_degenerate_channels():
    """Dyadic constructions admit exact expected values: a pure-noise
    observer leaves the whole message rate as equivocation, and a blind
    decoder errs exactly 1 - 1/M of the time."""
    started = time.monotonic()
    pure = fx.pure_noise_wiretap()
    book = build_codebook(pure, 4, 1, 4, 1, 1, 1, ([0.5, 0.5], [1.0]),
                          seed=11)
    assert exact_equivocation(book, pure, "user2_about_W1") == 0.5
    joint = equivocation_joint(book, pure, "user2_about_W1")
    assert abs(joint.prob.sum() - 1.0) <= 1e-9

    blind = fx.blind_destination()
    book = build_codebook(blind, 2, 2, 2, 2, 1, 1, ([0.5, 0.5], [0.5, 0.5]),
                          seed=12)
    assert exact_error_probability(book, blind) == 1.0 - 1.0 / 8.0
    assert time.monotonic() - started < 60.0


def test_09_capacity_value_sits_exactly_on_the_polytope_boundary():
    """For random schemes on the degraded fixture, the reported value must
    be inside the perfect-secrecy piece while value + 1e-6 falls outside."""
    rng = np.random.default_rng(909)
    channel = fx.binary_degraded()
    for _ in range(100):
        nq = int(rng.integers(1, 3))
        nu = int(rng.integers(2, 4))
        scheme = SchemeOneSet(
            p_q_x2=rng.dirichlet(np.ones(nq)).reshape(nq, 1),
            p_u_given_q=rng.dirichlet(np.ones(nu), size=nq),
            p_x1_given_u=rng.dirichlet(np.ones(2), size=nu),
        )
        piece = secrecy_polytope(scheme, channel)
        assert piece is not None
        _, b, d = one_set_terms(scheme, channel)
        r0 = float(rng.uniform(0.0, b - d))
        value = secrecy_capacity_value(scheme, channel, r0)
        assert piece_contains(piece, (r0, value))
        assert not piece_contains(piece, (r0, value + 1e-6))


def test_10_region_command_is_byte_deterministic(tmp_path):
    """Two invocations with identical inputs must write identical CSV
    bytes, including the seeded random search inside."""
    channel_path = tmp_path / "channel.json"
    save_channel(fx.binary_degraded(), channel_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"strategy": "random",
                                       "sample_count": 40}),
                           encoding="utf-8")
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        rc = main(["region", str(channel_path), "--bound", "inner1",
                   "--plane", "R0,R1", "--resolution", "17",
                   "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
