"""Stacked information terms and the block search checked bit for bit
against the per-scheme scalar path.

The reference terms are mutual_information on each scheme's assembled
JointPMF, as the package computed them before the stacked kernel; the
reference search is the sequential loop over scheme dataclasses that
maximize_secrecy_capacity replays. Values are compared by float.hex, which
tells -0.0 from 0.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmacsec import (
    EnumerationTooLarge,
    SchemeDegraded,
    SchemeOneSet,
    assemble_joint_degraded,
    assemble_joint_one_set,
    degraded_terms,
    enumerate_schemes_grid,
    fixtures as fx,
    maximize_secrecy_capacity,
    mutual_information,
    one_set_terms,
    sample_schemes_random,
    scheme_to_dict,
)
from gmacsec import infotheory, one_set, optimizer
from gmacsec.optimizer import SearchConfig

FIXTURES = sorted(fx.FIXTURE_BUILDERS)
W3 = SearchConfig(strategy="grid", cardinalities=(1, 3, 1), grid_resolution=5)


# --- references ----------------------------------------------------------------

def scalar_one_set_terms(scheme, channel):
    joint = assemble_joint_one_set(scheme, channel)
    return (mutual_information(joint, "U", "Y", ("X2", "Q")),
            mutual_information(joint, ("U", "X2", "Q"), "Y"),
            mutual_information(joint, "U", "Y2", ("X2", "Q")))


def scalar_degraded_terms(scheme, channel):
    joint = assemble_joint_degraded(scheme, channel)
    return (mutual_information(joint, "X1", "Y", ("X2", "Q")),
            mutual_information(joint, ("X1", "X2"), "Y"),
            mutual_information(joint, "X1", "Y2", ("X2", "Q")))


KINDS = {
    "one_set": (scalar_one_set_terms, one_set.stacked_one_set_terms, one_set_terms,
                ("p_q_x2", "p_u_given_q", "p_x1_given_u")),
    "degraded": (scalar_degraded_terms, one_set.stacked_degraded_terms, degraded_terms,
                 ("p_q_x2", "p_x1_given_q")),
}


def reference_capacity(terms, r0):
    a, b, d = terms
    return max(0.0, min(a - d, b - d - r0))


def reference_search(schemes, channel, r0, kind):
    """The sequential winner rule over scheme dataclasses."""
    scalar, _, _, fields = KINDS[kind]
    best = None
    for scheme in schemes:
        value = reference_capacity(scalar(scheme, channel), r0)
        key = tuple(float(v) for f in fields
                    for v in np.asarray(getattr(scheme, f)).ravel())
        if best is None or value > best[0] + 1e-15 or (
            value >= best[0] - 1e-15 and key < best[1]
        ):
            best = (value, key, scheme)
    return best[0], best[2]


def _hex(values):
    return [float(v).hex() for v in values]


def assert_stacked_matches_scalar(schemes, channel, kind):
    scalar, stacked, single, fields = KINDS[kind]
    tables = [np.stack([getattr(s, f) for s in schemes]) for f in fields]
    got = stacked(*tables, channel)
    assert got.shape == (len(schemes), 3)
    for scheme, row in zip(schemes, got):
        want = _hex(scalar(scheme, channel))
        assert _hex(row) == want
        assert _hex(single(scheme, channel)) == want


# --- stacked terms ---------------------------------------------------------------

@pytest.mark.parametrize("flips", [(0.1, 0.1), (0.13, 0.07)])
def test_every_w3_scheme(flips):
    channel = fx.binary_degraded(*flips)
    schemes = list(enumerate_schemes_grid("one_set", channel, W3))
    assert len(schemes) == 1875
    assert_stacked_matches_scalar(schemes, channel, "one_set")
    degraded = SearchConfig(strategy="grid", cardinalities=(3, 1, 1),
                            grid_resolution=5)
    schemes = list(enumerate_schemes_grid("degraded", channel, degraded))
    assert len(schemes) == 1875
    assert_stacked_matches_scalar(schemes, channel, "degraded")


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_schemes_of_every_fixture(name, kind):
    channel = fx.FIXTURE_BUILDERS[name]()
    config = SearchConfig(cardinalities=(2, 3, 1), sample_count=40, seed=7)
    schemes = list(sample_schemes_random(kind, channel, config))
    assert_stacked_matches_scalar(schemes, channel, kind)


def _recording_counts(monkeypatch):
    """Record how many positive masses each marginal the kernel sums has."""
    counts = []
    real = infotheory._stacked_entropy

    def record(prob, keep):
        drop = tuple(i + 1 for i in range(prob.ndim - 1) if i not in keep)
        marg = prob.sum(axis=drop) if drop else prob
        counts.extend(np.count_nonzero(marg.reshape(len(prob), -1) > 0, axis=1))
        return real(prob, keep)

    monkeypatch.setattr(infotheory, "_stacked_entropy", record)
    return counts


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_random_channels(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    channel = fx.random_channel((3, 3, 4, 1, 4), rng)
    counts = _recording_counts(monkeypatch)
    for kind, cards in (("one_set", (3, 4, 1)), ("degraded", (4, 1, 1))):
        config = SearchConfig(cardinalities=cards, sample_count=25, seed=seed)
        schemes = list(sample_schemes_random(kind, channel, config))
        # sparse rows too, so that the rows of one stack differ in their counts
        sparse = [_sparsified(s, kind) for s in schemes[:10]]
        assert_stacked_matches_scalar(schemes + sparse, channel, kind)
    counts = np.array(counts)
    # both of numpy's summation branches: below 8 atoms, 8-15, and 16 up
    assert counts.min() < 8 and np.any((counts >= 8) & (counts < 16))
    assert counts.max() >= 16


def _sparsified(scheme, kind):
    """The scheme with every mass below 0.2 dropped (a row keeps its largest)."""
    _, _, _, fields = KINDS[kind]
    tables = {}
    for f in fields:
        arr = np.asarray(getattr(scheme, f))
        rows = arr.reshape(1, -1) if f == "p_q_x2" else arr
        rows = np.where(rows >= np.minimum(0.2, rows.max(axis=1, keepdims=True)),
                        rows, 0.0)
        tables[f] = (rows / rows.sum(axis=1, keepdims=True)).reshape(arr.shape)
    return (SchemeOneSet if kind == "one_set" else SchemeDegraded)(**tables)


def test_capacities_keep_the_scalar_tie_rules(binary_degraded):
    # rows chosen to land on -0.0, 0.0 and exact ties of the min and max
    rows = np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0],
                     [0.5, 0.5, 0.5], [0.5, 0.25, 0.25], [0.25, 0.5, 0.0],
                     [0.0, 0.5, 0.25], [0.75, 1.0, 0.25], [1e-300, 0.0, 0.0]])
    for r0 in (0.0, 0, 0.25, 5):
        got = one_set.secrecy_capacities(lambda channel: rows, (), binary_degraded, r0)
        assert _hex(got) == _hex(reference_capacity(t, r0) for t in rows.tolist())
    with pytest.raises(ValueError):
        one_set.secrecy_capacities(lambda channel: rows, (), binary_degraded, -0.1)


# --- property test -----------------------------------------------------------------

@st.composite
def _schemes(draw):
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(5))
    nq, nu = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(sorted(KINDS)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    count = draw(st.integers(1, 6))
    concentration = draw(st.sampled_from([0.2, 1.0, 5.0]))
    return sizes, (nq, nu, 1), kind, seed, count, concentration


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_schemes())
def test_stacked_terms_equal_scalar_terms(case):
    sizes, cards, kind, seed, count, concentration = case
    rng = np.random.default_rng(seed)
    channel = fx.random_channel(sizes, rng, concentration)
    blocks = optimizer._blocks(kind, channel, SearchConfig(cardinalities=cards))
    schemes = [optimizer._build(kind, blocks, [
        rng.dirichlet(np.full(cols, concentration), size=rows)
        for name, rows, cols, reshape in blocks]) for _ in range(count)]
    assert_stacked_matches_scalar(schemes, channel, kind)


# --- the block search ------------------------------------------------------------

def _search_cases():
    channel = fx.binary_degraded(0.13, 0.07)
    return [
        (channel, W3, "general", "one_set"),
        (fx.leaky_wiretap(), SearchConfig(sample_count=60, seed=3), "general", "one_set"),
        (channel, SearchConfig(strategy="grid", cardinalities=(3, 1, 1),
                               grid_resolution=4), "degraded", "degraded"),
        (fx.clean_mac(), SearchConfig(sample_count=60, seed=4), "degraded", "degraded"),
    ]


def _schemes_of(kind, channel, config):
    if config.strategy == "grid":
        return list(enumerate_schemes_grid(kind, channel, config))
    return list(sample_schemes_random(kind, channel, config))


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("r0", [0.0, 0.1, 5.0])
def test_search_matches_the_sequential_reference(case, r0):
    channel, config, variant, kind = _search_cases()[case]
    value, scheme = maximize_secrecy_capacity(channel, r0, config, variant)
    ref_value, ref_scheme = reference_search(_schemes_of(kind, channel, config),
                                             channel, r0, kind)
    assert float(value).hex() == float(ref_value).hex()
    assert scheme_to_dict(scheme) == scheme_to_dict(ref_scheme)


@pytest.mark.parametrize("per_block", [1, 2, 7, 64])
def test_blocks_split_inside_ties(monkeypatch, per_block):
    # at r0 = 5 every scheme scores 0.0, so the whole stream is one tie
    # that crosses every block boundary; at r0 = 0 the grid holds ties too
    channel = fx.binary_degraded(0.13, 0.07)
    cells = 1 * 3 * 2 * 1 * 2 * 2          # |Q||U||X1||X2||Y||Y2| of W3
    monkeypatch.setattr(optimizer, "BLOCK_CELLS", per_block * cells)
    schemes = _schemes_of("one_set", channel, W3)
    for r0 in (5.0, 0.0):
        value, scheme = maximize_secrecy_capacity(channel, r0, W3)
        ref_value, ref_scheme = reference_search(schemes, channel, r0, "one_set")
        assert float(value).hex() == float(ref_value).hex()
        assert scheme_to_dict(scheme) == scheme_to_dict(ref_scheme)


def test_ties_are_broken_on_normalized_parameters(monkeypatch, binary_degraded):
    # raw rows: B's first free entry is above A's, but B's row sums to
    # 1 + 1e-10, so after normalization it is below A's
    a = [1.0, 0.3, 0.7, 0.5, 0.5, 0.5, 0.5]
    b = [1.0, 0.30000000001, 0.70000000009, 0.5, 0.5, 0.5, 0.5]
    config = SearchConfig(cardinalities=(1, 2, 1))
    blocks = optimizer._blocks("one_set", binary_degraded, config)
    schemes = [optimizer._build("one_set", blocks, optimizer._split(np.array(r), blocks))
               for r in (a, b)]
    assert b[1] > a[1]
    assert schemes[1].p_u_given_q[0, 0] < schemes[0].p_u_given_q[0, 0]
    monkeypatch.setattr(optimizer, "parameter_rows",
                        lambda *args: iter([np.array(a), np.array(b)]))
    value, scheme = maximize_secrecy_capacity(binary_degraded, 5.0, config)
    ref_value, ref_scheme = reference_search(schemes, binary_degraded, 5.0, "one_set")
    assert value == ref_value == 0.0
    assert scheme_to_dict(scheme) == scheme_to_dict(ref_scheme) == scheme_to_dict(schemes[1])


def test_state_ceiling_still_raises(monkeypatch, binary_degraded):
    monkeypatch.setenv("GMAC_MAX_STATES", "23")   # W3 joints hold 24 cells
    with pytest.raises(EnumerationTooLarge, match="joint with 24 states"):
        maximize_secrecy_capacity(binary_degraded, 0.0, W3)
    monkeypatch.setenv("GMAC_MAX_STATES", "24")
    maximize_secrecy_capacity(binary_degraded, 0.0, W3)


def test_joint_stack_checks_each_joint():
    good = np.full((1, 2, 2), 0.25)
    bad_mass = np.full((1, 2, 2), 0.3)
    negative = np.array([[[0.5, 0.6], [0.0, -0.1]]])
    with pytest.raises(infotheory.RowSumViolation, match="joint mass 1.2"):
        infotheory.JointStack(("A", "B"), np.concatenate([good, bad_mass, negative]))
    with pytest.raises(infotheory.NegativeProbability, match="-0.1"):
        infotheory.JointStack(("A", "B"), np.concatenate([good, negative, bad_mass]))
    with pytest.raises(infotheory.DimensionMismatch):
        infotheory.JointStack(("A",), good)
