"""Stacked information terms, the block search and the batched region
assembly checked bit for bit against the per-scheme scalar path.

The reference terms are the scalar oracle's mutual_information
(scalar_oracle.py) on each scheme's joint, its stack of one; each kind's
joint is checked against its explicit per-cell product. The
reference search is the sequential loop over scheme dataclasses that
maximize_secrecy_capacity replays, and the reference region is the loop
that built a dataclass, a document and the terms of one scheme at a time.
Values are compared by float.hex, which tells -0.0 from 0.0.
"""

import dataclasses
import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmacsec import (
    BOUNDS,
    EnumerationTooLarge,
    NotDegradedWarning,
    SchemeDegraded,
    SchemeOneSet,
    assemble_region,
    check_stochastically_degraded,
    convexify,
    fixtures as fx,
    maximize_secrecy_capacity,
    piece_is_empty,
    scheme_to_dict,
)
from gmacsec import infotheory, one_set, optimizer, two_set
from gmacsec.optimizer import _BOUND_TABLES, SearchConfig
from gmacsec.regions import bound_pieces
from scalar_oracle import mutual_information, scheme_joint
from references import search_schemes

FIXTURES = sorted(fx.FIXTURE_BUILDERS)
W3 = SearchConfig(strategy="grid", cardinalities=(1, 3, 1), grid_resolution=5)


# --- references ----------------------------------------------------------------

def _memoized(terms):
    """terms(scheme, channel), computed once per scheme and channel: keyed
    by the bytes and shape of every parameter table and of the channel, so
    the searches below that revisit the same grid score each scheme once."""
    memo = {}

    @functools.wraps(terms)
    def memoized(scheme, channel):
        key = (type(scheme),
               tuple((a.shape, a.tobytes()) for a in
                     (np.asarray(getattr(scheme, f.name)) for f in dataclasses.fields(scheme))),
               channel.prob.shape, channel.prob.tobytes())
        if key not in memo:
            memo[key] = terms(scheme, channel)
        return memo[key]
    return memoized


@_memoized
def scalar_one_set_terms(scheme, channel):
    joint = scheme_joint(scheme, channel)
    return (mutual_information(*joint, "U", "Y", ("X2", "Q")),
            mutual_information(*joint, ("U", "X2", "Q"), "Y"),
            mutual_information(*joint, "U", "Y2", ("X2", "Q")))


@_memoized
def scalar_degraded_terms(scheme, channel):
    joint = scheme_joint(scheme, channel)
    return (mutual_information(*joint, "X1", "Y", ("X2", "Q")),
            mutual_information(*joint, ("X1", "X2"), "Y"),
            mutual_information(*joint, "X1", "Y2", ("X2", "Q")))


KINDS = {
    "one_set": (scalar_one_set_terms, one_set.INNER,
                ("p_q_x2", "p_u_given_q", "p_x1_given_u")),
    "degraded": (scalar_degraded_terms, one_set.DEGRADED, ("p_q_x2", "p_x1_given_q")),
}


def reference_capacity(terms, r0):
    a, b, d = terms
    return max(0.0, min(a - d, b - d - r0))


def reference_search(schemes, channel, r0, kind):
    """The sequential winner rule over scheme dataclasses."""
    scalar, _, fields = KINDS[kind]
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
    scalar, table, fields = KINDS[kind]
    tables = [np.stack([getattr(s, f) for s in schemes]) for f in fields]
    terms = table.terms(tables, channel)
    assert list(terms) == ["a", "b", "d"]
    got = np.stack(list(terms.values()), axis=1)
    assert got.shape == (len(schemes), 3)
    for scheme, row in zip(schemes, got):
        want = _hex(scalar(scheme, channel))
        assert _hex(row) == want
        assert _hex(table.scheme_terms(scheme, channel).values()) == want


# --- stacked terms ---------------------------------------------------------------

@pytest.mark.parametrize("flips", [(0.1, 0.1), (0.13, 0.07)])
def test_every_w3_scheme(flips):
    channel = fx.binary_degraded(*flips)
    schemes = list(search_schemes("one_set", channel, W3))
    assert len(schemes) == 1875
    assert_stacked_matches_scalar(schemes, channel, "one_set")
    degraded = SearchConfig(strategy="grid", cardinalities=(3, 1, 1),
                            grid_resolution=5)
    schemes = list(search_schemes("degraded", channel, degraded))
    assert len(schemes) == 1875
    assert_stacked_matches_scalar(schemes, channel, "degraded")


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_schemes_of_every_fixture(name, kind):
    channel = fx.FIXTURE_BUILDERS[name]()
    config = SearchConfig(cardinalities=(2, 3, 1), sample_count=40, seed=7)
    schemes = list(search_schemes(kind, channel, config))
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
        schemes = list(search_schemes(kind, channel, config))
        # sparse rows too, so that the rows of one stack differ in their counts
        sparse = [_sparsified(s, kind) for s in schemes[:10]]
        assert_stacked_matches_scalar(schemes + sparse, channel, kind)
    counts = np.array(counts)
    # both of numpy's summation branches: below 8 atoms, 8-15, and 16 up
    assert counts.min() < 8 and np.any((counts >= 8) & (counts < 16))
    assert counts.max() >= 16


def _sparsified(scheme, kind):
    """The scheme with every mass below 0.2 dropped (a row keeps its largest)."""
    _, _, fields = KINDS[kind]
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
    class Stub:
        def terms(self, tables, channel):
            return dict(zip("abd", rows.T))

    for r0 in (0.0, 0, 0.25, 5):
        got = one_set.secrecy_capacities(Stub(), (), binary_degraded, r0)
        assert _hex(got) == _hex(reference_capacity(t, r0) for t in rows.tolist())
    with pytest.raises(ValueError):
        one_set.secrecy_capacities(Stub(), (), binary_degraded, -0.1)


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


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("r0", [0.0, 0.1, 5.0])
def test_search_matches_the_sequential_reference(case, r0):
    channel, config, variant, kind = _search_cases()[case]
    value, scheme = maximize_secrecy_capacity(channel, r0, config, variant)
    ref_value, ref_scheme = reference_search(list(search_schemes(kind, channel, config)),
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
    schemes = list(search_schemes("one_set", channel, W3))
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


# --- every kind's joint and every bound's terms ------------------------------------

def scalar_outer_terms(scheme, channel):
    joint = scheme_joint(scheme, channel)
    return {"a_v": mutual_information(*joint, "U", "Y", ("X2", "V")),
            "a": mutual_information(*joint, "U", "Y", ("X2", "Q")),
            "b": mutual_information(*joint, ("U", "X2", "Q"), "Y"),
            "d": mutual_information(*joint, "U", "Y2", ("X2", "Q"))}


def scalar_two_set_terms(scheme, channel):
    joint = scheme_joint(scheme, channel)
    return {"m1": mutual_information(*joint, "U", "Y", ("V", "Q")),
            "m2": mutual_information(*joint, "V", "Y", ("U", "Q")),
            "m12": mutual_information(*joint, ("U", "V"), "Y", ("Q",)),
            "mt": mutual_information(*joint, ("U", "V", "Q"), "Y"),
            "e1": mutual_information(*joint, "U", "Y2", ("X2", "V", "Q")),
            "e2": mutual_information(*joint, "V", "Y1", ("X1", "U", "Q"))}


# Per scheme kind: its terms by name, from the oracle's mutual_information.
SCALAR_TERMS = {
    "one_set": lambda s, ch: dict(zip("abd", scalar_one_set_terms(s, ch))),
    "one_set_outer": scalar_outer_terms,
    "two_set": scalar_two_set_terms,
    "degraded": lambda s, ch: dict(zip("abd", scalar_degraded_terms(s, ch))),
}
TABLE_CHANNELS = FIXTURES + ["random"]


def _channel(name):
    if name == "random":
        # no zero terms, so that sums of terms round
        return fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(5))
    return fx.FIXTURE_BUILDERS[name]()


def _fields(kind):
    return infotheory._SCHEME_FIELDS[kind].fields


def _stack(schemes, kind):
    return [np.stack([getattr(s, f) for s in schemes]) for f in _fields(kind)]


def _sparse(scheme, kind):
    """The scheme with every mass below 0.3 dropped (a row keeps its largest)."""
    tables = {}
    for f in _fields(kind):
        arr = np.asarray(getattr(scheme, f))
        rows = arr.reshape(1, -1) if f in ("p_q", "p_q_x2") else arr
        rows = np.where(rows >= np.minimum(0.3, rows.max(axis=1, keepdims=True)),
                        rows, 0.0)
        tables[f] = (rows / rows.sum(axis=1, keepdims=True)).reshape(arr.shape)
    return infotheory._SCHEME_FIELDS[kind].cls(**tables)


@pytest.mark.parametrize("name", TABLE_CHANNELS + ["wide1", "wide2"])
@pytest.mark.parametrize("table", [one_set.OUTER, two_set.TWO_SET], ids=lambda t: t.kind)
def test_outer_and_two_set_terms_equal_scalar_terms(name, table):
    kind = table.kind
    if name.startswith("wide"):
        rng = np.random.default_rng(int(name[-1]))
        channel = fx.random_channel((3, 2, 4, 2, 3), rng)
    else:
        channel = _channel(name)
    config = SearchConfig(cardinalities=(2, 3, 2), sample_count=25, seed=11)
    schemes = list(search_schemes(kind, channel, config))
    schemes += [_sparse(s, kind) for s in schemes[:8]]
    got = table.terms(_stack(schemes, kind), channel)
    for i, scheme in enumerate(schemes):
        want = SCALAR_TERMS[kind](scheme, channel)
        assert {name: float(col[i]).hex() for name, col in got.items()} == \
            {name: value.hex() for name, value in want.items()}
        if kind == "two_set":
            assert table.scheme_terms(scheme, channel) == want


def _cell(kind, s, prob, w, idx):
    """One joint cell as the product of its factors, left to right."""
    if kind == "one_set":
        q, u, x, t, y, z = idx
        return s.p_q_x2[q, t] * s.p_u_given_q[q, u] * s.p_x1_given_u[u, x] * w[x, t, y, z]
    if kind == "one_set_outer":
        q, u, v, x, t, y, z = idx
        return (s.p_q_x2[q, t] * s.p_u_given_q[q, u] * s.p_v_given_q[q, v]
                * s.p_x1_given_u[u, x] * w[x, t, y, z])
    if kind == "two_set":
        q, u, v, x, t, y, y1, z = idx
        return (s.p_q[q] * s.p_u_given_q[q, u] * s.p_x1_given_u[u, x]
                * s.p_v_given_q[q, v] * s.p_x2_given_v[v, t] * prob[x, t, y, y1, z])
    q, x, t, y, z = idx
    return s.p_q_x2[q, t] * s.p_x1_given_q[q, x] * w[x, t, y, z]


VARIABLES = {
    "one_set": ("Q", "U", "X1", "X2", "Y", "Y2"),
    "one_set_outer": ("Q", "U", "V", "X1", "X2", "Y", "Y2"),
    "two_set": ("Q", "U", "V", "X1", "X2", "Y", "Y1", "Y2"),
    "degraded": ("Q", "X1", "X2", "Y", "Y2"),
}


@pytest.mark.parametrize("kind", sorted(VARIABLES))
def test_each_kind_joint_is_the_per_cell_product(kind):
    channel = fx.random_channel((2, 3, 2, 2, 2), np.random.default_rng(8))
    schemes = list(search_schemes(
        kind, channel, SearchConfig(cardinalities=(2, 3, 2), sample_count=3, seed=2)))
    joint = infotheory.stacked_joint(kind, _stack(schemes, kind), channel)
    assert joint.variables == VARIABLES[kind]
    w = channel.prob.sum(axis=3)
    for n, scheme in enumerate(schemes):
        want = np.empty(joint.prob.shape[1:])
        for idx in np.ndindex(*want.shape):
            want[idx] = _cell(kind, scheme, channel.prob, w, idx)
        assert joint.prob[n].tobytes() == want.tobytes()
        single, variables = scheme_joint(scheme, channel)
        assert variables == VARIABLES[kind]
        assert single.tobytes() == want.tobytes()


def test_stacked_joint_checks_the_channel_inputs(binary_degraded, clean_mac):
    scheme = fx.uniform_two_set_scheme(clean_mac)
    with pytest.raises(infotheory.DimensionMismatch, match=r"scheme inputs \(2, 2\)"):
        infotheory.stacked_joint("two_set", _stack([scheme], "two_set"), binary_degraded)
    outer = _stack([fx.uniform_one_set_outer(clean_mac)], "one_set_outer")
    with pytest.raises(TypeError, match="a one_set joint takes 3 tables, got 4"):
        infotheory.stacked_joint("one_set", outer, clean_mac)


# --- batched region assembly against the per-scheme loop -----------------------------

def reference_region(channel, bound, config, rows):
    """assemble_region as one scheme at a time: a dataclass, its document
    and its terms from the scalar oracle, then its pieces."""
    table = _BOUND_TABLES[bound]
    variant = table.kind
    blocks = optimizer._blocks(variant, channel, config)
    pieces, provenance, visited, dropped = [], [], 0, 0
    for row in rows:
        visited += 1
        scheme = optimizer._build(variant, blocks, optimizer._split(row, blocks))
        doc = scheme_to_dict(scheme)
        values = SCALAR_TERMS[variant](scheme, channel)
        for piece in bound_pieces(table, values):
            if piece_is_empty(piece):
                dropped += 1
                continue
            pieces.append(piece)
            provenance.append(doc)
    info = {"bound": bound, "config": config.to_dict(), "schemes_visited": visited,
            "empty_pieces_dropped": dropped}
    if bound == "degraded":
        certificate = check_stochastically_degraded(channel)
        info["degradedness_verdict"] = certificate.verdict
        info["degradedness_residual"] = certificate.residual
    return convexify(pieces, coords=table.coords, provenance=provenance, info=info)


def assert_same_region(got, want):
    assert got.coords == want.coords
    assert len(got.pieces) == len(want.pieces)
    for g, w in zip(got.pieces, want.pieces):
        assert g.A.shape == w.A.shape and g.A.tobytes() == w.A.tobytes()
        assert g.b.shape == w.b.shape and g.b.tobytes() == w.b.tobytes()
    # json.dumps writes each float's shortest repr, so equal text is equal bits
    assert len(got.provenance) == len(want.provenance)
    for g, w in zip(got.provenance, want.provenance):
        assert json.dumps(g) == json.dumps(w)
    assert json.dumps(got.info) == json.dumps(want.info)
    assert got.hull_points.tobytes() == want.hull_points.tobytes()
    assert np.array_equal(got.hull_sources, want.hull_sources)


def _cells(variant, channel, config):
    blocks = optimizer._blocks(variant, channel, config)
    shapes = [reshape or (rows, cols) for _, rows, cols, reshape in blocks]
    return math.prod(infotheory._joint_shape(variant, shapes, channel))


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("per_block", [None, 3])
def test_batched_assembly_equals_the_per_scheme_loop(monkeypatch, bound, per_block):
    variant = _BOUND_TABLES[bound].kind
    config = SearchConfig(strategy="random", sample_count=5, seed=9,
                          cardinalities=(2, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        for name in TABLE_CHANNELS if per_block is None else ["leaky_wiretap", "random"]:
            channel = _channel(name)
            if per_block is not None:
                # blocks of 3 split the 5 schemes mid-stream
                monkeypatch.setattr(optimizer, "BLOCK_CELLS",
                                    per_block * _cells(variant, channel, config))
            rows = list(optimizer.parameter_rows(variant, channel, config))
            assert_same_region(assemble_region(channel, bound, config),
                               reference_region(channel, bound, config, rows))


@pytest.mark.parametrize("bound", BOUNDS)
def test_batched_grid_assembly_equals_the_per_scheme_loop(monkeypatch, bound):
    variant = _BOUND_TABLES[bound].kind
    channel = fx.leaky_wiretap()
    # 81 schemes, but only 9 for two_set, whose pieces are 5-D
    cards = (1, 1, 1) if variant == "two_set" else (1, 2, 1)
    config = SearchConfig(strategy="grid", cardinalities=cards, grid_resolution=3)
    monkeypatch.setattr(optimizer, "BLOCK_CELLS", 7 * _cells(variant, channel, config))
    rows = list(optimizer.parameter_rows(variant, channel, config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        assert_same_region(assemble_region(channel, bound, config),
                           reference_region(channel, bound, config, rows))


@pytest.mark.parametrize("bound", BOUNDS)
def test_provenance_holds_the_normalized_tables(monkeypatch, bound):
    # raw rows off mass one by 3e-10: the documents must hold the tables
    # as normalized, which differ from the raw rows in their last bits
    variant = _BOUND_TABLES[bound].kind
    channel = _channel("random")
    config = SearchConfig(strategy="random", sample_count=4, seed=3,
                          cardinalities=(2, 2, 2))
    rows = [r * (1 + 3e-10) for r in optimizer.parameter_rows(variant, channel, config)]
    monkeypatch.setattr(optimizer, "parameter_rows", lambda *args: iter(rows))
    got = assemble_region(channel, bound, config)
    want = reference_region(channel, bound, config, rows)
    assert got.provenance
    assert_same_region(got, want)
