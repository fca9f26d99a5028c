"""A block of schemes filled in at once gives each scheme the pieces that
bound_pieces gives it alone, byte for byte.

regions._block_pieces fills in a block's bounds as term columns and runs
one vertex pass per sub-block of schemes; bound_pieces is its call for one
scheme, which the other test files hold to the references. Here the block
path is held to the one-scheme path on random schemes of every fixture,
for every table, at several block and sub-block sizes, with the schemes
that a guard drops and the empty pieces included.
"""

import warnings

import numpy as np
import pytest

from gmacsec import NotDegradedWarning, VertexEnumerationOverflow, fixtures as fx
from gmacsec import one_set, optimizer, regions, two_set
from gmacsec.optimizer import SearchConfig, assemble_region
from gmacsec.regions import _block_pieces, bound_pieces

TABLES = {**optimizer._BOUND_TABLES,
          "degraded-secrecy": one_set.DEGRADED_SECRECY,
          "mac": two_set.MAC,
          "equivocation": two_set.EQUIVOCATION,
          "secrecy-two-set": two_set.SECRECY}
CHANNELS = sorted(fx.FIXTURE_BUILDERS) + ["W2"]
SIZES = (1, 2, 7, None)                       # None: the whole block at once


def _channel(name):
    if name == "W2":
        return fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(1))
    return fx.FIXTURE_BUILDERS[name]()


def _columns(table, channel, count, seed):
    """The term columns of count random schemes of the table's kind; the
    rates that EQUIVOCATION reads as terms are drawn too, a few exactly 0."""
    config = SearchConfig(strategy="random", sample_count=count, seed=seed,
                          cardinalities=(2, 2, 2))
    parts = [table.terms(tables, channel)
             for _, tables in optimizer._row_blocks(table.kind, channel, config)]
    columns = {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}
    rng = np.random.default_rng(seed)
    for name in table._names:
        if name not in columns:
            rate = rng.random(count) * 0.6
            rate[rng.random(count) < 0.2] = 0.0
            columns[name] = rate
    return columns


def _one_scheme(table, columns, i):
    return bound_pieces(table, {name: float(col[i]) for name, col in columns.items()})


def _by_block(table, columns, count, size):
    """_block_pieces over consecutive blocks of size schemes."""
    size = size or count
    got = []
    for start in range(0, count, size):
        block = {name: col[start:start + size] for name, col in columns.items()}
        got.extend(_block_pieces(table, block, min(size, count - start)))
    return got


def _piece_bytes(pieces):
    return [(type(p), p.coords, p.A.shape, p.A.tobytes(), p.b.tobytes(),
             p.vertices.shape, p.vertices.tobytes()) for p in pieces]


def _passes(monkeypatch):
    """Record (index, bound sets) of every vertex pass."""
    calls, solve = [], regions._SubsystemIndex._solve

    def spy(index, bounds):
        calls.append((index, bounds.shape[0]))
        return solve(index, bounds)

    monkeypatch.setattr(regions._SubsystemIndex, "_solve", spy)
    return calls


@pytest.mark.parametrize("channel_name", CHANNELS)
@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_block_pieces_equal_the_one_scheme_pieces(table_name, channel_name, monkeypatch):
    table, channel = TABLES[table_name], _channel(channel_name)
    # a TWO_SET scheme holds a whole pass, so fewer of them show the same
    count = 4 if table is two_set.TWO_SET else 16
    columns = _columns(table, channel, count, seed=len(channel_name))
    want = [_piece_bytes(_one_scheme(table, columns, i)) for i in range(count)]
    for size in SIZES:
        assert [_piece_bytes(p) for p in _by_block(table, columns, count, size)] == want
    # and one call whose passes hold 1, 2 or 7 schemes each
    n = table._subsystem_index.rows.shape[0]
    for per in SIZES[:-1]:
        monkeypatch.setattr(regions, "_PASS_SOLUTIONS", per * n)
        assert [_piece_bytes(p) for p in _block_pieces(table, columns, count)] == want


@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_a_stack_solves_each_bound_set_with_its_own_bits(table_name):
    # bounds of mixed scales, where einsum's bits depend on the operands'
    # layout: every solution of a stack, kept or not, and every violated
    # bit equal those of one bound set's contraction over the index
    table = TABLES[table_name]
    index, count = table._subsystem_index, 9
    rng = np.random.default_rng(5)
    bounds = (rng.random((count, len(table.rules)))
              * rng.choice([1e-3, 1.0, 10.0], size=(count, len(table.rules))))
    sols, violated = index._solve(bounds)
    n = index.rows.shape[0]
    for s in range(count):
        b = np.append(bounds[s], 0.0)[index.rule]
        want = np.einsum("nij,nj->ni", index.inverses, b[index.rows])
        want[index.zero] = 0.0
        assert sols[s * n:(s + 1) * n].tobytes() == want.tobytes()
        outside = regions._row_bits(want @ index.A.T > b + 1e-9)
        assert violated[s].tobytes() == outside.tobytes()


@pytest.mark.parametrize("table_name", ["inner-one-set", "secrecy-two-set", "equivocation"])
def test_repeated_schemes_keep_their_own_vertices(table_name):
    # each scheme twice in a row: every solution of one copy rounds like
    # the other's, and each copy still keeps its own vertices
    table = TABLES[table_name]
    columns = _columns(table, _channel("W2"), 6, seed=2)
    want = [_piece_bytes(_one_scheme(table, columns, i)) for i in range(6)]
    twice = {name: np.repeat(col, 2) for name, col in columns.items()}
    got = [_piece_bytes(p) for p in _block_pieces(table, twice, 12)]
    assert got == [w for w in want for _ in range(2)]
    assert any(piece[5][0] for pieces in want for piece in pieces)


def test_blocks_include_dropped_schemes_and_empty_pieces():
    # the cases above cover both: a guard drops schemes of the guarded
    # tables on some fixture, and some scheme keeps an empty piece
    dropped = empty = 0
    for table in (one_set.SECRECY, one_set.DEGRADED_SECRECY, two_set.TWO_SET):
        for name in CHANNELS:
            channel = _channel(name)
            count = 4 if table is two_set.TWO_SET else 16
            block = _block_pieces(table, _columns(table, channel, count, len(name)), count)
            dropped += sum(not pieces for pieces in block)
            empty += sum(p.vertices.shape[0] == 0 for pieces in block for p in pieces)
    assert dropped > 0 and empty > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_a_non_finite_term_raises_what_bound_pieces_raises(table_name, bad):
    table = TABLES[table_name]
    count = 6
    columns = _columns(table, fx.leaky_wiretap(), count, seed=3)
    names = table._names
    for k, name in enumerate(names):
        spoilt = {key: col.copy() for key, col in columns.items()}
        spoilt[name][2] = bad
        # a later scheme's bad term, and a later name of the same scheme,
        # are not the first the one-scheme loop would meet
        spoilt[names[(k + 1) % len(names)]][4] = np.nan
        if k + 1 < len(names):
            spoilt[names[k + 1]][2] = -np.inf
        with pytest.raises(ValueError) as alone:
            _one_scheme(table, spoilt, 2)
        with pytest.raises(ValueError) as together:
            _block_pieces(table, spoilt, count)
        assert f"term {name!r}" in str(alone.value)
        assert str(together.value) == str(alone.value)


def test_an_overflow_names_the_first_scheme_that_has_one(monkeypatch):
    # the most vertices of a piece are 4, 8 or 10 among these schemes
    table = two_set.SECRECY
    count = 24
    columns = _columns(table, _channel("W2"), count, seed=11)
    most = [max(p.vertices.shape[0] for p in _one_scheme(table, columns, i))
            for i in range(count)]
    ceiling = min(most)                        # some schemes, not all, exceed it
    monkeypatch.setattr(regions, "VERTEX_CEILING", ceiling)
    first = next(i for i in range(count) if most[i] > ceiling)
    assert most[first] < max(most)             # a later scheme has more
    with pytest.raises(VertexEnumerationOverflow) as alone:
        _one_scheme(table, columns, first)
    with pytest.raises(VertexEnumerationOverflow) as together:
        _block_pieces(table, columns, count)
    assert str(together.value) == str(alone.value)


def test_passes_hold_at_most_one_two_set_scheme(monkeypatch):
    # the cap is the solution count of one TWO_SET scheme's pass
    assert regions._PASS_SOLUTIONS == two_set.TWO_SET._subsystem_index.rows.shape[0]
    calls = _passes(monkeypatch)
    channel = fx.random_channel((2, 2, 3, 2, 2), np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        for bound, table in optimizer._BOUND_TABLES.items():
            config = SearchConfig(sample_count=12 if bound == "two-set" else 200)
            calls.clear()
            info = assemble_region(channel, bound, config).info
            sets = [count for index, count in calls]
            assert all(index is table._subsystem_index for index, _ in calls)
            n = table._subsystem_index.rows.shape[0]
            assert all(count * n <= regions._PASS_SOLUTIONS for count in sets)
            if table is two_set.TWO_SET:
                assert sets == [1] * info["schemes_visited"]
            else:
                # a small table's schemes share passes
                assert max(sets) > 1 and len(sets) < info["schemes_visited"]
