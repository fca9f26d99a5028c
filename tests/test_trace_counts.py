"""The traced benchmark's scheme and dropped-piece counts read true.

perfbench/spans.py wraps every public gmacsec function from outside. It
counts one scheme per item that any public generator yields, and one
dropped piece per empty result of piece_is_empty called through
optimizer's binding. These tests install that tracer around the region
assembly of every bound and around the capacity search, and require its
counts to equal what the runs report: a public block generator, or an
emptiness test made outside optimizer, fails here.
"""

import pathlib
import warnings

import pytest

from gmacsec import BOUNDS, NotDegradedWarning, fixtures as fx
from gmacsec import optimizer
from gmacsec.optimizer import SearchConfig

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tr = spans.Tracer()
    instrumentation = spans.Instrumentation(tr)
    instrumentation.install()
    try:
        yield tr
    finally:
        instrumentation.remove()


@pytest.mark.parametrize("block_cells", [None, 1])
def test_region_counts(monkeypatch, tracer, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(optimizer, "BLOCK_CELLS", block_cells)   # one scheme a block
    config = SearchConfig(strategy="random", sample_count=5, seed=4,
                          cardinalities=(2, 2, 2))
    visited = dropped = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotDegradedWarning)
        for bound in BOUNDS:
            for channel in (fx.leaky_wiretap(), fx.noiseless_wiretapper()):
                info = optimizer.assemble_region(channel, bound, config).info
                visited += info["schemes_visited"]
                dropped += info["empty_pieces_dropped"]
    assert visited == len(BOUNDS) * 2 * 5
    assert dropped > 0
    assert tracer.counts["optimizer.schemes"] == visited
    assert tracer.counts["optimizer.dropped"] == dropped
    assert sum(i["schemes_visited"] for i in tracer.region_infos) == visited


@pytest.mark.parametrize("variant", ["general", "degraded"])
@pytest.mark.parametrize("config", [
    SearchConfig(strategy="random", sample_count=37, seed=2),
    SearchConfig(strategy="random+refine", sample_count=6, refine_iterations=2),
    SearchConfig(strategy="grid", cardinalities=(2, 2, 1), grid_resolution=3),
])
def test_capacity_search_counts(monkeypatch, tracer, variant, config):
    monkeypatch.setattr(optimizer, "BLOCK_CELLS", 64)   # several blocks
    channel = fx.binary_degraded()
    kind = "one_set" if variant == "general" else "degraded"
    schemes = sum(1 for _ in optimizer._grid_rows(
        optimizer._blocks(kind, channel, config), config)) \
        if config.strategy == "grid" else config.sample_count
    optimizer.maximize_secrecy_capacity(channel, 0.0, config, variant)
    assert tracer.counts["optimizer.schemes"] == schemes
