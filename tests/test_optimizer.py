import itertools

import numpy as np
import pytest

from gmacsec import (
    GridTooLarge,
    SearchConfig,
    SchemeDegraded,
    assemble_region,
    full_cardinalities,
    maximize_secrecy_capacity,
    refine_local,
    region_support,
    scheme_to_dict,
    secrecy_capacity_value,
)
from gmacsec import one_set, optimizer
from gmacsec.one_set import DEGRADED_SECRECY
from gmacsec.regions import BoundTable

from conftest import binary_entropy
from references import search_schemes


def _params(scheme):
    doc = scheme_to_dict(scheme)
    return tuple(
        float(v)
        for key in sorted(doc)
        if key != "kind"
        for v in np.asarray(doc[key]).ravel()
    )


class TestSearchConfig:
    def test_defaults_roundtrip(self):
        config = SearchConfig()
        assert SearchConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(cardinalities=(0, 1, 1))
        with pytest.raises(ValueError):
            SearchConfig(cardinalities=(1, 1))
        with pytest.raises(ValueError, match="cardinalities"):
            SearchConfig(cardinalities=5)
        with pytest.raises(ValueError):
            SearchConfig(strategy="annealing")
        with pytest.raises(ValueError):
            SearchConfig(grid_resolution=1)
        with pytest.raises(ValueError):
            SearchConfig(sample_count=0)
        with pytest.raises(ValueError):
            SearchConfig(refine_step=0.0)
        with pytest.raises(ValueError, match="refine_iterations must be nonnegative"):
            SearchConfig(refine_iterations=-1)

    @pytest.mark.parametrize("strategy", ["grid", "random", "random+refine"])
    def test_negative_seed_rejected(self, strategy):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            SearchConfig(strategy=strategy, seed=-1)
        assert SearchConfig(strategy=strategy, seed=0).seed == 0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig.from_dict({"strategy": "grid", "temperature": 1.0})


class TestFullCardinalities:
    def test_general_formula(self, clean_mac):
        assert full_cardinalities(clean_mac) == (7, 35, 35)

    def test_degraded_formula(self, clean_mac, binary_degraded):
        assert full_cardinalities(clean_mac, degraded=True) == (5, 1, 1)
        assert full_cardinalities(binary_degraded, degraded=True) == (3, 1, 1)


class TestGridEnumeration:
    def test_scheme_count_matches_the_product_of_row_grids(self, clean_mac):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="grid",
                              grid_resolution=3)
        schemes = list(search_schemes("one_set", clean_mac, config))
        # rows: one (q, x2) simplex of size 2 (3 points), one U row (3),
        # two X1 rows (3 each)
        assert len(schemes) == 3 * 3 * 3 * 3

    def test_rows_live_on_the_stated_grid(self, clean_mac):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="grid",
                              grid_resolution=5)
        for scheme in search_schemes("one_set", clean_mac, config):
            snapped = np.round(np.asarray(scheme.p_u_given_q) * 4) / 4
            assert np.allclose(snapped, scheme.p_u_given_q, atol=1e-12)

    def test_enumeration_is_deterministic(self, clean_mac):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="grid",
                              grid_resolution=3)
        first = [_params(s) for s in
                 search_schemes("one_set", clean_mac, config)]
        second = [_params(s) for s in
                  search_schemes("one_set", clean_mac, config)]
        assert first == second

    def test_budget_guard(self, clean_mac, monkeypatch):
        def no_index(*args, **kwargs):
            raise AssertionError("grid indices built past the budget")

        monkeypatch.setattr(np, "unravel_index", no_index)
        config = SearchConfig(cardinalities=(4, 20, 1), strategy="grid",
                              grid_resolution=6)
        with pytest.raises(GridTooLarge):
            list(search_schemes("one_set", clean_mac, config))

    # (variant, cardinalities, resolution): 1-column grids, resolution 2,
    # several simplex rows per block, and the 1,875-scheme capacity grid
    LAYOUTS = [("one_set", (1, 3, 1), 5), ("one_set", (2, 2, 1), 3),
               ("degraded", (2, 2, 2), 2), ("two_set", (1, 1, 2), 2),
               ("one_set_outer", (2, 2, 2), 2)]

    @pytest.mark.parametrize("variant,cards,resolution", LAYOUTS)
    def test_rows_equal_the_product_of_row_grids_bitwise(self, binary_degraded,
                                                          monkeypatch, variant, cards,
                                                          resolution):
        config = SearchConfig(cardinalities=cards, strategy="grid",
                              grid_resolution=resolution)
        blocks = optimizer._blocks(variant, binary_degraded, config)
        row_grids = [optimizer._simplex_grid(cols, resolution)
                     for _, rows, cols, _ in blocks for _ in range(rows)]
        want = [np.concatenate(combo) for combo in itertools.product(*row_grids)]
        # one chunk, then chunks that end inside the stream and at its end
        for chunk in (optimizer._GRID_CHUNK, 7, len(want), 1):
            monkeypatch.setattr(optimizer, "_GRID_CHUNK", chunk)
            got = list(optimizer.parameter_rows(variant, binary_degraded, config))
            assert len(got) == len(want)
            assert all(g.shape == w.shape and g.tobytes() == w.tobytes()
                       for g, w in zip(got, want))

    def test_unknown_variant(self, clean_mac):
        with pytest.raises(ValueError):
            list(search_schemes("three_set", clean_mac, SearchConfig()))


class TestRandomSampling:
    def test_same_seed_reproduces_bitwise(self, clean_mac):
        config = SearchConfig(seed=99, sample_count=5)
        first = [_params(s) for s in
                 search_schemes("one_set", clean_mac, config)]
        second = [_params(s) for s in
                  search_schemes("one_set", clean_mac, config)]
        assert first == second

    def test_different_seeds_differ(self, clean_mac):
        a = next(iter(search_schemes(
            "one_set", clean_mac, SearchConfig(seed=1))))
        b = next(iter(search_schemes(
            "one_set", clean_mac, SearchConfig(seed=2))))
        assert _params(a) != _params(b)

    def test_sample_count(self, clean_mac):
        config = SearchConfig(sample_count=3)
        got = list(search_schemes("one_set", clean_mac, config))
        assert len(got) == 3

    @pytest.mark.parametrize("variant", ["one_set", "one_set_outer", "degraded", "two_set"])
    @pytest.mark.parametrize("cards", [(2, 3, 2), (1, 1, 3), (3, 2, 1)])
    def test_rows_are_the_dirichlet_draws_bitwise(self, binary_degraded, monkeypatch,
                                                 variant, cards):
        # the reference: one Generator.dirichlet call per block per scheme
        config = SearchConfig(seed=31, sample_count=11, cardinalities=cards)
        blocks = optimizer._blocks(variant, binary_degraded, config)
        rng = np.random.default_rng(config.seed)
        want = [np.concatenate([rng.dirichlet(np.ones(cols), size=rows).ravel()
                                for name, rows, cols, shape in blocks])
                for _ in range(config.sample_count)]
        # chunks of 4 schemes: 4 + 4 + 3 draws from one stream
        monkeypatch.setattr(optimizer, "_GRID_CHUNK", 4)
        got = list(optimizer.parameter_rows(variant, binary_degraded, config))
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want]


class TestRefinement:
    def test_climbs_from_a_skewed_start(self, binary_degraded):
        config = SearchConfig(cardinalities=(1, 1, 1), refine_iterations=60,
                              refine_step=0.25)
        start = SchemeDegraded(p_q_x2=[[1.0]], p_x1_given_q=[[0.95, 0.05]])

        def score(s):
            return secrecy_capacity_value(DEGRADED_SECRECY, s, binary_degraded, 0.0)

        start_value = score(start)
        best_value, best = refine_local(score, start, "degraded",
                                        binary_degraded, config)
        flip = 0.1 * 0.9 + 0.9 * 0.1
        target = binary_entropy(flip) - binary_entropy(0.1)
        assert best_value >= start_value
        assert best_value == pytest.approx(target, abs=0.01)
        assert np.allclose(best.p_x1_given_q, [[0.5, 0.5]], atol=0.05)

    def test_never_degrades_the_start(self, binary_degraded):
        config = SearchConfig(cardinalities=(1, 1, 1), refine_iterations=3)
        start = SchemeDegraded(p_q_x2=[[1.0]], p_x1_given_q=[[0.5, 0.5]])

        def score(s):
            return secrecy_capacity_value(DEGRADED_SECRECY, s, binary_degraded, 0.0)

        best_value, _ = refine_local(score, start, "degraded",
                                     binary_degraded, config)
        assert best_value >= score(start)

    @pytest.mark.parametrize("row, want", [
        ([0.5, -0.1, 1.5], [0.25, 0.0, 0.75]),
        ([-0.25, 0.0, -0.5], [1.0 / 3] * 3),    # no positive entry: uniform
        ([0.0], [1.0]),
    ])
    def test_a_nudged_row_projects_onto_the_simplex(self, row, want):
        assert optimizer._project_row(np.array(row)).tolist() == want


class TestMaximize:
    def test_clean_access_reaches_one_bit(self, clean_mac):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="grid",
                              grid_resolution=3)
        value, scheme = maximize_secrecy_capacity(clean_mac, 0.0, config)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert scheme.p_u_given_q.shape[1] == 2

    def test_degraded_variant_hits_the_closed_form(self, binary_degraded):
        config = SearchConfig(cardinalities=(2, 1, 1), strategy="grid",
                              grid_resolution=3)
        value, _ = maximize_secrecy_capacity(binary_degraded, 0.0, config,
                                             variant="degraded")
        flip = 0.1 * 0.9 + 0.9 * 0.1
        target = binary_entropy(flip) - binary_entropy(0.1)
        assert value == pytest.approx(target, abs=1e-12)

    def test_winner_is_stable_across_runs(self, clean_mac):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="grid",
                              grid_resolution=3)
        value_a, scheme_a = maximize_secrecy_capacity(clean_mac, 0.0, config)
        value_b, scheme_b = maximize_secrecy_capacity(clean_mac, 0.0, config)
        assert value_a == value_b
        assert _params(scheme_a) == _params(scheme_b)

    def test_refine_strategy_only_improves(self, binary_degraded):
        base = SearchConfig(cardinalities=(1, 1, 1), strategy="random",
                            sample_count=10, seed=4)
        refined = SearchConfig(cardinalities=(1, 1, 1),
                               strategy="random+refine", sample_count=10,
                               seed=4, refine_iterations=25)
        plain_value, _ = maximize_secrecy_capacity(
            binary_degraded, 0.0, base, variant="degraded")
        refined_value, _ = maximize_secrecy_capacity(
            binary_degraded, 0.0, refined, variant="degraded")
        assert refined_value >= plain_value - 1e-12

    def test_common_rate_lowers_the_value(self, clean_mac):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="grid",
                              grid_resolution=3)
        at_zero, _ = maximize_secrecy_capacity(clean_mac, 0.0, config)
        crowded, _ = maximize_secrecy_capacity(clean_mac, 1.8, config)
        assert crowded <= at_zero + 1e-12
        assert crowded == pytest.approx(0.2, abs=1e-9)

    def test_unknown_variant_rejected(self, clean_mac):
        with pytest.raises(ValueError):
            maximize_secrecy_capacity(clean_mac, 0.0, variant="hybrid")


class TestAssembleRegion:
    def test_secrecy_region_of_the_clean_channel(self, clean_mac):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="grid",
                              grid_resolution=3)
        region = assemble_region(clean_mac, "secrecy-one-set", config)
        assert region.coords == ("R0", "R1")
        assert region_support(region, (0.0, 1.0)) == pytest.approx(1.0, abs=1e-9)
        assert region_support(region, (1.0, 0.0)) == pytest.approx(2.0, abs=1e-9)

    def test_provenance_aligns_with_pieces(self, clean_mac):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="random",
                              sample_count=6, seed=11)
        region = assemble_region(clean_mac, "inner-one-set", config)
        assert region.provenance is not None
        assert len(region.provenance) == len(region.pieces)
        assert all(doc["kind"] == "one_set" for doc in region.provenance)
        assert region.info["bound"] == "inner-one-set"
        assert region.info["schemes_visited"] == 6

    def test_empty_pieces_are_counted_not_kept(self, noiseless_wiretapper):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="random",
                              sample_count=8, seed=5)
        region = assemble_region(noiseless_wiretapper, "outer-one-set",
                                 config)
        dropped = region.info["empty_pieces_dropped"]
        assert dropped > 0
        assert len(region.pieces) + dropped == 8

    def test_leaking_secrecy_schemes_are_counted_as_empty(self, noiseless_wiretapper):
        # 6 of the 27 grid schemes leak (a < d): each one's piece is empty,
        # and the region counts it
        config = SearchConfig(strategy="grid", cardinalities=(1, 2, 1))
        region = assemble_region(noiseless_wiretapper, "secrecy-one-set", config)
        assert region.info["schemes_visited"] == 27
        assert region.info["empty_pieces_dropped"] == 6
        assert len(region.pieces) == 21

    def test_secrecy_ties_keep_their_pieces(self, identity_copy):
        # the destination and user 2 see the same flip law, so a = d for
        # every scheme, and a - d rounds below zero for some: each piece
        # still holds the segment R1 = 0, 0 <= R0 <= b - d, and only it
        config = SearchConfig()
        region = assemble_region(identity_copy, "secrecy-one-set", config)
        assert len(region.pieces) == 200
        assert region.info["empty_pieces_dropped"] == 0
        gaps = [t["a"] - t["d"] for t in (one_set.SECRECY.scheme_terms(s, identity_copy)
                                           for s in search_schemes("one_set", identity_copy,
                                                                   config))]
        assert sum(gap < 0.0 for gap in gaps) == 25
        assert max(abs(gap) for gap in gaps) < 1e-15
        assert all(not p.vertices[:, 1].any() for p in region.pieces)

    def test_fresh_table_runs_are_bitwise_equal(self, clean_mac, monkeypatch):
        config = SearchConfig(cardinalities=(1, 2, 1), strategy="random",
                              sample_count=6, seed=21)
        # SECRECY built anew: its first run finds the subsystems, its second
        # reads them, and the shared table's run reads its own
        fresh = BoundTable(one_set.COORDS_SECRECY, "one_set", one_set._TERMS,
                           [one_set._SECRECY_ROWS])
        monkeypatch.setitem(optimizer._BOUND_TABLES, "secrecy-one-set", fresh)
        runs = [assemble_region(clean_mac, "secrecy-one-set", config) for _ in range(2)]
        monkeypatch.undo()
        runs.append(assemble_region(clean_mac, "secrecy-one-set", config))
        first = runs[0]
        for other in runs[1:]:
            assert first.hull_points.tobytes() == other.hull_points.tobytes()
            assert first.provenance == other.provenance
            assert [p.vertices.tobytes() for p in first.pieces] == \
                [p.vertices.tobytes() for p in other.pieces]

    def test_degraded_bound_records_the_certificate(self, binary_degraded):
        config = SearchConfig(cardinalities=(1, 1, 1), strategy="random",
                              sample_count=2, seed=3)
        region = assemble_region(binary_degraded, "degraded", config)
        assert region.info["degradedness_verdict"] == "stochastically-degraded"
        assert region.info["degradedness_residual"] <= 1e-7

    def test_unknown_bound_rejected(self, clean_mac):
        with pytest.raises(ValueError):
            assemble_region(clean_mac, "union-bound")
