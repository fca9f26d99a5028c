import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmacsec import (
    Codebook,
    EnumerationTooLarge,
    InternalError,
    SimReport,
    build_codebook,
    equivocation_joint,
    exact_equivocation,
    exact_error_probability,
    simulate,
    validate_channel,
)
from gmacsec import fixtures as fx
from gmacsec import wiretap_sim
from gmacsec.wiretap_sim import _likelihood_blocks
from references import codeword_figures

UNIFORM_PAIR = ([0.5, 0.5], [0.5, 0.5])


def _repetition_codebook(n=3):
    """Two codewords, all-zeros and all-ones, no binning."""
    words = np.zeros((1, 2, 1, n), dtype=np.int64)
    words[0, 1, 0, :] = 1
    x2 = np.zeros((1, 1, 1, n), dtype=np.int64)
    return Codebook(n=n, M0=1, M1=2, M2=1, J1=1, J2=1,
                    size_x1=2, size_x2=1, x1_words=words, x2_words=x2)


class TestCodebook:
    def test_same_seed_same_codebook(self, binary_degraded):
        a = build_codebook(binary_degraded, 4, 2, 2, 1, 2, 1,
                           ([0.5, 0.5], [1.0]), seed=7)
        b = build_codebook(binary_degraded, 4, 2, 2, 1, 2, 1,
                           ([0.5, 0.5], [1.0]), seed=7)
        assert np.array_equal(a.x1_words, b.x1_words)
        assert np.array_equal(a.x2_words, b.x2_words)

    def test_shapes_and_rates(self, clean_mac):
        book = build_codebook(clean_mac, 4, 2, 4, 2, 3, 1,
                              UNIFORM_PAIR, seed=0)
        assert book.x1_words.shape == (2, 4, 3, 4)
        assert book.x2_words.shape == (2, 2, 1, 4)
        assert book.rates == (0.25, 0.5, 0.25)

    def test_letter_frequencies_follow_the_input_law(self, monkeypatch):
        monkeypatch.setenv("GMAC_MAX_STATES", str(2 ** 80))
        channel = fx.binary_degraded()
        book = build_codebook(channel, 50, 1, 200, 1, 2, 1,
                              ([0.3, 0.7], [1.0]), seed=123)
        freq = book.x1_words.mean()
        assert freq == pytest.approx(0.7, abs=0.02)

    def test_state_guard(self, monkeypatch, binary_degraded):
        monkeypatch.setenv("GMAC_MAX_STATES", "10")
        with pytest.raises(EnumerationTooLarge):
            build_codebook(binary_degraded, 4, 1, 4, 1, 1, 1,
                           ([0.5, 0.5], [1.0]), seed=1)

    def test_input_dist_validation(self, binary_degraded):
        with pytest.raises(ValueError):
            build_codebook(binary_degraded, 2, 1, 2, 1, 1, 1,
                           ([0.5, 0.25, 0.25], [1.0]), seed=1)
        with pytest.raises(ValueError):
            build_codebook(binary_degraded, 2, 1, 2, 1, 1, 1,
                           ([1.5, -0.5], [1.0]), seed=1)
        with pytest.raises(ValueError):
            build_codebook(binary_degraded, 2, 1, 2, 1, 1, 1,
                           ([0.4, 0.4], [1.0]), seed=1)

    def test_nan_input_dist_is_rejected(self, binary_degraded):
        with pytest.raises(ValueError, match="sums to nan"):
            build_codebook(binary_degraded, 2, 1, 2, 1, 1, 1,
                           ([0.5, float("nan")], [1.0]), seed=1)

    def test_size_validation(self, binary_degraded):
        with pytest.raises(ValueError):
            build_codebook(binary_degraded, 0, 1, 2, 1, 1, 1,
                           ([0.5, 0.5], [1.0]), seed=1)
        with pytest.raises(ValueError):
            build_codebook(binary_degraded, 2, 1, 0, 1, 1, 1,
                           ([0.5, 0.5], [1.0]), seed=1)

    @pytest.mark.parametrize("field", ["n", "M0", "M1", "M2", "J1", "J2",
                                       "size_x1", "size_x2"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_counts_must_be_whole_numbers(self, field, value):
        args = dict(n=2, M0=1, M1=2, M2=1, J1=1, J2=1, size_x1=2, size_x2=2,
                    x1_words=np.zeros((1, 2, 1, 2), dtype=np.int64),
                    x2_words=np.zeros((1, 1, 1, 2), dtype=np.int64))
        args[field] = value
        with pytest.raises(ValueError, match="whole number"):
            Codebook(**args)

    def test_integral_floats_are_stored_as_ints(self, binary_degraded):
        book = Codebook(n=2, M0=1, M1=2.0, M2=1, J1=1, J2=1, size_x1=2,
                        size_x2=1, x1_words=[[[[0, 0]], [[1, 1]]]],
                        x2_words=np.zeros((1, 1, 1, 2), dtype=np.int64))
        assert type(book.M1) is int
        assert exact_equivocation(book, binary_degraded) >= 0.0

    def test_letters_must_fit_the_alphabet(self):
        words = np.full((1, 1, 1, 2), 3, dtype=np.int64)
        x2 = np.zeros((1, 1, 1, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            Codebook(n=2, M0=1, M1=1, M2=1, J1=1, J2=1,
                     size_x1=2, size_x2=1, x1_words=words, x2_words=x2)

    @pytest.mark.parametrize("change, message", [
        ({"M1": 0, "x1_words": np.zeros((1, 0, 1, 2), dtype=np.int64)},
         "M1 must be a positive integer"),
        ({"x1_words": np.zeros((1, 2, 1, 3), dtype=np.int64)},
         r"x1_words has shape \(1, 2, 1, 3\), expected \(1, 2, 1, 2\)"),
        ({"x2_words": np.zeros((1, 2, 1, 2), dtype=np.int64)},
         r"x2_words has shape \(1, 2, 1, 2\), expected \(1, 1, 1, 2\)"),
        ({"x2_words": np.full((1, 1, 1, 2), 2, dtype=np.int64)},
         "x2_words contains letters outside the input alphabet"),
    ], ids=["count", "x1_shape", "x2_shape", "x2_letters"])
    def test_malformed_codebooks_are_refused(self, change, message):
        args = dict(n=2, M0=1, M1=2, M2=1, J1=1, J2=1, size_x1=2, size_x2=2,
                    x1_words=np.zeros((1, 2, 1, 2), dtype=np.int64),
                    x2_words=np.zeros((1, 1, 1, 2), dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            Codebook(**{**args, **change})


class TestErrorProbability:
    def test_repetition_code_oracle(self, binary_degraded):
        # majority decoding over a symmetric flip of 0.1:
        # P(error) = 3 * 0.1^2 * 0.9 + 0.1^3 = 0.028
        pe = exact_error_probability(_repetition_codebook(), binary_degraded)
        assert pe == pytest.approx(0.028, abs=1e-12)

    def test_injective_codebook_is_error_free(self, leaky_wiretap):
        words = np.array([[0, 0], [0, 1], [1, 0], [1, 1]],
                         dtype=np.int64).reshape(1, 4, 1, 2)
        x2 = np.zeros((1, 1, 1, 2), dtype=np.int64)
        book = Codebook(n=2, M0=1, M1=4, M2=1, J1=1, J2=1,
                        size_x1=2, size_x2=2, x1_words=words, x2_words=x2)
        assert exact_error_probability(book, leaky_wiretap) == 0.0

    def test_blind_destination_guesses_uniformly(self, blind_destination):
        book = build_codebook(blind_destination, 2, 2, 2, 2, 1, 1,
                              UNIFORM_PAIR, seed=5)
        pe = exact_error_probability(book, blind_destination)
        assert pe == 1.0 - 1.0 / 8.0

    def test_alphabet_mismatch(self, clean_mac, pure_noise_wiretap):
        book = build_codebook(clean_mac, 2, 1, 2, 1, 1, 1,
                              UNIFORM_PAIR, seed=0)
        with pytest.raises(ValueError):
            exact_error_probability(book, pure_noise_wiretap)


class TestEquivocation:
    def test_pure_noise_keeps_the_full_message(self, pure_noise_wiretap):
        book = build_codebook(pure_noise_wiretap, 4, 1, 4, 1, 1, 1,
                              ([0.5, 0.5], [1.0]), seed=2)
        eq = exact_equivocation(book, pure_noise_wiretap, "user2_about_W1")
        assert eq == 0.5

    def test_single_message_has_no_uncertainty(self, binary_degraded):
        book = build_codebook(binary_degraded, 3, 2, 1, 1, 2, 1,
                              ([0.5, 0.5], [1.0]), seed=3)
        assert exact_equivocation(book, binary_degraded, "user2_about_W1") == 0.0

    def test_perfect_observation_kills_the_equivocation(self, leaky_wiretap):
        words = np.array([[0, 0], [0, 1], [1, 0], [1, 1]],
                         dtype=np.int64).reshape(1, 4, 1, 2)
        x2 = np.zeros((1, 1, 1, 2), dtype=np.int64)
        book = Codebook(n=2, M0=1, M1=4, M2=1, J1=1, J2=1,
                        size_x1=2, size_x2=2, x1_words=words, x2_words=x2)
        assert exact_equivocation(book, leaky_wiretap, "user2_about_W1") == 0.0

    def test_output_relabeling_changes_nothing_bitwise(self, binary_degraded):
        flipped = validate_channel(binary_degraded.prob[:, :, :, :, ::-1],
                                   binary_degraded.sizes)
        book = build_codebook(binary_degraded, 4, 1, 2, 1, 2, 1,
                              ([0.5, 0.5], [1.0]), seed=11)
        eq_a = exact_equivocation(book, binary_degraded, "user2_about_W1")
        eq_b = exact_equivocation(book, flipped, "user2_about_W1")
        assert eq_a == eq_b

    def test_degraded_observer_is_more_confused(self, binary_degraded):
        # the destination sees the cleaner output, so conditioning on it
        # leaves at most the uncertainty the downstream observer has
        for seed in range(4):
            book = build_codebook(binary_degraded, 3, 1, 2, 1, 2, 1,
                                  ([0.5, 0.5], [1.0]), seed=seed)
            at_dest = exact_equivocation(book, binary_degraded,
                                         "destination_about_W1")
            at_user2 = exact_equivocation(book, binary_degraded,
                                          "user2_about_W1")
            assert at_dest <= at_user2 + 1e-12

    def test_joint_mass_is_one(self, binary_degraded):
        book = build_codebook(binary_degraded, 3, 2, 2, 1, 2, 1,
                              ([0.5, 0.5], [1.0]), seed=6)
        joint = equivocation_joint(book, binary_degraded, "user2_about_W1")
        assert abs(joint.prob.sum() - 1.0) <= 1e-9
        assert joint.variables == ("W0", "W1", "W2", "X2", "Y2")

    def test_mirror_case_swaps_the_roles(self, clean_mac):
        book = build_codebook(clean_mac, 2, 1, 2, 2, 1, 1,
                              UNIFORM_PAIR, seed=9)
        joint = equivocation_joint(book, clean_mac, "user1_about_W2")
        assert joint.variables == ("W0", "W2", "W1", "X1", "Y1")

    def test_one_message_has_zero_equivocation(self, clean_mac):
        book = build_codebook(clean_mac, 2, 2, 1, 1, 2, 2, UNIFORM_PAIR, seed=3)
        for case in ("user2_about_W1", "user1_about_W2",
                     "destination_about_W1", "destination_about_W2"):
            assert exact_equivocation(book, clean_mac, case).hex() == (0.0).hex()

    def test_alphabet_mismatch(self, clean_mac, pure_noise_wiretap):
        book = build_codebook(clean_mac, 2, 1, 2, 1, 1, 1, UNIFORM_PAIR, seed=0)
        with pytest.raises(ValueError, match="codebook alphabets do not match"):
            equivocation_joint(book, pure_noise_wiretap, "user2_about_W1")

    def test_unknown_case(self, binary_degraded):
        book = build_codebook(binary_degraded, 2, 1, 2, 1, 1, 1,
                              ([0.5, 0.5], [1.0]), seed=0)
        with pytest.raises(ValueError):
            exact_equivocation(book, binary_degraded, "warden_about_W1")

    def test_more_binning_raises_the_equivocation(self):
        channel = fx.binary_degraded(flip_main=0.0, flip_extra=0.1)
        means = []
        for j1 in (1, 2, 4):
            _, agg = simulate(channel, 4, 1, 2, 1, j1, 1,
                              ([0.5, 0.5], [1.0]), seeds=range(20))
            means.append(agg["equivocation_user2"])
        assert means[0] < means[1] < means[2]


class TestSimReport:
    def test_bound_violation_is_an_internal_error(self):
        with pytest.raises(InternalError):
            SimReport(seed=0, error_probability=1.5, equivocation_user2=0.0,
                      equivocation_user1=0.0, rates=(0.0, 1.0, 0.0))
        with pytest.raises(InternalError):
            SimReport(seed=0, error_probability=0.1, equivocation_user2=0.7,
                      equivocation_user1=0.0, rates=(0.0, 0.5, 0.0))

    def test_to_dict_is_json_friendly(self, binary_degraded):
        import json

        reports, agg = simulate(binary_degraded, 2, 1, 2, 1, 1, 1,
                                ([0.5, 0.5], [1.0]), seeds=[0])
        json.dumps([r.to_dict() for r in reports])
        json.dumps(agg)


class TestSimulate:
    def test_aggregate_is_the_mean_of_reports(self, binary_degraded):
        reports, agg = simulate(binary_degraded, 3, 1, 2, 1, 2, 1,
                                ([0.5, 0.5], [1.0]), seeds=[1, 2, 3])
        assert agg["seed_count"] == 3
        assert agg["error_probability"] == pytest.approx(
            np.mean([r.error_probability for r in reports]), abs=1e-15)
        assert agg["equivocation_user2"] == pytest.approx(
            np.mean([r.equivocation_user2 for r in reports]), abs=1e-15)
        assert [r.seed for r in reports] == [1, 2, 3]

    @pytest.mark.parametrize("field", ["n", "M0", "M1", "M2", "J1", "J2", "seed"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_counts_must_be_whole_numbers(self, binary_degraded, field, value):
        args = dict(n=2, M0=1, M1=2, M2=1, J1=1, J2=1, seeds=[0])
        if field == "seed":
            args["seeds"] = [0, value]
        else:
            args[field] = value
        with pytest.raises(ValueError, match="whole number"):
            simulate(binary_degraded, input_dist=([0.5, 0.5], [1.0]), **args)

    def test_negative_seed_rejected(self, binary_degraded):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
            simulate(binary_degraded, 2, 1, 2, 1, 1, 1,
                     ([0.5, 0.5], [1.0]), seeds=[0, -3])
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            build_codebook(binary_degraded, 2, 1, 2, 1, 1, 1,
                           ([0.5, 0.5], [1.0]), seed=-1.0)

    def test_empty_seed_list_rejected(self, binary_degraded):
        with pytest.raises(ValueError):
            simulate(binary_degraded, 2, 1, 2, 1, 1, 1,
                     ([0.5, 0.5], [1.0]), seeds=[])


def _broadcast_likelihoods(first_seqs, second_seqs, kernel):
    """Reference recursion: grow the table one channel use at a time by an
    outer product with that use's letter probabilities."""
    ka, kb, n = first_seqs.shape[0], second_seqs.shape[0], first_seqs.shape[1]
    out = np.ones((ka, kb, 1))
    for t in range(n):
        step = kernel[first_seqs[:, t][:, None], second_seqs[None, :, t], :]
        out = (out[:, :, :, None] * step[:, :, None, :]).reshape(ka, kb, -1)
    return out


@st.composite
def _likelihood_cases(draw):
    ka, kb = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    sx1, sx2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kernel = rng.dirichlet(np.ones(m), size=(sx1, sx2))
    return (rng.integers(0, sx1, size=(ka, n)),
            rng.integers(0, sx2, size=(kb, n)), kernel)


def _blocks(first, second, kernel, block_cells):
    # a block is overwritten by the next one, so keep copies
    with mock.patch.object(wiretap_sim, "BLOCK_CELLS", block_cells):
        return [(start, stop, block.copy()) for start, stop, block
                in _likelihood_blocks(first, second, kernel)]


class TestSequenceLikelihoods:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(_likelihood_cases(),
           st.one_of(st.integers(1, 64), st.integers(1, 1 << 15)))
    def test_matches_the_broadcast_recursion_bitwise(self, case, block_cells):
        # growth is elementwise, so every block size gives the same bits
        first, second, kernel = case
        blocks = _blocks(first, second, kernel, block_cells)
        starts = [start for start, _, _ in blocks]
        stops = [stop for _, stop, _ in blocks]
        assert starts == [0] + stops[:-1]
        assert stops[-1] == kernel.shape[2] ** first.shape[1]
        for start, stop, block in blocks:
            assert block.shape[2] == stop - start
            assert block.shape[2] == 1 or block.size <= block_cells
        got = np.concatenate([block for _, _, block in blocks], axis=2)
        assert np.array_equal(got, _broadcast_likelihoods(first, second, kernel))

    def test_a_table_of_at_most_block_cells_is_one_block(self):
        rng = np.random.default_rng(0)
        first, second = rng.integers(0, 2, size=(3, 5)), rng.integers(0, 2, size=(2, 5))
        kernel = rng.dirichlet(np.ones(3), size=(2, 2))
        cells = 3 * 2 * 3 ** 5
        assert [(start, stop) for start, stop, _ in
                _blocks(first, second, kernel, cells)] == [(0, 3 ** 5)]
        assert [(start, stop) for start, stop, _ in
                _blocks(first, second, kernel, cells - 1)] == [
                    (81 * p, 81 * (p + 1)) for p in range(3)]

    def test_the_blocks_of_one_table_share_two_buffers(self, monkeypatch):
        # 3 x 2 input pairs, ternary outputs, n = 6: 9 blocks of 3^4 sequences
        rng = np.random.default_rng(1)
        first, second = rng.integers(0, 2, size=(3, 6)), rng.integers(0, 2, size=(2, 6))
        kernel = rng.dirichlet(np.ones(3), size=(2, 2))
        monkeypatch.setattr(wiretap_sim, "BLOCK_CELLS", 3 * 2 * 3 ** 4)
        blocks = [block for _, _, block in _likelihood_blocks(first, second, kernel)]
        assert len(blocks) == 9
        memories = []
        for block in blocks:
            if not any(np.shares_memory(block, seen) for seen in memories):
                memories.append(block)
        assert len(memories) <= 2


# float.hex of (error_probability, equivocation_user2, equivocation_user1)
# per seed; each lies within ORACLE_TOL of codeword_figures
PINNED_BINARY_DEGRADED = {
    1: ("0x1.4f3352f411e21p-2", "0x1.04ec44686e086p-2", "0x0.0p+0"),
    2: ("0x1.64cb6e1f9bbb9p-2", "0x1.0c649919355a0p-2", "0x0.0p+0"),
    3: ("0x1.5c1752ca2ac5ep-2", "0x1.01759c8a3fdf6p-2", "0x0.0p+0"),
    4: ("0x1.4ed413a38df3ep-2", "0x1.00163243668d0p-2", "0x0.0p+0"),
    5: ("0x1.5344e0ff9097ep-2", "0x1.05810644437bdp-2", "0x0.0p+0"),
    6: ("0x1.6ba371e1851b0p-2", "0x1.059d5fae05bfap-2", "0x0.0p+0"),
}
PINNED_RANDOM_CHANNEL = {
    1: ("0x1.cde7166a40270p-1", "0x1.949e85c507388p-2", "0x1.fea0f51eb04c0p-3"),
    2: ("0x1.cca80089b0677p-1", "0x1.9381d63de7e18p-2", "0x1.fe78ccbcf4600p-3"),
    3: ("0x1.cc22abf2afd11p-1", "0x1.935657d98f7b8p-2", "0x1.fe487c56de4b8p-3"),
}
# the benchmark's simulate config: n = 16, M1 = 16, J1 = 8
PINNED_BENCHMARK_CONFIG = {
    1: ("0x1.5141438951503p-3", "0x1.fff54ba39a7d0p-4", "0x0.0p+0"),
    2: ("0x1.59839d844065bp-3", "0x1.026390f89f8ecp-3", "0x0.0p+0"),
    3: ("0x1.59b259d0ee20dp-3", "0x1.02918966fdab4p-3", "0x0.0p+0"),
}
# M1 = 1: one message triple, so the decoder misses no mass at all
PINNED_ONE_MESSAGE = {
    1: ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
}
# J1 = J2 = 3: bins of three, ternary destination and user 2 outputs
PINNED_THIRDS = {
    1: ("0x1.b4af8f8aff6dbp-1", "0x1.534f7ba01ca00p-3", "0x1.54a5995f71720p-3"),
    2: ("0x1.b82c775b897e5p-1", "0x1.53bed16fb29ebp-3", "0x1.543fc54d95795p-3"),
    3: ("0x1.b39b7d1ad110bp-1", "0x1.54af528dec715p-3", "0x1.53d81591e0b55p-3"),
}


def _hex_reports(reports):
    return {r.seed: (r.error_probability.hex(), r.equivocation_user2.hex(),
                     r.equivocation_user1.hex()) for r in reports}


class TestPinnedReports:
    def test_binary_degraded_mid_size(self, binary_degraded):
        reports, _ = simulate(binary_degraded, 10, 1, 16, 1, 4, 1,
                              ([0.5, 0.5], [1.0]), seeds=range(1, 7))
        assert _hex_reports(reports) == PINNED_BINARY_DEGRADED

    def test_ternary_outputs_and_both_senders_binned(self):
        channel = fx.random_channel((2, 2, 3, 2, 3), np.random.default_rng(5))
        reports, _ = simulate(channel, 4, 2, 3, 2, 2, 2,
                              ([0.4, 0.6], [0.5, 0.5]), seeds=range(1, 4))
        assert _hex_reports(reports) == PINNED_RANDOM_CHANNEL

    def test_benchmark_config(self, binary_degraded):
        reports, _ = simulate(binary_degraded, 16, 1, 16, 1, 8, 1,
                              ([0.5, 0.5], [1.0]), seeds=range(1, 4))
        assert _hex_reports(reports) == PINNED_BENCHMARK_CONFIG

    def test_one_message_many_bins(self, binary_degraded):
        reports, _ = simulate(binary_degraded, 16, 1, 1, 1, 128, 1,
                              ([0.5, 0.5], [1.0]), seeds=[1])
        assert _hex_reports(reports) == PINNED_ONE_MESSAGE

    def test_bins_of_three(self):
        channel = fx.random_channel((2, 2, 3, 2, 3), np.random.default_rng(5))
        reports, _ = simulate(channel, 6, 2, 2, 2, 3, 3,
                              ([0.4, 0.6], [0.5, 0.5]), seeds=range(1, 4))
        assert _hex_reports(reports) == PINNED_THIRDS


_CASES = ("user2_about_W1", "user1_about_W2",
          "destination_about_W1", "destination_about_W2")

# (channel, (n, M0, M1, M2, J1, J2), input_dist, seeds) of every pinned config;
# the benchmark config keeps one seed, because a forced split is slow there
_PINNED_CONFIGS = {
    "binary_degraded_mid_size": (
        fx.binary_degraded(), (10, 1, 16, 1, 4, 1), ([0.5, 0.5], [1.0]), range(1, 7)),
    "ternary_outputs": (
        fx.random_channel((2, 2, 3, 2, 3), np.random.default_rng(5)),
        (4, 2, 3, 2, 2, 2), ([0.4, 0.6], [0.5, 0.5]), range(1, 4)),
    "benchmark_config": (
        fx.binary_degraded(), (16, 1, 16, 1, 8, 1), ([0.5, 0.5], [1.0]), [1]),
    "one_message_many_bins": (
        fx.binary_degraded(), (16, 1, 1, 1, 128, 1), ([0.5, 0.5], [1.0]), [1]),
    "bins_of_three": (
        fx.random_channel((2, 2, 3, 2, 3), np.random.default_rng(5)),
        (6, 2, 2, 2, 3, 3), ([0.4, 0.6], [0.5, 0.5]), range(1, 4)),
}


_PINS = {
    "binary_degraded_mid_size": PINNED_BINARY_DEGRADED,
    "ternary_outputs": PINNED_RANDOM_CHANNEL,
    "benchmark_config": PINNED_BENCHMARK_CONFIG,
    "one_message_many_bins": PINNED_ONE_MESSAGE,
    "bins_of_three": PINNED_THIRDS,
}

# the codeword-by-codeword oracle sums with math.fsum, so a figure of the
# package may differ from it by a few roundings, no more
ORACLE_TOL = 1e-13


def _small_config(seed):
    """A random small channel and codebook counts: every alphabet 1 to 3
    letters, n 1 to 5, message and bin counts 1 to 3."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(1, 4, size=5))
    channel = fx.random_channel(sizes, rng)
    n = int(rng.integers(1, 6))
    counts = (n,) + tuple(int(c) for c in rng.integers(1, 4, size=5))
    dist = tuple(rng.dirichlet(np.ones(size)).tolist() for size in sizes[:2])
    return channel, counts, dist


class TestCodewordOracle:
    @pytest.mark.parametrize("config", sorted(set(_PINNED_CONFIGS) - {"benchmark_config"}))
    def test_pins_agree_with_the_oracle(self, config):
        channel, counts, dist, seeds = _PINNED_CONFIGS[config]
        for seed in seeds:
            book = build_codebook(channel, *counts, dist, seed)
            pinned = [float.fromhex(h) for h in _PINS[config][seed]]
            assert pinned == pytest.approx(codeword_figures(book, channel),
                                           rel=0, abs=ORACLE_TOL)

    @pytest.mark.parametrize("seed", range(12))
    def test_small_codebooks_agree_with_the_oracle(self, seed):
        channel, counts, dist = _small_config(seed)
        reports, _ = simulate(channel, *counts, dist, seeds=[seed])
        got = (reports[0].error_probability, reports[0].equivocation_user2,
               reports[0].equivocation_user1)
        book = build_codebook(channel, *counts, dist, seed)
        assert got == pytest.approx(codeword_figures(book, channel),
                                    rel=0, abs=ORACLE_TOL)


def _exact_figures(book, channel, block_cells, monkeypatch):
    """Error probability and the four equivocation joints (or the guard's
    message), plus the (start, stop) of every likelihood block they read."""
    blocks = []

    def counted(*args):
        for item in _likelihood_blocks(*args):
            blocks.append(item[:2])
            yield item

    monkeypatch.setattr(wiretap_sim, "BLOCK_CELLS", block_cells)
    monkeypatch.setattr(wiretap_sim, "_likelihood_blocks", counted)
    figures = [exact_error_probability(book, channel).hex()]
    for case in _CASES:
        try:
            figures.append(equivocation_joint(book, channel, case).prob)
        except EnumerationTooLarge as exc:
            figures.append(str(exc))
    return figures, blocks


@pytest.mark.parametrize("config", sorted(_PINNED_CONFIGS))
def test_forced_split_equals_one_block_bitwise(monkeypatch, config):
    # every cell is the same chain of elementwise operations at any block
    # size. Blocks of one output sequence run on the configs with at most
    # 2^10 sequences: a bin sum takes a step per bin and block, so on the
    # 2^16 sequences of the other two they take 10 s and 90 s
    channel, counts, dist, seeds = _PINNED_CONFIGS[config]
    splits = [1 << 10]
    if max(channel.prob.shape[2:]) ** counts[0] <= 1 << 10:
        splits.append(1)
    for seed in seeds:
        book = build_codebook(channel, *counts, dist, seed)
        whole, whole_blocks = _exact_figures(book, channel, 1 << 62, monkeypatch)
        for block_cells in splits:
            split, split_blocks = _exact_figures(book, channel, block_cells, monkeypatch)
            assert len(split_blocks) > len(whole_blocks)
            if block_cells == 1:
                assert {stop - start for start, stop in split_blocks} == {1}
            assert split[0] == whole[0]
            for a, b in zip(split[1:], whole[1:]):
                assert type(a) is type(b)
                assert a == b if isinstance(a, str) else np.array_equal(a, b)


def test_simulate_memory_peak_at_the_benchmark_config(binary_degraded):
    # the whole pairwise table here is 8.4 M cells (64 MiB), so holding it at
    # once breaks the bound; read in blocks, the call peaks near 24 MiB
    tracemalloc.start()
    try:
        simulate(binary_degraded, 16, 1, 16, 1, 8, 1, ([0.5, 0.5], [1.0]), seeds=[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_decoder_partial_table_is_guarded(monkeypatch, clean_mac):
    # 100 sender-1 messages against 4 distinct sender-2 words at n = 2:
    # the triple table has 1,600 states and the pairwise table 256, but
    # the per-w0 partial sum over sender 1's bins holds 100 * 4 * 16
    monkeypatch.setenv("GMAC_MAX_STATES", "2000")
    x1 = np.zeros((1, 100, 1, 2), dtype=np.int64)
    x1[0, :, 0, :] = np.arange(100)[:, None] >> np.array([1, 0]) & 1
    x2 = np.array([[0, 0], [0, 1], [1, 0], [1, 1]],
                  dtype=np.int64).reshape(1, 1, 4, 2)
    book = Codebook(n=2, M0=1, M1=100, M2=1, J1=1, J2=4,
                    size_x1=2, size_x2=2, x1_words=x1, x2_words=x2)
    with pytest.raises(EnumerationTooLarge, match="6400 states"):
        exact_error_probability(book, clean_mac)
