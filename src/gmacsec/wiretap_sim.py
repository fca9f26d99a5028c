"""Exact small-blocklength simulation of random-binning codes.

Everything here is brute force on purpose. Codebooks live at blocklengths
small enough that every output sequence can be enumerated, so error
probability and equivocation come out exact rather than sampled. The
payoff is that tests can pin these numbers to closed-form values with zero
statistical slack. The table of output-sequence likelihoods for every pair
of input sequences is the largest object; it is built and read in blocks
of at most BLOCK_CELLS cells, so only the decoder's sums and the
equivocation joint are ever held whole.

Each figure is a run of elementwise IEEE operations per output sequence in
a fixed order: a bin's likelihood adds its codewords' likelihoods in bin
index order, and the message and bin counts divide once at the end. No bit
depends on the block size, and nothing here calls BLAS, whose summation
order may follow the shape of a call, its build or its threads.

Each sender encodes a common message w0 and a private message (w1 or w2)
plus a uniform dummy index (j1 or j2). The dummy index fans each message
out over a bin of codewords, which is what lets a code trade rate for
confusion at the other user's receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, marginal_kernel
from .errors import EnumerationTooLarge, InternalError, max_states, whole_number
from .infotheory import JointStack, stacked_entropy


@dataclass(frozen=True)
class Codebook:
    """A concrete pair of binning codebooks at blocklength n.

    x1_words maps (w0, w1, j1) to a length-n input sequence for sender 1,
    x2_words maps (w0, w2, j2) likewise for sender 2. Letters are symbol
    indices. Messages and dummy indices are uniform and independent by
    construction; the arrays carry the realized draws, so two codebooks
    built from the same seed are identical.
    """

    n: int
    M0: int
    M1: int
    M2: int
    J1: int
    J2: int
    size_x1: int
    size_x2: int
    x1_words: np.ndarray
    x2_words: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        for name in ("n", "M0", "M1", "M2", "J1", "J2", "size_x1", "size_x2"):
            value = whole_number(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, value)
        x1 = np.ascontiguousarray(np.asarray(self.x1_words, dtype=np.int64))
        x2 = np.ascontiguousarray(np.asarray(self.x2_words, dtype=np.int64))
        if x1.shape != (self.M0, self.M1, self.J1, self.n):
            raise ValueError(
                f"x1_words has shape {x1.shape}, expected "
                f"{(self.M0, self.M1, self.J1, self.n)}"
            )
        if x2.shape != (self.M0, self.M2, self.J2, self.n):
            raise ValueError(
                f"x2_words has shape {x2.shape}, expected "
                f"{(self.M0, self.M2, self.J2, self.n)}"
            )
        if x1.size and (x1.min() < 0 or x1.max() >= self.size_x1):
            raise ValueError("x1_words contains letters outside the input alphabet")
        if x2.size and (x2.min() < 0 or x2.max() >= self.size_x2):
            raise ValueError("x2_words contains letters outside the input alphabet")
        x1.setflags(write=False)
        x2.setflags(write=False)
        object.__setattr__(self, "x1_words", x1)
        object.__setattr__(self, "x2_words", x2)

    @property
    def rates(self) -> tuple[float, float, float]:
        """(R0, R1, R2) in bits per channel use."""
        return (
            math.log2(self.M0) / self.n,
            math.log2(self.M1) / self.n,
            math.log2(self.M2) / self.n,
        )


@dataclass(frozen=True)
class SimReport:
    """Exact performance numbers for one codebook draw."""

    seed: int
    error_probability: float
    equivocation_user2: float
    equivocation_user1: float
    rates: tuple[float, float, float]

    def __post_init__(self):
        r0, r1, r2 = self.rates
        ok = (
            -1e-12 <= self.error_probability <= 1 + 1e-12
            and -1e-12 <= self.equivocation_user2 <= r1 + 1e-9
            and -1e-12 <= self.equivocation_user1 <= r2 + 1e-9
        )
        if not ok:
            raise InternalError(
                "simulation report violates its own bounds: "
                f"pe={self.error_probability}, eq2={self.equivocation_user2}, "
                f"eq1={self.equivocation_user1}, rates={self.rates}"
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "error_probability": self.error_probability,
            "equivocation_user2": self.equivocation_user2,
            "equivocation_user1": self.equivocation_user1,
            "rates": list(self.rates),
        }


def _check_input_dist(dist, size: int, who: str) -> np.ndarray:
    try:
        p = np.asarray(dist, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"input_dist for {who} must be a list of numbers, "
                         f"got {dist!r}") from exc
    if p.shape != (size,):
        raise ValueError(f"{who} letter distribution must have length {size}")
    if np.any(p < -1e-12):
        raise ValueError(f"{who} letter distribution has negative entries")
    s = p.sum()
    if not abs(s - 1.0) <= 1e-9:   # NaN fails too
        raise ValueError(f"{who} letter distribution sums to {s}, not 1")
    return np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum()


def _guard(total: int, what: str) -> None:
    limit = max_states()
    if total > limit:
        raise EnumerationTooLarge(
            f"{what} needs {total} states, above the guard of {limit}"
        )


def build_codebook(channel: ChannelSpec, n: int, M0: int, M1: int, M2: int,
                   J1: int, J2: int, input_dist, seed: int) -> Codebook:
    """Draw one random binning codebook, all letters i.i.d. per user.

    input_dist is a pair of per-letter distributions, one over sender 1's
    alphabet and one over sender 2's. Sender 1's words are drawn first,
    then sender 2's, from a single generator seeded with seed, so the whole
    codebook is a pure function of its arguments. Counts and seed must be
    whole numbers, and seed nonnegative.
    """
    n, M0, M1, M2, J1, J2, seed = (
        whole_number(name, value) for name, value in zip(
            ("n", "M0", "M1", "M2", "J1", "J2", "seed"), (n, M0, M1, M2, J1, J2, seed)))
    if n < 1:
        raise ValueError("blocklength n must be at least 1")
    if min(M0, M1, M2, J1, J2) < 1:
        raise ValueError("message and bin counts must be positive integers")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    total = (channel.size_x1 ** n) * (channel.size_x2 ** n) * M0 * M1 * M2 * J1 * J2
    _guard(total, "codebook enumeration")
    p1, p2 = input_dist
    p1 = _check_input_dist(p1, channel.size_x1, "sender 1")
    p2 = _check_input_dist(p2, channel.size_x2, "sender 2")
    rng = np.random.default_rng(seed)
    x1 = rng.choice(channel.size_x1, size=(M0, M1, J1, n), p=p1)
    x2 = rng.choice(channel.size_x2, size=(M0, M2, J2, n), p=p2)
    return Codebook(
        n=n, M0=M0, M1=M1, M2=M2, J1=J1, J2=J2,
        size_x1=channel.size_x1, size_x2=channel.size_x2,
        x1_words=x1, x2_words=x2, seed=seed,
    )


def _slots(words: np.ndarray):
    """Distinct sequences across a word array, each word's slot among
    them, and per-(w0, w) bin counts.

    Returns (sequences, slots, counts): sequences is (k, n), slots is
    (M0, Mw, J) with words[w0, w, j] == sequences[slots[w0, w, j]], and
    counts is (M0, Mw, k) with counts[w0, w] summing to the bin size.
    """
    m0, mw, j, n = words.shape
    seqs, inverse = np.unique(words.reshape(-1, n), axis=0, return_inverse=True)
    k = seqs.shape[0]
    slots = inverse.reshape(m0, mw, j)
    # one bincount: row r = (w0, w) owns the slots r*k .. r*k + k - 1
    rows = slots.reshape(m0 * mw, j) + k * np.arange(m0 * mw)[:, None]
    counts = np.bincount(rows.ravel(), minlength=m0 * mw * k)
    return seqs, slots, counts.reshape(m0, mw, k)


# Cells per likelihood block; a block of 2^17 float64 cells is 1 MiB, so
# the two growth buffers fit a 2 MiB L2 cache. Every cell of every figure
# is the same run of elementwise operations at any block size, so the size
# is a cache choice only and moves no bit.
BLOCK_CELLS = 1 << 17


def _bin_sums(table: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """table[bins[0]] + table[bins[1]] + ..., added in bin order.

    table is indexed along its first axis and bins[j] holds the rows of
    bin index j, so the result has shape bins.shape[1:] + table.shape[1:].
    Each term is added elementwise, so every cell is the same chain of
    IEEE additions whatever the shape of table.
    """
    total = table.take(bins[0], axis=0)
    for rows in bins[1:]:
        total += table.take(rows, axis=0)
    return total


def _grow(prefix: np.ndarray, steps, buffers) -> np.ndarray:
    """Extend a (ka, kb, w) prefix table by one channel use per step.

    Each step is a (ka, kb, m) table of letter probabilities. The slab of
    entries whose last digit is y is the prefix times the probability of
    y, written by one multiply whose inner loop runs over the prefixes.

    buffers is a pair of flat float arrays, each with room for the fully
    grown table. The steps write into them in turn instead of allocating,
    and the result is a view of one of them.
    """
    ka, kb = prefix.shape[:2]
    for i, step in enumerate(steps):
        m = step.shape[2]
        shape = prefix.shape + (m,)
        grown = buffers[i % 2][:prefix.size * m].reshape(shape)
        for y in range(m):
            np.multiply(prefix, step[:, :, y:y + 1], out=grown[:, :, :, y])
        prefix = grown.reshape(ka, kb, -1)
    return prefix


def _likelihood_blocks(first_seqs: np.ndarray, second_seqs: np.ndarray,
                       kernel: np.ndarray):
    """Output-sequence distributions for every pair of input sequences, in
    blocks of consecutive output sequences.

    kernel is a per-letter table indexed (first letter, second letter,
    output letter). The whole table has shape (len(first), len(second),
    m**n) with output sequences in big-endian symbol order: the first
    channel use is the most significant digit of the sequence index.
    Yields (start, stop, block) with block equal to table[:, :, start:stop].
    The blocks of one table share two buffers, so a block is valid only
    until the next one is drawn.

    A block holds the m**r sequences that share their first n - r letters,
    r the largest with at most BLOCK_CELLS cells in a block (0 when even
    m sequences overflow it). The leading n - r uses are grown once for
    every prefix; each block then grows one prefix through the trailing r
    uses. Every entry is therefore ((1 * p_1) * p_2) * ... * p_n, multiplied
    left to right in the order of the channel uses, so no entry depends on
    the block size, and a table of at most BLOCK_CELLS cells is one block.
    """
    ka = first_seqs.shape[0]
    kb = second_seqs.shape[0]
    n = first_seqs.shape[1]
    m = kernel.shape[2]
    steps = [kernel[first_seqs[:, t][:, None], second_seqs[None, :, t], :]
             for t in range(n)]
    trailing = 0
    while trailing < n and ka * kb * m ** (trailing + 1) <= BLOCK_CELLS:
        trailing += 1
    lead = n - trailing
    cells = ka * kb * m ** lead
    prefixes = _grow(np.ones((ka, kb, 1)), steps[:lead],
                     (np.empty(cells), np.empty(cells)))
    width = m ** trailing
    buffers = (np.empty(ka * kb * width), np.empty(ka * kb * width))
    for p in range(prefixes.shape[2]):
        block = _grow(prefixes[:, :, p:p + 1], steps[lead:], buffers)
        yield p * width, (p + 1) * width, block


def exact_error_probability(codebook: Codebook, channel: ChannelSpec) -> float:
    """Average block error of the maximum-likelihood message decoder.

    The destination sees the full output sequence and guesses the triple
    (w0, w1, w2); bin indices are not decoded, they are averaged out of
    each triple's likelihood. Ties break toward the smallest triple in
    lexicographic order, which never changes the error value but makes the
    decoder map itself reproducible. The average runs over uniform
    messages, uniform bins, and every output sequence, so the returned
    probability is exact up to float rounding. It is summed as the mass
    the decoder misses, the likelihoods of the triples it does not pick,
    so it is never negative and a code of one triple reads exactly 0.
    """
    if channel.size_x1 != codebook.size_x1 or channel.size_x2 != codebook.size_x2:
        raise ValueError("codebook alphabets do not match the channel")
    n = codebook.n
    ny = channel.size_y ** n
    m_triples = codebook.M0 * codebook.M1 * codebook.M2
    _guard(m_triples * ny, "decoder likelihood table")
    kernel = marginal_kernel(channel, "destination")
    seqs1, slots1, _ = _slots(codebook.x1_words)
    seqs2, slots2, _ = _slots(codebook.x2_words)
    k2 = seqs2.shape[0]
    _guard(seqs1.shape[0] * k2 * ny, "pairwise likelihood table")
    _guard(codebook.M1 * k2 * ny, "decoder partial table")
    # pairs[(j1, j2), w0, w1, w2]: the pairwise-table row of each codeword pair
    pairs = slots1[:, :, None, :, None] * k2 + slots2[:, None, :, None, :]
    pairs = np.moveaxis(pairs, (3, 4), (0, 1)).reshape(-1, m_triples)
    # total[y] adds up every triple's bin sum at y in triple order, and
    # best[y] is the largest of them
    total = np.empty(ny)
    best = np.empty(ny)
    for start, stop, pair in _likelihood_blocks(seqs1, seqs2, kernel):
        triples = _bin_sums(pair.reshape(-1, stop - start), pairs)
        best[start:stop] = triples.max(axis=0)
        mass = total[start:stop]
        mass[:] = triples[0]
        for triple in triples[1:]:
            mass += triple
    # the mass the decoder misses: a sum of nonnegative terms is at least
    # each of them, so no total falls below its best
    return float(np.sum(total - best) / (m_triples * codebook.J1 * codebook.J2))


_OBSERVERS = {
    "user2_about_W1": ("W1", "user2"),
    "user1_about_W2": ("W2", "user1"),
    "destination_about_W1": ("W1", "destination"),
    "destination_about_W2": ("W2", "destination"),
}

_OUTPUT_NAME = {"destination": "Y", "user1": "Y1", "user2": "Y2"}


def equivocation_joint(codebook: Codebook, channel: ChannelSpec,
                       case: str) -> JointStack:
    """Exact joint law of messages, the observer-side input sequence, and
    the observed output sequence, as a stack of one.

    case "user2_about_W1" builds the law of (W0, W1, W2, X2-seq, Y2-seq):
    what user 2 can correlate with the confidential message of sender 1.
    "user1_about_W2" is the mirror image. The two destination_* cases swap
    in the destination output while keeping one input sequence known; they
    exist for degradation comparisons, not for the code model itself. Bin
    indices are marginalized out, which is harmless because the known input
    sequence carries everything the bin index could add.
    """
    if channel.size_x1 != codebook.size_x1 or channel.size_x2 != codebook.size_x2:
        raise ValueError("codebook alphabets do not match the channel")
    if case not in _OBSERVERS:
        raise ValueError(f"unknown case {case!r}; expected one of {sorted(_OBSERVERS)}")
    hidden, receiver = _OBSERVERS[case]
    table = marginal_kernel(channel, receiver)
    if hidden == "W1":
        hidden_words, known_words = codebook.x1_words, codebook.x2_words
        mh, jh = codebook.M1, codebook.J1
        mk, jk = codebook.M2, codebook.J2
        kernel = table
        variables = ("W0", "W1", "W2", "X2", _OUTPUT_NAME[receiver])
    else:
        hidden_words, known_words = codebook.x2_words, codebook.x1_words
        mh, jh = codebook.M2, codebook.J2
        mk, jk = codebook.M1, codebook.J1
        kernel = np.transpose(table, (1, 0, 2))
        variables = ("W0", "W2", "W1", "X1", _OUTPUT_NAME[receiver])
    n = codebook.n
    ny = kernel.shape[2] ** n
    hidden_seqs, hidden_slots, _ = _slots(hidden_words)
    hidden_bins = np.ascontiguousarray(np.moveaxis(hidden_slots, 2, 0))
    known_seqs, _, known_counts = _slots(known_words)
    kd = known_seqs.shape[0]
    _guard(hidden_seqs.shape[0] * kd * ny, "pairwise likelihood table")
    _guard(codebook.M0 * mh * mk * kd * ny, "equivocation joint")
    joint = np.zeros((codebook.M0, mh, mk, kd, ny))
    for start, stop, lik in _likelihood_blocks(hidden_seqs, known_seqs, kernel):
        # mass(w0, wh, known-seq, y-seq) summed over the hidden bin
        binned = _bin_sums(lik, hidden_bins)
        np.multiply(binned[:, :, None], known_counts[:, None, :, :, None],
                    out=joint[..., start:stop])
    joint /= codebook.M0 * mh * mk * jh * jk
    return JointStack(variables, joint[None])


def exact_equivocation(codebook: Codebook, channel: ChannelSpec,
                       case: str = "user2_about_W1") -> float:
    """Residual uncertainty about one confidential message, in bits per use.

    For "user2_about_W1" this is H(W1 | Y2-seq, X2-seq, W0, W2) / n: user 2
    knows the common message, its own private message, and its own
    transmitted sequence, and observes its channel output. The value is
    computed from the exact joint distribution, so it is deterministic for
    a fixed codebook and lies in [0, log2(M1)/n] up to rounding.
    """
    joint = equivocation_joint(codebook, channel, case)
    hidden = joint.variables[1]
    given = joint.variables[:1] + joint.variables[2:]
    return float(stacked_entropy(joint, (hidden,), given=given)[0]) / codebook.n


def simulate(channel: ChannelSpec, n: int, M0: int, M1: int, M2: int,
             J1: int, J2: int, input_dist, seeds) -> tuple[list[SimReport], dict]:
    """One exact evaluation per seed plus seed-averaged aggregates.

    Each seed draws a fresh codebook and reports its exact error
    probability and both equivocations. The aggregate dict carries the
    plain means; no variance estimates, since each entry is itself exact.
    """
    seeds = [whole_number("seed", s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    reports = []
    for seed in seeds:
        book = build_codebook(channel, n, M0, M1, M2, J1, J2, input_dist, seed)
        reports.append(SimReport(
            seed=seed,
            error_probability=exact_error_probability(book, channel),
            equivocation_user2=exact_equivocation(book, channel, "user2_about_W1"),
            equivocation_user1=exact_equivocation(book, channel, "user1_about_W2"),
            rates=book.rates,
        ))
    aggregate = {
        "seed_count": len(reports),
        "error_probability": sum(r.error_probability for r in reports) / len(reports),
        "equivocation_user2": sum(r.equivocation_user2 for r in reports) / len(reports),
        "equivocation_user1": sum(r.equivocation_user1 for r in reports) / len(reports),
        "rates": list(reports[0].rates),
    }
    return reports, aggregate
