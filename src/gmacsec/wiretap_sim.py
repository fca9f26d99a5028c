"""Exact small-blocklength simulation of random-binning codes.

Everything here is brute force on purpose. Codebooks live at blocklengths
small enough that every output sequence can be enumerated, so error
probability and equivocation come out exact rather than sampled. The
payoff is that tests can pin these numbers to closed-form values with zero
statistical slack. The likelihood of an output sequence given a pair of
input sequences splits at h = n // 2 into the product of two halves, one
over the first h channel uses and one over the rest, and only these half
tables are grown. The pairwise table itself is never built: the bin sums
that the decoder and the equivocation read are formed from the halves in
blocks of at most BLOCK_CELLS cells, so only the decoder's sums and the
equivocation joint are ever held whole. The joint is not copied either: its
entropy sorts and weighs the masses where they lie.

Each figure is a run of elementwise IEEE operations per output sequence in
a fixed order: a codeword pair's likelihood is one product of its two
halves, a bin's likelihood adds its codewords' likelihoods in bin-index
order, and the message and bin counts divide each cell once, as its block
is written. Blocks only decide how much is computed at once, so no bit
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
from .infotheory import JointStack, stacked_entropy_in_place


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


def _guard(total: int, what: str, unit: str = "states") -> None:
    limit = max_states()
    if total > limit:
        raise EnumerationTooLarge(
            f"{what} needs {total} {unit}, above the guard of {limit}"
        )


def _guard_products(first_seqs: np.ndarray, second_seqs: np.ndarray, ny: int) -> None:
    """Guard one pass of _bin_sum_blocks by the likelihood products it can
    form: rows x ny, the pairwise rows (one per pair of distinct sequences)
    times the ny output sequences, each product left * right of _halves. A
    row that several bins read is multiplied once per bin."""
    _guard(first_seqs.shape[0] * second_seqs.shape[0] * ny, "one bin-sum pass",
           "likelihood products")


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


# Cells per block of bin sums; a block of 2^16 float64 cells is 512 KiB, so
# the sums and the one product buffer beside them take half of a 2 MiB L2
# cache and leave the rest to the half tables. Every cell is one product of
# two half-table entries followed by the same chain of additions at any
# block size, so the size is a cache choice only and moves no bit.
BLOCK_CELLS = 1 << 16


def _halves(first_seqs: np.ndarray, second_seqs: np.ndarray,
            kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Likelihoods of the first h = n // 2 channel uses and of the other
    n - h, for every pair of input sequences.

    kernel is a per-letter table indexed (first letter, second letter,
    output letter). Returns (left, right) of shapes (ka * kb, m**h) and
    (ka * kb, m**(n - h)): row a * kb + b belongs to the pair (first_seqs[a],
    second_seqs[b]), and each column is a partial output sequence in
    big-endian symbol order. Each half is grown left to right in the order
    of its channel uses, and p(y^n | pair) = left[pair, y_1..y_h] *
    right[pair, y_h+1..y_n].
    """
    ka, n = first_seqs.shape
    kb = second_seqs.shape[0]
    halves = []
    for uses in (range(n // 2), range(n // 2, n)):
        half = np.ones((ka, kb, 1))
        for t in uses:
            step = kernel[first_seqs[:, t][:, None], second_seqs[None, :, t], :]
            half = (half[:, :, :, None] * step[:, :, None, :]).reshape(ka, kb, -1)
        halves.append(half.reshape(ka * kb, -1))
    return halves[0], halves[1]


def _bin_sum_blocks(first_seqs: np.ndarray, second_seqs: np.ndarray,
                    kernel: np.ndarray, bins: np.ndarray):
    """Bin sums of the output-sequence likelihoods, in blocks of
    consecutive output sequences.

    bins[j] holds the pairwise rows (a * kb + b, as in _halves) of bin
    index j, so the sums have shape bins.shape[1:] + (m**n,), with output
    sequences in big-endian symbol order. Yields (start, stop, sums) with
    sums the bin sums at sequences start..stop - 1. Every block is written
    into the same buffer, so a block is valid only until the next is drawn.

    A sequence y^n is (head, tail) = (y_1..y_h, y_h+1..y_n). Each bin adds
    left[rows, head] * right[rows, tail], one rounded product per cell, in
    bin-index order, so no bit depends on the block size. A block is the
    runs of m**(n - h) sequences under several heads when one run's sums
    fit in BLOCK_CELLS, and a slice of one run otherwise, down to a single
    sequence.
    """
    left, right = _halves(first_seqs, second_seqs, kernel)
    rows = bins.reshape(bins.shape[0], -1)
    lefts, rights = left[rows], right[rows]
    count, heads, width = rows.shape[1], left.shape[1], right.shape[1]
    # a block spans `across` heads' whole runs, or `along` sequences of one
    # run when a run's sums alone overflow BLOCK_CELLS
    along = min(width, max(1, BLOCK_CELLS // count))
    across = min(heads, max(1, BLOCK_CELLS // (count * width)))
    buffers = (np.empty(count * across * along), np.empty(count * across * along))
    for h0 in range(0, heads, across):
        h1 = min(h0 + across, heads)
        for t0 in range(0, width, along):
            t1 = min(t0 + along, width)
            shape = (count, h1 - h0, t1 - t0)
            sums, term = (buffer[:math.prod(shape)].reshape(shape) for buffer in buffers)
            np.multiply(lefts[0, :, h0:h1, None], rights[0, :, None, t0:t1], out=sums)
            for head, tail in zip(lefts[1:], rights[1:]):
                np.multiply(head[:, h0:h1, None], tail[:, None, t0:t1], out=term)
                sums += term
            yield (h0 * width + t0, (h1 - 1) * width + t1,
                   sums.reshape(bins.shape[1:] + (-1,)))


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
    _guard_products(seqs1, seqs2, ny)
    # pairs[(j1, j2), w0, w1, w2]: the pairwise row of each codeword pair
    pairs = slots1[:, :, None, :, None] * k2 + slots2[:, None, :, None, :]
    pairs = np.moveaxis(pairs, (3, 4), (0, 1)).reshape(-1, m_triples)
    # total[y] adds up every triple's bin sum at y in triple order, and
    # best[y] is the largest of them
    total = np.empty(ny)
    best = np.empty(ny)
    for start, stop, triples in _bin_sum_blocks(seqs1, seqs2, kernel, pairs):
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
    known_seqs, _, known_counts = _slots(known_words)
    kd = known_seqs.shape[0]
    _guard_products(hidden_seqs, known_seqs, ny)
    _guard(codebook.M0 * mh * mk * kd * ny, "equivocation joint")
    # bins[jh, w0, wh, known-seq]: the pairwise row of each codeword pair
    bins = np.moveaxis(hidden_slots, 2, 0)[..., None] * kd + np.arange(kd)
    draws = codebook.M0 * mh * mk * jh * jk
    # the blocks tile the output sequences, so every cell is written
    joint = np.empty((codebook.M0, mh, mk, kd, ny))
    for start, stop, binned in _bin_sum_blocks(hidden_seqs, known_seqs, kernel, bins):
        # binned: mass(w0, wh, known-seq, y-seq) summed over the hidden bin
        block = joint[..., start:stop]
        np.multiply(binned[:, :, None], known_counts[:, None, :, :, None], out=block)
        block /= draws
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
    # the stack is this call's own: H of the whole joint sorts it in place
    return float(stacked_entropy_in_place(joint, hidden, given)[0]) / codebook.n


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
