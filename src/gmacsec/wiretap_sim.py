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
from dataclasses import dataclass, field

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
    built from the same seed are identical. The arrays are the only record
    of the counts: n, M0, M1, M2, J1 and J2 are read off their shapes
    (M0, M1, J1, n) and (M0, M2, J2, n), which must agree on M0 and n and
    have no empty axis.
    """

    x1_words: np.ndarray
    x2_words: np.ndarray
    size_x1: int
    size_x2: int
    seed: int | None = None
    n: int = field(init=False)
    M0: int = field(init=False)
    M1: int = field(init=False)
    M2: int = field(init=False)
    J1: int = field(init=False)
    J2: int = field(init=False)
    # per sender, its distinct sequences and each word's slot among them
    _senders: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, size_name in (("x1_words", "size_x1"), ("x2_words", "size_x2")):
            size = whole_number(size_name, getattr(self, size_name))
            if size < 1:
                raise ValueError(f"{size_name} must be a positive integer")
            words = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if words.ndim != 4 or 0 in words.shape:
                raise ValueError(f"{name} has shape {words.shape}, expected "
                                 "(M0, M, J, n) with no empty axis")
            if words.min() < 0 or words.max() >= size:
                raise ValueError(f"{name} contains letters outside the input alphabet")
            words.setflags(write=False)
            object.__setattr__(self, size_name, size)
            object.__setattr__(self, name, words)
        x1, x2 = self.x1_words.shape, self.x2_words.shape
        for axis, count in ((0, "M0"), (3, "n")):
            if x1[axis] != x2[axis]:
                raise ValueError(f"x1_words has shape {x1} and x2_words has shape "
                                 f"{x2}: they disagree on {count}")
        for name, value in zip(("M0", "M1", "J1", "n", "M2", "J2"), x1 + x2[1:3]):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_senders", (_slots(self.x1_words), _slots(self.x2_words)))

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
    _guard(M0 * (M1 * J1 + M2 * J2) * n, "codebook", "letters")
    try:
        p1, p2 = input_dist
    except (TypeError, ValueError):
        raise ValueError("input_dist must be a pair of distributions, one per "
                         f"sender, got {input_dist!r}") from None
    p1 = _check_input_dist(p1, channel.size_x1, "sender 1")
    p2 = _check_input_dist(p2, channel.size_x2, "sender 2")
    rng = np.random.default_rng(seed)
    x1 = rng.choice(channel.size_x1, size=(M0, M1, J1, n), p=p1)
    x2 = rng.choice(channel.size_x2, size=(M0, M2, J2, n), p=p2)
    return Codebook(x1, x2, channel.size_x1, channel.size_x2, seed)


def _slots(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sequences across a word array and each word's slot among
    them: (sequences, slots), sequences of shape (k, n) and slots of shape
    (M0, Mw, J) with words[w0, w, j] == sequences[slots[w0, w, j]]."""
    m0, mw, j, n = words.shape
    seqs, inverse = np.unique(words.reshape(-1, n), axis=0, return_inverse=True)
    slots = inverse.reshape(m0, mw, j)
    seqs.setflags(write=False)
    slots.setflags(write=False)
    return seqs, slots


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
    (seqs1, slots1), (seqs2, slots2) = codebook._senders
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


# case: (the hidden sender, 0 for sender 1 and 1 for sender 2; the observer)
_OBSERVERS = {
    "user2_about_W1": (0, "user2"),
    "user1_about_W2": (1, "user1"),
    "destination_about_W1": (0, "destination"),
    "destination_about_W2": (1, "destination"),
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
    known = 1 - hidden
    hidden_seqs, hidden_slots = codebook._senders[hidden]
    known_seqs, known_slots = codebook._senders[known]
    m0, mh, jh = hidden_slots.shape
    mk, jk = known_slots.shape[1:]
    kd = known_seqs.shape[0]
    # the kernel is indexed (hidden letter, known letter, output letter)
    kernel = np.moveaxis(marginal_kernel(channel, receiver), hidden, 0)
    variables = ("W0", f"W{hidden + 1}", f"W{known + 1}", f"X{known + 1}",
                 _OUTPUT_NAME[receiver])
    ny = kernel.shape[2] ** codebook.n
    _guard_products(hidden_seqs, known_seqs, ny)
    _guard(m0 * mh * mk * kd * ny, "equivocation joint")
    # known_counts[w0, wk, s]: how many words of bin (w0, wk) are sequence s;
    # row r = (w0, wk) of one bincount owns the slots r*kd .. r*kd + kd - 1
    rows = known_slots.reshape(m0 * mk, jk) + kd * np.arange(m0 * mk)[:, None]
    known_counts = np.bincount(rows.ravel(), minlength=m0 * mk * kd).reshape(m0, mk, kd)
    # bins[jh, w0, wh, known-seq]: the pairwise row of each codeword pair
    bins = np.moveaxis(hidden_slots, 2, 0)[..., None] * kd + np.arange(kd)
    draws = m0 * mh * mk * jh * jk
    # the blocks tile the output sequences, so every cell is written
    joint = np.empty((m0, mh, mk, kd, ny))
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
