"""Test-only references and input generators.

search_schemes turns the search's one scheme stream, parameter_rows, into
scheme dataclasses. The rest are slow or definition-level references that
the package itself never calls: the frontier sweep's tie rule over a
slice's points, per-piece support, slicing and membership queries, the
two-set equivocation set straight from its definition, a codebook's error
probability and equivocations summed codeword by codeword, and a channel
perturbation that keeps every receiver marginal.
"""

import itertools
import math

import numpy as np

from gmacsec import optimizer
from gmacsec.channel import ChannelSpec
from gmacsec.errors import EmptySlice, Unbounded
from gmacsec.regions import DEDUP_TOL, TIE_TOL, RatePolytope
from gmacsec.two_set import TWO_SET


# --- schemes ------------------------------------------------------------------

def search_schemes(variant, channel, config):
    """The configured search's schemes as dataclasses: each row of
    parameter_rows, in its order, built into the variant's scheme. The grid
    or the random stream follows config.strategy."""
    blocks = optimizer._blocks(variant, channel, config)
    for row in optimizer.parameter_rows(variant, channel, config):
        yield optimizer._build(variant, blocks, optimizer._split(row, blocks))


# --- piece queries ------------------------------------------------------------

def vertex_argmax(verts: np.ndarray, direction: np.ndarray):
    """(max d.x, row index of the witness) over a nonempty vertex array: the
    tie oracle of frontier_sweep's picks.

    The witness is the vertex with the largest coordinate sum among those
    within TIE_TOL of the maximum, which is the Pareto-maximal corner of the
    optimal face; a remaining tie goes to the lexicographically largest.
    """
    values = verts @ direction
    value = float(np.max(values))
    cand = np.flatnonzero(values >= value - TIE_TOL)
    sums = verts[cand].sum(axis=1)
    cand = cand[sums >= np.max(sums) - TIE_TOL]
    return value, int(cand[np.lexsort(verts[cand].T[::-1])[-1]])


def zero_slice_points(points: np.ndarray, plane_idx, fixed_idx,
                      tol: float = 1e-12) -> np.ndarray:
    """The plane coordinates of the points of a cloud whose fixed
    coordinates are all within tol of zero. For a cloud with no negative
    coordinate, their hull is the slice of the cloud's hull where those
    coordinates are zero: a mix is zero in a coordinate only where every
    point it mixes is."""
    at_zero = np.all(np.abs(points[:, fixed_idx]) <= tol, axis=1)
    return points[at_zero][:, plane_idx]


def piece_contains(piece: RatePolytope, point, tol: float = 1e-9) -> bool:
    """Membership test with additive slack tol on every constraint."""
    x = np.asarray(point, dtype=float)
    if x.shape != (piece.dim,):
        raise ValueError(f"point of dim {x.shape} vs polytope dim {piece.dim}")
    if np.any(x < -tol):
        return False
    if piece.A.shape[0] == 0:
        return True
    return bool(np.all(piece.A @ x <= piece.b + tol))


def piece_support(piece: RatePolytope, direction) -> tuple[float, np.ndarray]:
    """max d.x over the piece; returns (value, maximizing vertex).

    The maximum is taken over the piece's vertices, with the witness tie
    rule of vertex_argmax. Raises EmptySlice when the piece is
    empty and Unbounded when it recedes without bound in that direction.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (piece.dim,):
        raise ValueError("direction dimension mismatch")
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    verts = piece.vertices
    if verts.shape[0] == 0:
        raise EmptySlice("support of an empty piece")
    if np.max(piece.rays @ d) > DEDUP_TOL:
        raise Unbounded(f"support unbounded along {direction}")
    value, i = vertex_argmax(verts, d)
    return value, verts[i].copy()


def slice_piece(piece: RatePolytope, fixed: dict) -> RatePolytope:
    """Substitute fixed coordinate values, keeping the remaining coords.

    A fixed value below zero contradicts implicit nonnegativity, so the
    result is made infeasible explicitly (0 <= -1).
    """
    for name in fixed:
        if name not in piece.coords:
            raise ValueError(f"cannot fix unknown coordinate {name!r}")
    keep_idx = [i for i, c in enumerate(piece.coords) if c not in fixed]
    fix_idx = [i for i, c in enumerate(piece.coords) if c in fixed]
    if not keep_idx:
        raise ValueError("slice must keep at least one coordinate")
    vals = np.array([float(fixed[piece.coords[i]]) for i in fix_idx])
    new_coords = tuple(piece.coords[i] for i in keep_idx)
    if piece.A.shape[0]:
        new_A = piece.A[:, keep_idx]
        new_b = piece.b - piece.A[:, fix_idx] @ vals
    else:
        new_A = np.zeros((0, len(keep_idx)))
        new_b = np.zeros(0)
    if np.any(vals < -DEDUP_TOL):
        new_A = np.vstack([new_A, np.zeros((1, len(keep_idx)))])
        new_b = np.append(new_b, -1.0)
    return RatePolytope(new_coords, new_A, new_b)


# --- the two-set equivocation set ---------------------------------------------

def equivocation_set_oracle(scheme, channel, r0: float, r1: float, r2: float,
                            step: float = 0.01) -> np.ndarray:
    """Grid enumeration of the equivocation set straight from its definition.

    Sweeps total codebook rate pairs (t1, t2) on a step grid: each sender
    transmits its message plus dummy randomness, so t1 >= r1 and t2 >= r2,
    and (r0, t1, t2) must be decodable. Each feasible pair contributes the
    rectangle R1e <= min(r1, [t1 - e1]_+), R2e <= min(r2, [t2 - e2]_+).
    Returns the grid points covered by at least one rectangle, as an
    (n, 2) array; empty when no pair is decodable at all. It is the slow
    cross-check for two_set.equivocation_set_explicit.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t = TWO_SET.scheme_terms(scheme, channel)
    m1, m2, m12, mt = t["m1"], t["m2"], t["m12"], t["mt"]
    e1, e2 = t["e1"], t["e2"]
    eps = 1e-12

    t1_max = min(m1, m12 - r2, mt - r0 - r2)
    t1_lo = math.ceil(r1 / step - eps)
    t1_hi = math.floor(t1_max / step + eps)
    t2_lo = math.ceil(r2 / step - eps)

    caps = []
    for i1 in range(t1_lo, t1_hi + 1):
        t1 = i1 * step
        t2_max = min(m2, m12 - t1, mt - r0 - t1)
        i2 = math.floor(t2_max / step + eps)
        if i2 < t2_lo:
            continue
        t2 = i2 * step
        cap1 = min(r1, max(0.0, t1 - e1))
        cap2 = min(r2, max(0.0, t2 - e2))
        caps.append((cap1, cap2))
    if not caps:
        return np.empty((0, 2))

    points = []
    cap_arr = np.array(caps)
    x_hi = math.floor(cap_arr[:, 0].max() / step + eps)
    for ix in range(x_hi + 1):
        x = ix * step
        covering = cap_arr[cap_arr[:, 0] >= x - eps]
        if covering.shape[0] == 0:
            continue
        y_max = covering[:, 1].max()
        for iy in range(math.floor(y_max / step + eps) + 1):
            points.append((x, iy * step))
    return np.array(points)


# --- codebooks ---------------------------------------------------------------

def _sequence_likelihoods(kernel: np.ndarray, x1, x2) -> np.ndarray:
    """p(y-seq | x1-seq, x2-seq) for every output sequence, in big-endian
    symbol order: the outer product of the n per-use letter laws."""
    out = np.ones(1)
    for a, b in zip(x1, x2):
        out = np.multiply.outer(out, kernel[a, b]).ravel()
    return out


def _fsum_columns(rows) -> np.ndarray:
    """Column sums of a stack of equal-length vectors, each by math.fsum."""
    rows = np.asarray(rows)
    if rows.shape[0] == 1:
        return rows[0]
    return np.array([math.fsum(col) for col in rows.T.tolist()])


def _error_probability(book, kernel: np.ndarray) -> float:
    # p(y-seq | w0, w1, w2), one row per triple
    masses = np.array([
        _fsum_columns([
            _sequence_likelihoods(kernel, book.x1_words[w0, w1, j1],
                                  book.x2_words[w0, w2, j2])
            for j1 in range(book.J1) for j2 in range(book.J2)]) / (book.J1 * book.J2)
        for w0 in range(book.M0) for w1 in range(book.M1) for w2 in range(book.M2)])
    # every triple's mass but the one the decoder picks at each y-seq
    missed = np.ones(masses.shape, dtype=bool)
    missed[np.argmax(masses, axis=0), np.arange(masses.shape[1])] = False
    return math.fsum(masses[missed].tolist()) / masses.shape[0]


def _equivocation(book, kernel: np.ndarray, hidden: int) -> float:
    """H(W_hidden | W0, W_known, X_known-seq, Y-seq) / n from the joint law
    summed codeword by codeword; hidden is the sender (1 or 2) whose
    message is confidential, kernel is p(y | x1, x2) of its observer."""
    words = {1: book.x1_words, 2: book.x2_words}
    hidden_words, known_words = words[hidden], words[3 - hidden]
    m0, mh, jh = hidden_words.shape[:3]
    mk, jk = known_words.shape[1:3]
    # (w0, wk, known sequence) -> per wh, the likelihoods of its codewords
    groups = {}
    for w0, wk, j in itertools.product(range(m0), range(mk), range(jk)):
        known = known_words[w0, wk, j]
        rows = groups.setdefault((w0, wk, tuple(known)), [[] for _ in range(mh)])
        for wh, i in itertools.product(range(mh), range(jh)):
            pair = ((hidden_words[w0, wh, i], known) if hidden == 1
                    else (known, hidden_words[w0, wh, i]))
            rows[wh].append(_sequence_likelihoods(kernel, *pair))
    scale = m0 * mh * mk * jh * jk
    terms = []
    for rows in groups.values():
        joint = np.array([_fsum_columns(r) for r in rows]) / scale   # (wh, y-seq)
        given = _fsum_columns(joint)
        for row in joint:
            seen = row > 0
            terms += (-row[seen] * np.log2(row[seen] / given[seen])).tolist()
    return math.fsum(terms) / book.n


def codeword_figures(book, channel: ChannelSpec) -> tuple[float, float, float]:
    """(error probability, user 2's equivocation about W1, user 1's about
    W2) of a codebook, each summed codeword by codeword with math.fsum.

    The error probability is the mass the maximum-likelihood triple
    decoder misses at the destination, averaged over uniform messages.
    The equivocations are H(W1 | W0, W2, X2-seq, Y2-seq) / n and
    H(W2 | W0, W1, X1-seq, Y1-seq) / n. Every output sequence is
    enumerated, so this is the slow definition-level cross-check of
    wiretap_sim's blocked bin sums; the receiver laws are read off the
    channel's joint table directly.
    """
    prob = channel.prob                                     # (x1, x2, y, y1, y2)
    return (_error_probability(book, prob.sum(axis=(3, 4))),
            _equivocation(book, prob.sum(axis=(2, 3)), hidden=1),
            _equivocation(book, prob.sum(axis=(2, 4)), hidden=2))


# --- channels -----------------------------------------------------------------

def perturb_preserving_marginals(spec: ChannelSpec, rng, moves: int = 8) -> ChannelSpec:
    """Randomly perturb the joint law without touching any receiver marginal.

    Each move picks an input pair, two output axes with at least two symbols,
    a 2x2 index pattern on those axes at a fixed index of the third, and
    shifts mass around that pattern. All three single-output kernels are
    unchanged exactly, so any quantity that only reads them must not move.
    Needs at least two output alphabets of size >= 2; raises ValueError
    otherwise.
    """
    axes_ok = [i for i, s in enumerate(spec.prob.shape[2:]) if s >= 2]
    if len(axes_ok) < 2:
        raise ValueError(
            "marginal-preserving perturbation needs two output axes of size >= 2"
        )
    table = spec.prob.copy()
    for _ in range(moves):
        x1 = int(rng.integers(spec.size_x1))
        x2 = int(rng.integers(spec.size_x2))
        block = table[x1, x2]                    # (y, y1, y2)
        i, j = sorted(rng.choice(len(axes_ok), size=2, replace=False))
        ax_i, ax_j = axes_ok[i], axes_ok[j]
        ax_k = ({0, 1, 2} - {ax_i, ax_j}).pop()
        a, b = rng.choice(block.shape[ax_i], size=2, replace=False)
        c, d = rng.choice(block.shape[ax_j], size=2, replace=False)
        e = int(rng.integers(block.shape[ax_k]))

        def cell(v_i, v_j):
            idx = [None, None, None]
            idx[ax_i], idx[ax_j], idx[ax_k] = v_i, v_j, e
            return tuple(idx)

        slack = min(block[cell(a, d)], block[cell(b, c)])
        if slack <= 0:
            continue
        delta = float(rng.uniform(0.0, slack))
        block[cell(a, c)] += delta
        block[cell(b, d)] += delta
        block[cell(a, d)] -= delta
        block[cell(b, c)] -= delta
    table.setflags(write=False)
    return ChannelSpec(prob=table)
