"""Independent references for the benchmark's output checks.

Nothing here calls gmacsec code. Schemes and codewords are redrawn from the
documented seed streams, information terms come from a separate entropy
routine, the slice supports are closed forms over small polygons, and the
simulation figures are summed directly over every output sequence. The
checks therefore still mean something after a change rewrites the code paths
the benchmark times.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerance for frontier points against the closed-form support.
SUPPORT_TOL = 1e-9


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _entropy(table: np.ndarray, keep) -> float:
    """Entropy in bits of the marginal of table over the axes in keep."""
    if not keep:
        return 0.0
    drop = tuple(i for i in range(table.ndim) if i not in keep)
    marg = table.sum(axis=drop) if drop else table
    p = marg[marg > 0]
    return float(-(p * np.log2(p)).sum())


def _mi(table: np.ndarray, a, b, given=()) -> float:
    """I(a; b | given) in bits, for tuples of axis indices."""
    a, b, given = tuple(a), tuple(b), tuple(given)
    return (_entropy(table, a + given) + _entropy(table, b + given)
            - _entropy(table, a + b + given) - _entropy(table, given))


def _dirichlet_stream(seed: int, count: int, blocks):
    """Rows drawn flat Dirichlet, block by block, scheme by scheme.

    blocks is a list of (rows, cols); this is the stream the random
    search strategy documents for a given seed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield [rng.dirichlet(np.ones(cols), size=rows) for rows, cols in blocks]


def one_set_terms(channel_prob: np.ndarray, seed: int, count: int, cards):
    """(a, b) = (I(U;Y|X2,Q), I(U,X2,Q;Y)) for every random one-set scheme."""
    nq, nu, _ = cards
    nx1, nx2 = channel_prob.shape[:2]
    w = channel_prob.sum(axis=(3, 4))          # p(y | x1, x2)
    blocks = [(1, nq * nx2), (nq, nu), (nu, nx1)]
    out = []
    for p_qt, p_u, p_x in _dirichlet_stream(seed, count, blocks):
        # axes: Q, U, X1, X2, Y
        joint = np.einsum("qt,qu,ux,xty->quxty",
                          p_qt.reshape(nq, nx2), p_u, p_x, w)
        a = _mi(joint, (1,), (4,), (3, 0))
        b = _mi(joint, (1, 3, 0), (4,))
        out.append((a, b))
    return out


def two_set_terms(channel_prob: np.ndarray, seed: int, count: int, cards):
    """(m1, m2, m12, mt) for every random two-set scheme."""
    nq, nu, nv = cards
    nx1, nx2 = channel_prob.shape[:2]
    w = channel_prob.sum(axis=(3, 4))
    blocks = [(1, nq), (nq, nu), (nu, nx1), (nq, nv), (nv, nx2)]
    out = []
    for p_q, p_u, p_x1, p_v, p_x2 in _dirichlet_stream(seed, count, blocks):
        # axes: Q, U, V, X1, X2, Y
        joint = np.einsum("q,qu,ux,qv,vt,xty->quvxty",
                          p_q.reshape(nq), p_u, p_x1, p_v, p_x2, w)
        out.append((
            _mi(joint, (1,), (5,), (2, 0)),
            _mi(joint, (2,), (5,), (1, 0)),
            _mi(joint, (1, 2), (5,), (0,)),
            _mi(joint, (1, 2, 0), (5,)),
        ))
    return out


def polygon_support(cap_x: float, cap_y: float, cap_sum: float, c: float, s: float) -> float:
    """max c x + s y over {x, y >= 0, x <= cap_x, y <= cap_y, x + y <= cap_sum}.

    The five candidate points are the polygon's vertices, so the maximum
    over them is the support for any c, s >= 0.
    """
    x1 = min(cap_x, cap_sum)
    y1 = min(cap_y, cap_sum)
    corners = ((0.0, 0.0), (x1, 0.0), (x1, min(cap_y, cap_sum - x1)),
               (min(cap_x, cap_sum - y1), y1), (0.0, y1))
    return max(c * x + s * y for x, y in corners)


def sweep_directions(resolution: int):
    """The (cos t, sin t) directions a frontier sweep of this resolution uses."""
    return [(math.cos(0.5 * math.pi * k / (resolution - 1)),
             math.sin(0.5 * math.pi * k / (resolution - 1)))
            for k in range(resolution)]


def slice_supports(polygons, resolution: int):
    """Support of the union of polygons (cap_x, cap_y, cap_sum) per direction."""
    return [max(polygon_support(*poly, c, s) for poly in polygons)
            for c, s in sweep_directions(resolution)]


def check_frontier(points, supports, resolution: int) -> list[str]:
    """Problems with frontier points against the reference supports.

    Every point must lie under every supporting line and attain the support
    in at least one direction, and every direction's support must be
    attained by some point.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return ["frontier has no points"]
    dirs = np.array(sweep_directions(resolution))
    ref = np.array(supports)
    values = pts @ dirs.T                        # (points, directions)
    problems = []
    over = values - ref[None, :]
    if over.max() > SUPPORT_TOL:
        problems.append(f"a point exceeds the support by {over.max():.3e}")
    gap_dir = ref - values.max(axis=0)
    if gap_dir.max() > SUPPORT_TOL:
        problems.append(f"a direction misses its support by {gap_dir.max():.3e}")
    gap_pt = (ref[None, :] - values).min(axis=1)
    if gap_pt.max() > SUPPORT_TOL:
        problems.append(f"a point attains no support, gap {gap_pt.max():.3e}")
    return problems


def _binary_likelihoods(words: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """p(y^n | x^n) for each word (rows) and every binary y^n (columns).

    kernel[x, y] is the per-letter law of a binary-input, binary-output
    link. Letter t of a word and bit t of the output index line up, so a
    likelihood follows from the four letter-pair counts.
    """
    n = words.shape[1]
    y = np.arange(2 ** n, dtype=np.uint64)[None, :]
    x = (words.astype(np.uint64) << np.arange(n, dtype=np.uint64)).sum(axis=1)[:, None]
    mask = np.uint64(2 ** n - 1)
    n11 = np.bitwise_count(x & y).astype(np.int64)
    n10 = np.bitwise_count(x & ~y & mask).astype(np.int64)
    n01 = np.bitwise_count(~x & y & mask).astype(np.int64)
    n00 = n - n11 - n10 - n01
    powers = kernel[:, :, None] ** np.arange(n + 1)   # powers[x, y, count]
    return (powers[0, 0][n00] * powers[0, 1][n01]
            * powers[1, 0][n10] * powers[1, 1][n11])


def binning_code(channel_prob: np.ndarray, n: int, M1: int, J1: int,
                 p1, seed: int) -> dict:
    """Exact figures of one random binning code for W1, from its codewords.

    Covers the single-message case the simulate workload runs: M0 = M2 =
    J2 = 1 and a sender 2 with a one-letter alphabet, on binary links to
    the destination and to user 2. Sender 1's words are the first draw of
    numpy's default_rng(seed), shape (1, M1, J1, n), as the simulator
    documents. Returns the error probability of the maximum-likelihood
    decoder of W1 at the destination, H(W1 | Y^n) / n and H(W1 | Y2^n) / n;
    with the other messages and sender 2's word fixed these are the
    simulator's destination and user 2 equivocations.
    """
    if channel_prob.shape[:3] != (2, 1, 2) or channel_prob.shape[4] != 2:
        raise ValueError("the reference covers binary links and a one-letter sender 2")
    words = np.random.default_rng(seed).choice(2, size=(1, M1, J1, n), p=p1)[0]
    dest_kernel = channel_prob.sum(axis=(3, 4))[:, 0, :]      # p(y | x1)
    user2_kernel = channel_prob.sum(axis=(2, 3))[:, 0, :]     # p(y2 | x1)
    best = np.zeros(2 ** n)
    out = {}
    for name, kernel in (("destination", dest_kernel), ("user2", user2_kernel)):
        joint_entropy = 0.0                      # H(W1, output) in bits
        marginal = np.zeros(2 ** n)              # p(output)
        for w in range(M1):
            # p(w, y^n): uniform message, uniform bin index
            mass = _binary_likelihoods(words[w], kernel).sum(axis=0) / (M1 * J1)
            joint_entropy += _entropy(mass, (0,))
            marginal += mass
            if name == "destination":
                np.maximum(best, mass, out=best)
        out[name] = (joint_entropy - _entropy(marginal, (0,))) / n
    out["error_probability"] = 1.0 - float(best.sum())
    return out


def fano_bound(pe: float, messages: int) -> float:
    """Fano's bound on H(message | output) in bits for error probability pe."""
    pe = min(max(pe, 0.0), 1.0)
    return binary_entropy(pe) + pe * math.log2(max(messages - 1, 1))
