"""The package's one linear-program solver: a small dense primal simplex.

Every LP the package solves is in equality form, max cost.w over w >= 0
with rows w = rhs, and small and dense. _phase_one finds a feasible basis
from start columns that meet the leading rows, with a signed artificial
column for each other row; _cloud_basis pivots the artificials that phase
one leaves in its basis out of it; _simplex then optimizes from that basis.
regions runs them on the mixture weights of a vertex cloud, with the
basis kept from one sweep direction to the next; maximize runs them once,
for check_stochastically_degraded's per-x2 kernel LPs. Only numpy is
needed.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverStall

# A reduced cost above PRICE_TOL improves the objective; a pivot entry or a
# step of at most PIVOT_TOL counts as zero; after BLAND_AFTER degenerate
# pivots in a row the simplex enters by Bland's rule.
PRICE_TOL = 1e-13
PIVOT_TOL = 1e-9
BLAND_AFTER = 10
PIVOT_CEILING = 10_000


def _simplex(W, rhs, basis, cost, allowed=None):
    """Maximize cost.w over w >= 0 with W w = rhs by the primal simplex,
    from the feasible basis given, a list of column indices that is updated
    in place. Returns (weights of the basis columns, reduced costs).

    Each pivot prices every column with one matrix-vector product, and
    only the columns that allowed marks may enter. The entering column has
    the largest reduced cost above PRICE_TOL, the first on a tie. After
    BLAND_AFTER degenerate pivots in a row (each a step of at most
    PIVOT_TOL) it is the first with one, Bland's rule, until a step is not
    degenerate; a cycle of bases would be all degenerate steps, which
    Bland's rule cannot cycle through, so the simplex terminates. The
    leaving column is the first, by column index, of those tied in the
    ratio test. Raises SolverStall when PIVOT_CEILING pricing rounds end
    short of the optimum.
    """
    degenerate = 0                            # degenerate pivots in a row
    inverse = np.linalg.inv(W[:, basis])
    for _ in range(PIVOT_CEILING):
        weights = inverse @ rhs
        reduced = cost - (cost[basis] @ inverse) @ W
        reduced[basis] = 0.0
        if allowed is not None:
            reduced[~allowed] = -np.inf
        if degenerate >= BLAND_AFTER:
            j = int(np.argmax(reduced > PRICE_TOL))
        else:
            j = int(np.argmax(reduced))
        if reduced[j] <= PRICE_TOL:
            return weights, reduced
        alpha = inverse @ W[:, j]
        rows = np.flatnonzero(alpha > PIVOT_TOL)
        if not rows.size:
            raise SolverStall("the LP is unbounded")
        ratios = np.maximum(weights[rows], 0.0) / alpha[rows]
        step = ratios.min()
        tied = rows[ratios == step]
        leave = tied[np.argmin(np.take(basis, tied))]
        basis[leave] = j
        # the basis inverse after the pivot: its row leave divided by the
        # pivot entry, subtracted from every other row in proportion
        pivot = inverse[leave] / alpha[leave]
        inverse -= np.outer(alpha, pivot)
        inverse[leave] = pivot
        degenerate = degenerate + 1 if step <= PIVOT_TOL else 0
    raise SolverStall(f"the LP was not optimal after {PIVOT_CEILING} pricing rounds")


def _phase_one(rows, rhs, start):
    """(W, basis, distance) for the w >= 0 with rows w = rhs, where start
    lists k columns whose entries in the leading k rows are the identity
    and rhs[:k] >= 0: rows with two artificial columns per other row
    appended, a unit column of each sign, a feasible basis of W that
    minimizes the artificials' sum, and that sum, the L1 distance by which
    rows w misses rhs, which is 0 when the system is feasible. The start
    columns begin with the weights rhs[:k], and each other row's gap to rhs
    with the artificial of its sign. The weight LP starts from [0], its
    all-ones row met by the first cloud point."""
    m, n = rows.shape
    k = len(start)
    unit = np.eye(m)[:, k:]
    W = np.hstack([rows, unit, -unit])
    cost = np.concatenate([np.zeros(n), -np.ones(2 * (m - k))])
    gap = rhs[k:] - rows[k:, start] @ rhs[:k]
    basis = [*start, *(n + i + (m - k) * int(g < 0) for i, g in enumerate(gap))]
    weights, _ = _simplex(W, rhs, basis, cost)
    return W, basis, float(-cost[basis] @ weights)


def _cloud_basis(W, rhs, basis, n):
    """(rows, rhs, basis) once _phase_one's artificials leave its basis:
    each is pivoted out on the largest entry of its row among the n
    columns of the LP (a vertex cloud's, for the weight LP), or, when no
    entry exceeds PIVOT_TOL, its row repeats the others and is dropped."""
    kept = list(range(W.shape[0]))
    signed = (W.shape[1] - n) // 2            # artificials of each sign
    while max(basis) >= n:
        p = int(np.argmax(basis))
        sub = W[kept]
        entries = np.linalg.inv(sub[:, basis])[p] @ sub[:, :n]
        j = int(np.argmax(np.abs(entries)))
        if abs(entries[j]) > PIVOT_TOL:
            basis[p] = j
        else:
            kept.remove((basis.pop(p) - n) % signed + W.shape[0] - signed)
    return W[kept, :n], rhs[kept], basis


def maximize(rows, rhs, cost, start):
    """The w >= 0 with rows w = rhs that maximizes cost.w, as an array over
    the columns of rows: _phase_one from the start columns (see there),
    _cloud_basis, then _simplex. Raises SolverStall when phase one misses
    rhs by more than PIVOT_TOL or the simplex stalls."""
    n = rows.shape[1]
    W, basis, distance = _phase_one(rows, rhs, start)
    if distance > PIVOT_TOL:
        raise SolverStall(f"the LP has no feasible point: phase one ends {distance:.3e} "
                          "from its right-hand side")
    rows, rhs, basis = _cloud_basis(W, rhs, basis, n)
    weights, _ = _simplex(rows, rhs, basis, cost)
    w = np.zeros(n)
    w[basis] = weights
    return w
