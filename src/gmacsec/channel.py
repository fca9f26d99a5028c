"""Discrete memoryless GMAC transition laws and degradedness analysis.

A generalized multiple access channel here is a finite conditional law
p(y, y1, y2 | x1, x2): two senders, one destination output y, and one
feedback output per sender (y1 back to sender 1, y2 back to sender 2).
Everything downstream of this module consumes the validated ChannelSpec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeProbability,
    RowSumViolation,
    SolverStall,
)

RECEIVERS = ("destination", "user1", "user2")

# Blocks whose mass deviates from 1 by more than this are rejected outright;
# anything closer is silently renormalized. Clean inputs should be within 1e-9.
ROW_SUM_HARD_TOL = 1e-6

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first call: the import takes
    longer than many commands that never solve an LP."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


@dataclass(frozen=True)
class ChannelSpec:
    """Validated transition law, axis order (x1, x2, y, y1, y2).

    Construct through validate_channel or load_channel rather than directly;
    the dataclass itself only checks the rank.
    """

    prob: np.ndarray

    def __post_init__(self):
        if self.prob.ndim != 5:
            raise DimensionMismatch(
                f"transition table must have 5 axes, got {self.prob.ndim}"
            )

    @property
    def size_x1(self) -> int:
        return self.prob.shape[0]

    @property
    def size_x2(self) -> int:
        return self.prob.shape[1]

    @property
    def size_y(self) -> int:
        return self.prob.shape[2]

    @property
    def size_y1(self) -> int:
        return self.prob.shape[3]

    @property
    def size_y2(self) -> int:
        return self.prob.shape[4]

    @property
    def sizes(self) -> tuple[int, int, int, int, int]:
        return self.prob.shape


@dataclass(frozen=True)
class MarginalKernel:
    """Single-receiver law p(out | x1, x2), axis order (x1, x2, out)."""

    receiver: str
    table: np.ndarray


@dataclass(frozen=True)
class DegradednessCertificate:
    """Outcome of a degradedness test.

    verdict is one of "physically-degraded", "stochastically-degraded",
    "not-degraded". witness, when present, is the degrading kernel
    d(y2 | y, x2) with axis order (y, x2, y2). residual is the largest
    absolute violation of the factorization the witness was asked to satisfy;
    for a passing check it is below the tolerance that was used.
    """

    verdict: str
    witness: np.ndarray | None
    residual: float


def validate_channel(raw_table, alphabet_sizes) -> ChannelSpec:
    """Check and normalize a raw transition table.

    Parameters
    ----------
    raw_table : array-like, shape (x1, x2, y, y1, y2)
        Candidate conditional probabilities.
    alphabet_sizes : sequence of five ints
        Expected (|X1|, |X2|, |Y|, |Y1|, |Y2|).

    Each (x1, x2) block must be nonnegative and sum to 1; deviations up to
    1e-6 are renormalized away, larger ones raise RowSumViolation. Clean
    inputs should already be within 1e-9.
    """
    sizes = tuple(int(s) for s in alphabet_sizes)
    if len(sizes) != 5:
        raise DimensionMismatch(f"expected 5 alphabet sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise DimensionMismatch(f"alphabet sizes must be >= 1, got {sizes}")
    table = np.asarray(raw_table, dtype=float)
    if table.shape != sizes:
        raise DimensionMismatch(
            f"table shape {table.shape} does not match alphabet sizes {sizes}"
        )
    if np.any(table < 0):
        worst = float(table.min())
        raise NegativeProbability(f"negative transition probability {worst}")
    block_sums = table.sum(axis=(2, 3, 4))
    deviation = float(np.abs(block_sums - 1.0).max())
    if deviation > ROW_SUM_HARD_TOL:
        raise RowSumViolation(
            f"some (x1, x2) block sums to 1{deviation:+.3e}; "
            f"tolerance is {ROW_SUM_HARD_TOL}"
        )
    table = table / block_sums[:, :, None, None, None]
    table.setflags(write=False)
    return ChannelSpec(prob=table)


def load_channel(path) -> ChannelSpec:
    """Read a channel JSON file.

    The document carries the five alphabet sizes under keys "x1", "x2", "y",
    "y1", "y2" and the nested transition table under "p", indexed
    [x1][x2][y][y1][y2].
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        sizes = tuple(int(doc[k]) for k in ("x1", "x2", "y", "y1", "y2"))
        raw = doc["p"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed channel file {path}: {exc}")
    return validate_channel(np.asarray(raw, dtype=float), sizes)


def save_channel(spec: ChannelSpec, path) -> None:
    """Write a ChannelSpec as channel JSON (inverse of load_channel)."""
    doc = {
        "x1": spec.size_x1,
        "x2": spec.size_x2,
        "y": spec.size_y,
        "y1": spec.size_y1,
        "y2": spec.size_y2,
        "p": spec.prob.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def marginal_kernel(spec: ChannelSpec, receiver: str) -> MarginalKernel:
    """Marginalize the transition law onto one receiver's output."""
    if receiver == "destination":
        table = spec.prob.sum(axis=(3, 4))
    elif receiver == "user1":
        table = spec.prob.sum(axis=(2, 4))
    elif receiver == "user2":
        table = spec.prob.sum(axis=(2, 3))
    else:
        raise ValueError(f"receiver must be one of {RECEIVERS}, got {receiver!r}")
    table = np.ascontiguousarray(table)
    table.setflags(write=False)
    return MarginalKernel(receiver=receiver, table=table)


def check_physically_degraded(spec: ChannelSpec, tol: float = 1e-7) -> DegradednessCertificate:
    """Test whether p(y, y2 | x1, x2) factors as p(y | x1, x2) d(y2 | y, x2).

    The candidate kernel is recovered by conditioning: for each (y, x2) the
    row d(. | y, x2) is read off from the sender value x1 giving y the most
    mass, then cross-checked against every other x1. Pairs (y, x2) that no
    input can reach are filled uniformly since the factorization never
    constrains them. The reported residual is the largest absolute gap in
    the factorization; the verdict passes when it is at most tol.
    """
    joint = spec.prob.sum(axis=3)          # (x1, x2, y, y2)
    p_y = joint.sum(axis=3)                # (x1, x2, y)
    nx1, nx2, ny, ny2 = joint.shape
    witness = np.full((ny, nx2, ny2), 1.0 / ny2)
    for x2 in range(nx2):
        for y in range(ny):
            x1_star = int(np.argmax(p_y[:, x2, y]))
            mass = p_y[x1_star, x2, y]
            if mass > 1e-12:
                witness[y, x2, :] = joint[x1_star, x2, y, :] / mass
    reconstructed = p_y[:, :, :, None] * witness.transpose(1, 0, 2)[None, :, :, :]
    residual = float(np.abs(joint - reconstructed).max())
    verdict = "physically-degraded" if residual <= tol else "not-degraded"
    witness.setflags(write=False)
    return DegradednessCertificate(verdict=verdict, witness=witness, residual=residual)


def check_stochastically_degraded(spec: ChannelSpec, tol: float = 1e-7) -> DegradednessCertificate:
    """Search for a kernel d(y2 | y, x2) matching the user-2 marginal.

    Solves min t over row-stochastic d such that
    | sum_y p(y | x1, x2) d(y2 | y, x2) - p(y2 | x1, x2) | <= t for every
    (x1, x2, y2). The channel is stochastically degraded when the optimum
    is at most tol. Only the single-output marginals enter, so a channel
    that is physically degraded always passes here too.
    """
    p_y = marginal_kernel(spec, "destination").table     # (x1, x2, y)
    p_y2 = marginal_kernel(spec, "user2").table          # (x1, x2, y2)
    nx1, nx2, ny = p_y.shape
    ny2 = p_y2.shape[2]
    nz = ny * nx2 * ny2                                  # witness entries
    var_index = lambda y, x2, y2: (y * nx2 + x2) * ny2 + y2

    # equalities: each (y, x2) row of the witness sums to one
    a_eq = np.zeros((ny * nx2, nz + 1))
    b_eq = np.ones(ny * nx2)
    for y in range(ny):
        for x2 in range(nx2):
            for y2 in range(ny2):
                a_eq[y * nx2 + x2, var_index(y, x2, y2)] = 1.0

    # inequalities: marginal match within t, both directions
    n_match = nx1 * nx2 * ny2
    a_ub = np.zeros((2 * n_match, nz + 1))
    b_ub = np.zeros(2 * n_match)
    row = 0
    for x1 in range(nx1):
        for x2 in range(nx2):
            for y2 in range(ny2):
                for y in range(ny):
                    a_ub[row, var_index(y, x2, y2)] = p_y[x1, x2, y]
                    a_ub[row + 1, var_index(y, x2, y2)] = -p_y[x1, x2, y]
                a_ub[row, nz] = -1.0
                a_ub[row + 1, nz] = -1.0
                b_ub[row] = p_y2[x1, x2, y2]
                b_ub[row + 1] = -p_y2[x1, x2, y2]
                row += 2

    cost = np.zeros(nz + 1)
    cost[nz] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (nz + 1), method="highs", options=_LP_OPTIONS)
    if res.status != 0:
        raise SolverStall(
            f"degradedness LP ended with status {res.status}: {res.message}"
        )
    residual = float(res.fun)
    if residual <= tol:
        witness = np.asarray(res.x[:nz]).reshape(ny, nx2, ny2)
        witness = np.clip(witness, 0.0, None)
        witness = witness / witness.sum(axis=2, keepdims=True)
        witness.setflags(write=False)
        return DegradednessCertificate("stochastically-degraded", witness, residual)
    return DegradednessCertificate("not-degraded", None, residual)


def compose_degraded_channel(main, degrade, side=None) -> ChannelSpec:
    """Build a physically degraded GMAC from its factors.

    Parameters
    ----------
    main : array, shape (x1, x2, y)
        Destination law p(y | x1, x2).
    degrade : array, shape (y, x2, y2)
        Degrading kernel d(y2 | y, x2).
    side : array, shape (x1, x2, y1), optional
        Feedback law to sender 1. Omitted means a constant |Y1| = 1 output.

    The result satisfies p(y, y1, y2 | x1, x2) =
    main(y | x1, x2) side(y1 | x1, x2) degrade(y2 | y, x2).
    """
    main = np.asarray(main, dtype=float)
    degrade = np.asarray(degrade, dtype=float)
    if main.ndim != 3:
        raise DimensionMismatch("main law must have shape (x1, x2, y)")
    nx1, nx2, ny = main.shape
    if degrade.ndim != 3 or degrade.shape[0] != ny or degrade.shape[1] != nx2:
        raise DimensionMismatch(
            f"degrading kernel shape {degrade.shape} incompatible with "
            f"main law {main.shape}; expected ({ny}, {nx2}, *)"
        )
    if side is None:
        side = np.ones((nx1, nx2, 1))
    side = np.asarray(side, dtype=float)
    if side.ndim != 3 or side.shape[:2] != (nx1, nx2):
        raise DimensionMismatch(
            f"side law shape {side.shape} incompatible with ({nx1}, {nx2}, *)"
        )
    for name, kernel in (("main", main), ("degrade", degrade), ("side", side)):
        sums = kernel.sum(axis=-1)
        if np.abs(sums - 1.0).max() > ROW_SUM_HARD_TOL:
            raise RowSumViolation(f"{name} kernel rows must sum to 1")
    ny2 = degrade.shape[2]
    ny1 = side.shape[2]
    prob = np.einsum("aby,abw,ybz->abywz", main, side, degrade)
    return validate_channel(prob, (nx1, nx2, ny, ny1, ny2))


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
