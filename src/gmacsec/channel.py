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
    finite_nonnegative,
    whole_number,
)
from .lp import maximize

RECEIVERS = ("destination", "user1", "user2")

# Blocks whose mass deviates from 1 by more than this are rejected outright;
# anything closer is silently renormalized. Clean inputs should be within 1e-9.
ROW_SUM_HARD_TOL = 1e-6

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
    alphabet_sizes : sequence of five whole numbers
        Expected (|X1|, |X2|, |Y|, |Y1|, |Y2|); a boolean or a fractional
        size raises DimensionMismatch.

    Each (x1, x2) block must be nonnegative and sum to 1; deviations up to
    1e-6 are renormalized away, larger ones raise RowSumViolation. Clean
    inputs should already be within 1e-9.
    """
    try:
        sizes = tuple(whole_number("alphabet size", s) for s in alphabet_sizes)
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from exc
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
    if not deviation <= ROW_SUM_HARD_TOL:   # NaN fails too
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
    [x1][x2][y][y1][y2]. The sizes go to validate_channel as written, so a
    fractional or boolean size raises DimensionMismatch.
    """
    with open(path, "rb") as fh:
        return parse_channel(fh.read(), path)


def parse_channel(data, source) -> ChannelSpec:
    """The ChannelSpec in data, the UTF-8 bytes of a channel JSON file
    (see load_channel); source names the file in errors. A caller that
    also digests the file parses and digests the same bytes, read once."""
    doc = json.loads(data.decode("utf-8"))
    try:
        sizes = [doc[k] for k in ("x1", "x2", "y", "y1", "y2")]
        table = np.asarray(doc["p"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed channel file {source}: {exc}")
    return validate_channel(table, sizes)


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


def marginal_kernel(spec: ChannelSpec, receiver: str) -> np.ndarray:
    """Marginalize the transition law onto one receiver's output: the law
    p(out | x1, x2) as a read-only array, axis order (x1, x2, out)."""
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
    return table


def check_physically_degraded(spec: ChannelSpec, tol: float = 1e-7) -> DegradednessCertificate:
    """Test whether p(y, y2 | x1, x2) factors as p(y | x1, x2) d(y2 | y, x2).

    The candidate kernel is recovered by conditioning: for each (y, x2) the
    row d(. | y, x2) is read off from the sender value x1 giving y the most
    mass, then cross-checked against every other x1. Pairs (y, x2) that no
    input can reach are filled uniformly since the factorization never
    constrains them. The reported residual is the largest absolute gap in
    the factorization; the verdict passes when it is at most tol, which
    must be a finite number >= 0.
    """
    tol = finite_nonnegative("tol", tol)
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


def _degradedness_lp(p_y, p_y2):
    """(rows, rhs, cost, start) of one x2's kernel LP, for lp.maximize:
    p_y is p(y | x1) and p_y2 is p(y2 | x1) at that x2, each with x1 on
    axis 0. The columns are the kernel entries d(y2 | y) in (y, y2) order,
    then t, then one slack per match row. The leading rows make each y's
    kernel sum to one; then each (x1, y2), in that order, has a pair of
    match rows, sum_y p(y | x1) d(y2 | y) - t + s = p(y2 | x1) and its
    negation's, - sum_y p(y | x1) d(y2 | y) - t + s' = - p(y2 | x1), so
    the mismatch is at most t both ways. The cost is -t, and the start
    columns are the entries d(0 | y), which meet the leading rows."""
    nx1, ny = p_y.shape
    ny2 = p_y2.shape[1]
    nz, n_match = ny * ny2, 2 * nx1 * ny2
    match = np.kron(p_y, np.eye(ny2))                 # rows (x1, y2), columns (y, y2)
    rows = np.zeros((ny + n_match, nz + 1 + n_match))
    rows[:ny, :nz] = np.repeat(np.eye(ny), ny2, axis=1)
    rows[ny:, :nz] = np.stack([match, -match], axis=1).reshape(n_match, nz)
    rows[ny:, nz] = -1.0
    rows[ny:, nz + 1:] = np.eye(n_match)
    rhs = np.concatenate([np.ones(ny), np.stack([p_y2, -p_y2], axis=-1).ravel()])
    cost = np.zeros(rows.shape[1])
    cost[nz] = -1.0
    return rows, rhs, cost, list(range(0, nz, ny2))


def check_stochastically_degraded(spec: ChannelSpec, tol: float = 1e-7) -> DegradednessCertificate:
    """Search for a kernel d(y2 | y, x2) matching the user-2 marginal.

    Solves min t over row-stochastic d such that
    | sum_y p(y | x1, x2) d(y2 | y, x2) - p(y2 | x1, x2) | <= t for every
    (x1, x2, y2). Each x2 has its own kernel rows, so the minimum is the
    largest over x2 of one small LP per x2 (see _degradedness_lp), each
    solved by lp.maximize. The optimal kernel, its rows clipped at zero
    and renormalized, carries the simplex's rounding, while the
    conditioning kernel of check_physically_degraded is exact on a channel
    composed as physically degraded. The residual is the smaller of the
    two kernels' largest mismatches, so an exact kernel reports 0, and the
    witness is the kernel that attains it. The channel is stochastically
    degraded when the residual is at most tol, which must be a finite
    number >= 0 and is checked before any LP runs, and only then is the
    witness returned. The LP reads only the single-output marginals, so a
    channel that is physically degraded always passes here too.
    """
    tol = finite_nonnegative("tol", tol)
    return _stochastically_degraded(spec, tol, check_physically_degraded(spec).witness)


def _stochastically_degraded(spec: ChannelSpec, tol: float,
                             conditioning: np.ndarray) -> DegradednessCertificate:
    """check_stochastically_degraded at a checked tol, given the
    conditioning kernel of check_physically_degraded, which does not
    depend on tol, so a caller that already holds it skips that pass."""
    p_y = marginal_kernel(spec, "destination")     # (x1, x2, y)
    p_y2 = marginal_kernel(spec, "user2")          # (x1, x2, y2)
    nx1, nx2, ny = p_y.shape
    ny2 = p_y2.shape[2]
    witness = np.empty((ny, nx2, ny2))
    for x2 in range(nx2):
        w = maximize(*_degradedness_lp(p_y[:, x2], p_y2[:, x2]))
        witness[:, x2] = w[:ny * ny2].reshape(ny, ny2)
    witness = np.clip(witness, 0.0, None)
    witness /= witness.sum(axis=2, keepdims=True)
    witness.setflags(write=False)
    kernels = (witness, conditioning)
    mismatch = [float(np.abs(np.einsum("aby,ybz->abz", p_y, d) - p_y2).max())
                for d in kernels]
    residual = min(mismatch)
    if residual <= tol:
        return DegradednessCertificate("stochastically-degraded",
                                       kernels[mismatch.index(residual)], residual)
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
        if not np.abs(sums - 1.0).max() <= ROW_SUM_HARD_TOL:
            raise RowSumViolation(f"{name} kernel rows must sum to 1")
    ny2 = degrade.shape[2]
    ny1 = side.shape[2]
    prob = np.einsum("aby,abw,ybz->abywz", main, side, degrade)
    return validate_channel(prob, (nx1, nx2, ny, ny1, ny2))
