"""Test-only references and input generators.

search_schemes turns the search's one scheme stream, parameter_rows, into
scheme dataclasses. The rest are slow or definition-level references that
the package itself never calls: per-piece support, slicing and membership
queries, the two-set equivocation set straight from its definition, and a
channel perturbation that keeps every receiver marginal.
"""

import math

import numpy as np

from gmacsec import optimizer
from gmacsec.channel import ChannelSpec
from gmacsec.errors import EmptySlice, Unbounded
from gmacsec.regions import DEDUP_TOL, RatePolytope, _vertex_argmax
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
    rule of regions._vertex_argmax. Raises EmptySlice when the piece is
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
    value, i = _vertex_argmax(verts, d)
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
