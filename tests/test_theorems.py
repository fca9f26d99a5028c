"""Theorem gates: the paper's statements checked per scheme, at float
tolerance, rather than against the bytes of an earlier version.

G4. The degraded capacity-equivocation bound is the converse (outer) bound
with U := X1 and V := Q. For a degraded scheme s, let s' be the outer
scheme with p(u|q) = p(x1|q), X1 = U and V = Q. Then
I(U;Y|X2,V) = I(U;Y|X2,Q) = I(X1;Y|X2,Q), I(U;Y2|X2,Q) = I(X1;Y2|X2,Q),
and I(U,X2,Q;Y) = I(X1,X2;Y), because Q - (X1, X2) - Y is a Markov chain.
So DEGRADED on s and OUTER on s' give the same pieces, row for row.

G6 at r0 = 0. The secrecy capacity at common rate 0 is the largest R1 of the
one-set secrecy region over the same scheme stream. A scheme's secrecy
piece is {R1 <= a - d, R0 + R1 <= b - d}, kept when a - d >= 0; its
largest R1 is min(a - d, b - d) when that is >= 0, and it is empty
otherwise. The capacity search scores max(0, min(a - d, b - d - r0)), so
at r0 = 0 the two agree, and a channel whose region is empty reads 0.0.
At r0 > 0 the region time-shares between schemes and the capacity search
does not, so there G6 is no equality, only a containment: a positive
capacity's point (r0, value) lies in the region.

The established degraded region. On binary_degraded(p1, p2) the degraded
bound has an exact one-parameter family of schemes s_beta, whose terms are
closed forms in binary entropies. The printed degraded and one-set secrecy
regions must lie inside the hull of the family's pieces; the containment
tests derive why.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gmacsec import EmptySlice, fixtures as fx
from gmacsec.infotheory import SchemeDegraded, SchemeOneSetOuter
from gmacsec.one_set import DEGRADED, OUTER
from gmacsec.optimizer import SearchConfig, assemble_region, maximize_secrecy_capacity
from gmacsec.regions import bound_pieces, region_contains, region_support

RANDOM_SIZES = ((2, 2, 2, 1, 2), (3, 2, 2, 2, 2), (2, 3, 3, 1, 2), (2, 2, 3, 2, 2))


def _channels():
    channels = {name: build() for name, build in fx.FIXTURE_BUILDERS.items()}
    for seed, sizes in enumerate(RANDOM_SIZES):
        channels[f"random{seed}"] = fx.random_channel(sizes, np.random.default_rng(seed))
    return channels


CHANNELS = _channels()


def _random_degraded(channel, rng):
    nq = int(rng.integers(1, 4))
    return SchemeDegraded(
        p_q_x2=rng.dirichlet(np.ones(nq * channel.size_x2)).reshape(nq, channel.size_x2),
        p_x1_given_q=rng.dirichlet(np.ones(channel.size_x1), size=nq))


def _as_outer(scheme):
    """The outer scheme with U := X1 and V := Q."""
    nq, nx1 = scheme.p_x1_given_q.shape
    return SchemeOneSetOuter(p_q_x2=scheme.p_q_x2, p_u_given_q=scheme.p_x1_given_q,
                             p_x1_given_u=np.eye(nx1), p_v_given_q=np.eye(nq))


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_g4_degraded_is_outer_with_u_x1_and_v_q(name):
    channel = CHANNELS[name]
    rng = np.random.default_rng(sorted(CHANNELS).index(name))
    for _ in range(20):
        scheme = _random_degraded(channel, rng)
        degraded = bound_pieces(DEGRADED, DEGRADED.scheme_terms(scheme, channel))
        outer = bound_pieces(OUTER, OUTER.scheme_terms(_as_outer(scheme), channel))
        assert len(degraded) == len(outer) == 1
        for mine, theirs in zip(degraded, outer):
            assert np.array_equal(mine.A, theirs.A)
            np.testing.assert_allclose(mine.b, theirs.b, rtol=0.0, atol=1e-12)


G6_CONFIG = SearchConfig(strategy="random", sample_count=60, cardinalities=(2, 3, 1),
                         seed=11)


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_g6_capacity_is_the_secrecy_region_top_at_r0_zero(name):
    channel = CHANNELS[name]
    value, _ = maximize_secrecy_capacity(channel, 0.0, G6_CONFIG)
    region = assemble_region(channel, "secrecy-one-set", G6_CONFIG)
    try:
        top = region_support(region, (0.0, 1.0))
    except EmptySlice:
        top = 0.0
    assert value == pytest.approx(top, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_g6_capacity_point_lies_in_the_secrecy_region(name):
    """At r0 > 0 a positive capacity value v = min(a - d, b - d - r0) of
    the winning scheme s gives a - d >= v > 0, so s passes the guard, and
    (r0, v) satisfies both rows of its piece, R1 <= a - d and R0 + R1 <=
    b - d, with r0, v >= 0. The region visits the same scheme stream, so
    the winner's piece, which holds the point, is among its pieces."""
    channel = CHANNELS[name]
    region = assemble_region(channel, "secrecy-one-set", G6_CONFIG)
    for r0 in (0.05, 0.1, 0.2):
        value, _ = maximize_secrecy_capacity(channel, r0, G6_CONFIG)
        if value > 0.0:
            assert region_contains(region, (r0, value), tol=1e-9), r0


# --- the established degraded region on binary_degraded ------------------------

FLIPS = ((0.1, 0.1), (0.05, 0.2), (0.2, 0.05))


def _h(p):
    """Binary entropy in bits, elementwise, with h(0) = h(1) = 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, out)


def _star(u, v):
    """u * v = u(1 - v) + v(1 - u): the flip of two independent flips."""
    return u * (1.0 - v) + v * (1.0 - u)


def _family_terms(beta, p1, p2):
    """(a, b, d) of s_beta on binary_degraded(p1, p2), in closed form:
    a = h(beta * p1) - h(p1), b = 1 - h(p1), d = h(beta * p1 * p2) - h(p1 * p2)."""
    beta = np.asarray(beta, dtype=float)
    a = _h(_star(beta, p1)) - _h(p1)
    b = np.full_like(beta, 1.0 - _h(p1))
    d = _h(_star(_star(beta, p1), p2)) - _h(_star(p1, p2))
    return a, b, d


def _family_scheme(beta):
    """s_beta: Q uniform on two letters, X2 a singleton, p(x1|q) = BSC(beta)."""
    return SchemeDegraded(p_q_x2=np.array([[0.5], [0.5]]),
                          p_x1_given_q=np.array([[1.0 - beta, beta], [beta, 1.0 - beta]]))


def _family(rows, rhs):
    """A bound's pieces of s_beta: its rows, then x >= 0 as -I; the
    subsets of them that make a basis and their inverses; and rhs, the
    right-hand sides of the rows from (a, b, d)."""
    rows = np.vstack([np.array(rows, dtype=float), -np.eye(len(rows[0]))])
    bases = np.array([s for s in itertools.combinations(range(len(rows)), rows.shape[1])
                      if abs(np.linalg.det(rows[list(s)])) > 1e-9])
    return rows, bases, np.linalg.inv(rows[bases]), rhs


# The paper's rows, written out here rather than read from one_set: the
# degraded rows over (R0, R1, Re), R1 <= a, R0 + R1 <= b, Re <= R1,
# Re <= a - d, R0 + Re <= b - d; and the secrecy rows over (R0, R1),
# R1 <= a - d, R0 + R1 <= b - d.
DEGRADED_FAMILY = _family([[0, 1, 0], [1, 1, 0], [0, -1, 1], [0, 0, 1], [1, 0, 1]],
                          lambda a, b, d: [a, b, np.zeros_like(a), a - d, b - d])
SECRECY_FAMILY = _family([[0, 1], [1, 1]], lambda a, b, d: [a - d, b - d])


def _piece_supports(family, beta, p1, p2, directions):
    """max g.x over the piece of s_beta, per beta (rows) and direction g
    (columns), from the feasible basic solutions of the family's rows."""
    rows, bases, inverses, rhs_of = family
    a, b, d = _family_terms(np.atleast_1d(beta), p1, p2)
    rhs = np.stack(rhs_of(a, b, d) + [np.zeros_like(a)] * rows.shape[1], axis=1)
    x = np.einsum("sij,nsj->nsi", inverses, rhs[:, bases])
    feasible = np.all(x @ rows.T <= rhs[:, None, :] + 1e-12, axis=2)
    values = np.where(feasible[..., None], x @ directions.T, -np.inf)
    return values.max(axis=1)


def _family_support(family, p1, p2, directions, points=2001):
    """The family's support per direction: the maximum over beta in [0, 1/2]
    of its piece's support, on a grid and then refined by a bounded scalar
    search between the grid neighbours of the best point."""
    grid = np.linspace(0.0, 0.5, points)
    values = _piece_supports(family, grid, p1, p2, directions)
    best = values.max(axis=0)
    for k, g in enumerate(directions):
        i = int(np.argmax(values[:, k]))
        refined = minimize_scalar(
            lambda beta: -_piece_supports(family, beta, p1, p2, g[None])[0, 0],
            bounds=(grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]),
            method="bounded", options={"xatol": 1e-12})
        best[k] = max(best[k], -refined.fun)
    return best


def _directions(dim):
    """64 seeded unit directions of mixed sign."""
    directions = np.random.default_rng(19).normal(size=(64, dim))
    return directions / np.linalg.norm(directions, axis=1)[:, None]


@pytest.mark.parametrize("p1, p2", FLIPS)
def test_degraded_terms_of_the_family_are_closed_forms(p1, p2):
    channel = fx.binary_degraded(p1, p2)
    for beta in (0.0, 0.1, 0.25, 0.5):
        got = DEGRADED.scheme_terms(_family_scheme(beta), channel)
        want = dict(zip("abd", (float(t) for t in _family_terms(beta, p1, p2))))
        for name in "abd":
            assert got[name] == pytest.approx(want[name], rel=0.0, abs=1e-12), name


@pytest.mark.parametrize("p1, p2", FLIPS)
def test_degraded_region_lies_in_the_closed_form_family(p1, p2):
    """The degraded region at the default config has support at most the
    family's, plus 1e-9, in 64 seeded unit directions of mixed sign.

    On binary_degraded, X2 is a singleton, Y = X1 + Z1 and Y2 = Y + Z2 (mod
    2), with Z1 ~ Bern(p1) and Z2 ~ Bern(p2) independent of each other and
    of (Q, X1). A degraded scheme s then has
        a(s) = H(Y|Q) - h(p1),  b(s) = H(Y) - h(p1),
        d(s) = H(Y2|Q) - h(p1 * p2).
    Every right-hand side of the five rows is nondecreasing in a and b and
    nonincreasing in d. As beta runs over [0, 1/2], a(beta) runs
    continuously over [0, 1 - h(p1)], which holds every a(s); pick beta
    with a(beta) = a(s), so H(Y|Q) = h(beta * p1) under both. Then b(s) <=
    1 - h(p1) = b(beta), since H(Y) <= 1. Mrs. Gerber's Lemma in its
    conditional form (Wyner and Ziv 1973), for Y2 = Y + Z2 with Z2
    independent of (Q, Y), gives H(Y2|Q) >= h(h^-1(H(Y|Q)) * p2) =
    h(beta * p1 * p2), so d(s) >= d(beta). Hence the piece of s lies inside
    the piece of s_beta, and the region, the hull of the searched pieces,
    inside the hull of the family's pieces: its support along any g is at
    most the family's.
    """
    channel = fx.binary_degraded(p1, p2)
    region = assemble_region(channel, "degraded")
    directions = _directions(3)
    got = np.array([region_support(region, g) for g in directions])
    assert np.all(got <= _family_support(DEGRADED_FAMILY, p1, p2, directions) + 1e-9)


@pytest.mark.parametrize("p1, p2", FLIPS)
def test_secrecy_region_lies_in_the_closed_form_family(p1, p2):
    """The one-set secrecy region at the default config has support at most
    the family's secrecy pieces', plus 1e-9, in 64 seeded unit directions
    over (R0, R1).

    For a one-set scheme s, let s' be the degraded scheme with the same
    p(q, x2) and p(x1|q) = sum_u p(u|q) p(x1|u). U - X1 - (Y, Y2) is a
    Markov chain given (X2, Q), so a(s') = I(X1;Y|X2,Q) = a(s) +
    I(X1;Y|U,X2,Q), d(s') = d(s) + I(X1;Y2|U,X2,Q), and b(s') =
    I(X1,X2;Y) = b(s) + I(X1;Y|U,X2,Q). Hence
        (a' - d') - (a - d) = (b' - d') - (b - d)
                            = I(X1;Y|U,X2,Q) - I(X1;Y2|U,X2,Q) >= 0,
    the inequality because Y2 is a degraded copy of Y given (U, X2, Q). So
    SECRECY(s) lies inside DEGRADED_SECRECY(s'), a scheme that fails the
    guard a - d >= 0 has no piece, and one that passes it gives s' that
    passes too. Both secrecy rows are nondecreasing in a and b and
    nonincreasing in d, so the degraded test's argument (a beta with
    a(beta) = a(s'), then b(s') <= b(beta) and, by Mrs. Gerber's Lemma,
    d(s') >= d(beta)) puts DEGRADED_SECRECY(s') inside the family's piece
    of s_beta. The region, the hull of the searched pieces, then lies inside
    the hull of the family's pieces.
    """
    channel = fx.binary_degraded(p1, p2)
    region = assemble_region(channel, "secrecy-one-set")
    directions = _directions(2)
    got = np.array([region_support(region, g) for g in directions])
    assert np.all(got <= _family_support(SECRECY_FAMILY, p1, p2, directions) + 1e-9)
