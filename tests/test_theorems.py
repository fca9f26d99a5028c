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
does not, so there G6 is no equality.
"""

import numpy as np
import pytest

from gmacsec import EmptySlice, fixtures as fx
from gmacsec.infotheory import SchemeDegraded, SchemeOneSetOuter
from gmacsec.one_set import DEGRADED, OUTER
from gmacsec.optimizer import SearchConfig, assemble_region, maximize_secrecy_capacity
from gmacsec.regions import bound_pieces, region_support

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
