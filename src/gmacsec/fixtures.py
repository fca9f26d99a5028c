"""Small named channels and input schemes used by tests, docs, and demos.

Each builder returns a fully validated ChannelSpec. The channels are chosen
so that the quantities of interest have hand-checkable values: clean
deterministic access for capacity corners, symmetric flips for closed-form
binary entropy gaps, and degenerate outputs for exact zeros.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSpec, compose_degraded_channel, save_channel, validate_channel
from .errors import whole_number
from .infotheory import SchemeDegraded, SchemeOneSet, SchemeOneSetOuter, SchemeTwoSet


def _assemble(sizes, fill):
    """The channel p(y, y1, y2 | x1, x2) of the given sizes (|X1|, |X2|,
    |Y|, |Y1|, |Y2|), built from a cell filler.

    fill(x1, x2) must return the joint output table of shape
    (|Y|, |Y1|, |Y2|) for that input pair.
    """
    table = np.zeros(sizes)
    for x1 in range(sizes[0]):
        for x2 in range(sizes[1]):
            table[x1, x2] = fill(x1, x2)
    return validate_channel(table, sizes)


def clean_mac() -> ChannelSpec:
    """Noiseless two-sender adder with distinguishable inputs.

    The destination sees the pair (x1, x2) losslessly as a 4-ary symbol;
    both senders' receivers see nothing. Uniform independent inputs give
    one bit from sender 1 with sender 2 known, two bits in total, and zero
    leakage anywhere.
    """
    def fill(x1, x2):
        cell = np.zeros((4, 1, 1))
        cell[2 * x1 + x2, 0, 0] = 1.0
        return cell
    return _assemble((2, 2, 4, 1, 1), fill)


def leaky_wiretap() -> ChannelSpec:
    """Sender 1's input is copied both to the destination and to user 2.

    Whatever the destination can learn about sender 1, user 2 learns as
    well, so no confidential rate survives. The copies are literal, which
    makes the leakage cancellation exact in floating point, not just up to
    rounding.
    """
    def fill(x1, x2):
        cell = np.zeros((2, 1, 2))
        cell[x1, 0, x1] = 1.0
        return cell
    return _assemble((2, 2, 2, 1, 2), fill)


def _bsc(flip: float) -> np.ndarray:
    return np.array([[1 - flip, flip], [flip, 1 - flip]])


def binary_degraded(flip_main: float = 0.1, flip_extra: float = 0.1) -> ChannelSpec:
    """Binary symmetric main link with a further flip toward user 2.

    Physically degraded by construction: user 2's observation is the
    destination's output pushed through a second symmetric flip. Sender 2
    has a singleton alphabet and user 1 sees nothing, so this is the
    classic single-sender eavesdropping setup. With both flips at 0.1 the
    best confidential rate is the binary entropy gap h(0.18) - h(0.1).
    """
    main = _bsc(flip_main).reshape(2, 1, 2)
    degrade = _bsc(flip_extra).reshape(2, 1, 2)
    return compose_degraded_channel(main, degrade)


def pure_noise_wiretap() -> ChannelSpec:
    """Destination copies sender 1; user 2 sees a fair coin.

    User 2's output is independent of everything, so any code keeps its
    confidential message fully hidden from user 2, and every probability in
    the simulator's enumeration is a power of two.
    """
    def fill(x1, x2):
        cell = np.zeros((2, 1, 2))
        cell[x1, 0, :] = 0.5
        return cell
    return _assemble((2, 1, 2, 1, 2), fill)


def blind_destination() -> ChannelSpec:
    """All three outputs are constants; nothing gets through.

    The maximum-likelihood decoder can only guess, so its error is exactly
    1 - 1/M for M equally likely message triples.
    """
    def fill(x1, x2):
        return np.ones((1, 1, 1))
    return _assemble((2, 2, 1, 1, 1), fill)


def noiseless_wiretapper(flip: float = 0.1) -> ChannelSpec:
    """User 2 reads sender 1's input exactly while the destination is noisy.

    The opposite of degraded: user 2 is strictly better informed than the
    destination, so no degradation kernel can reproduce its observation
    from the destination's.
    """
    bsc = _bsc(flip)

    def fill(x1, x2):
        cell = np.zeros((2, 1, 2))
        cell[:, 0, x1] = bsc[x1]
        return cell
    return _assemble((2, 1, 2, 1, 2), fill)


def identity_copy(flip: float = 0.1) -> ChannelSpec:
    """Destination and user 2 see independent flips of the same input.

    The two observations share a conditional law but not their noise, so
    user 2's channel matches the destination's marginal exactly (degraded
    in the stochastic sense) while no per-letter kernel maps one output
    realization to the other (not degraded in the physical sense).
    """
    bsc = _bsc(flip)

    def fill(x1, x2):
        cell = np.outer(bsc[x1], bsc[x1]).reshape(2, 1, 2)
        return cell
    return _assemble((2, 1, 2, 1, 2), fill)


def random_channel(sizes, rng, concentration: float = 1.0) -> ChannelSpec:
    """Random channel with Dirichlet rows, one per input pair.

    sizes is (|X1|, |X2|, |Y|, |Y1|, |Y2|), whole numbers; rng is a numpy
    Generator.
    """
    sx1, sx2, sy, sy1, sy2 = (whole_number("alphabet size", s) for s in sizes)
    block = sy * sy1 * sy2
    rows = rng.dirichlet(np.full(block, concentration), size=sx1 * sx2)
    table = rows.reshape(sx1, sx2, sy, sy1, sy2)
    return validate_channel(table, (sx1, sx2, sy, sy1, sy2))


def uniform_u_equals_x1(channel: ChannelSpec) -> SchemeOneSet:
    """Trivial timesharing, uniform independent inputs, auxiliary = input 1."""
    nx1, nx2 = channel.size_x1, channel.size_x2
    return SchemeOneSet(
        p_q_x2=np.full((1, nx2), 1.0 / nx2),
        p_u_given_q=np.full((1, nx1), 1.0 / nx1),
        p_x1_given_u=np.eye(nx1),
    )


def uniform_one_set_outer(channel: ChannelSpec) -> SchemeOneSetOuter:
    """Outer-bound companion of uniform_u_equals_x1 with a blank extra
    auxiliary: V takes one value."""
    nx1, nx2 = channel.size_x1, channel.size_x2
    return SchemeOneSetOuter(
        p_q_x2=np.full((1, nx2), 1.0 / nx2),
        p_u_given_q=np.full((1, nx1), 1.0 / nx1),
        p_x1_given_u=np.eye(nx1),
        p_v_given_q=np.ones((1, 1)),
    )


def uniform_degraded_scheme(channel: ChannelSpec) -> SchemeDegraded:
    """Uniform inputs, no timesharing, for degraded-channel bounds."""
    nx1, nx2 = channel.size_x1, channel.size_x2
    return SchemeDegraded(
        p_q_x2=np.full((1, nx2), 1.0 / nx2),
        p_x1_given_q=np.full((1, nx1), 1.0 / nx1),
    )


def uniform_two_set_scheme(channel: ChannelSpec) -> SchemeTwoSet:
    """Both auxiliaries equal to their inputs, everything uniform."""
    nx1, nx2 = channel.size_x1, channel.size_x2
    return SchemeTwoSet(
        p_q=np.array([1.0]),
        p_u_given_q=np.full((1, nx1), 1.0 / nx1),
        p_x1_given_u=np.eye(nx1),
        p_v_given_q=np.full((1, nx2), 1.0 / nx2),
        p_x2_given_v=np.eye(nx2),
    )


FIXTURE_BUILDERS = {
    "clean_mac": clean_mac,
    "leaky_wiretap": leaky_wiretap,
    "binary_degraded": binary_degraded,
    "pure_noise_wiretap": pure_noise_wiretap,
    "blind_destination": blind_destination,
    "noiseless_wiretapper": noiseless_wiretapper,
    "identity_copy": identity_copy,
}


def write_fixture_files(directory) -> dict:
    """Serialize every named fixture to <directory>/<name>.json.

    Returns a dict from fixture name to the written path. Used by the CLI
    walkthrough in the README and by end-to-end tests.
    """
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, builder in FIXTURE_BUILDERS.items():
        path = directory / f"{name}.json"
        save_channel(builder(), path)
        paths[name] = path
    return paths
