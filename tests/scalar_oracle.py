"""A scalar reference for entropy and mutual information of one dense joint.

Each function takes the joint's probability array and its variable names.
A marginal's entropy is -sum p log2 p over its positive masses, sorted
ascending and summed by one numpy sum, with 0 log 0 = 0. Nothing here
checks the table or calls the package's entropy kernel, which the tests
compare with these values by float.hex.
"""

import functools

import numpy as np

from gmacsec.infotheory import _assemble_joint


def _names(names) -> tuple:
    return (names,) if isinstance(names, str) else tuple(names)


def marginal_entropy(prob, variables, names) -> float:
    """H of the marginal over names, in bits."""
    if not names:
        return 0.0
    keep = {tuple(variables).index(n) for n in names}
    drop = tuple(i for i in range(prob.ndim) if i not in keep)
    marg = prob.sum(axis=drop) if drop else prob
    flat = marg.reshape(-1)
    flat = np.sort(flat[flat > 0])
    return float(-np.sum(flat * np.log2(flat)))


def entropy(prob, variables, targets, given=()) -> float:
    """H(targets | given) in bits."""
    targets, given = _names(targets), _names(given)
    return (marginal_entropy(prob, variables, targets + given)
            - marginal_entropy(prob, variables, given))


def mutual_information(prob, variables, a, b, given=()) -> float:
    """I(a; b | given) in bits, clamped at 0."""
    a, b, given = _names(a), _names(b), _names(given)
    h = functools.partial(marginal_entropy, prob, variables)
    value = h(a + given) - h(given) - h(a + b + given) + h(b + given)
    return max(value, 0.0)


def scheme_joint(scheme, channel):
    """A scheme's joint as (prob, variables): its stack of one, unstacked."""
    joint = _assemble_joint(scheme, channel)
    return joint.prob[0], joint.variables
