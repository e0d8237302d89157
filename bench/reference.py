"""Reference computations written apart from kato_evolve.

Nothing here imports the library.  Each function restates one discrete or
analytic fact the benchmark checks the library's outputs against.
"""

import math

import numpy as np


def trapezoid(h, values):
    """Composite trapezoid sum of node values on a uniform grid with step h."""
    values = np.asarray(values, dtype=float)
    return h * (values.sum() - 0.5 * (values[0] + values[-1]))


def renewal_root(beta, a_max, tol=1e-14):
    """Root r > 0 of beta (1 - e^{-r a_max}) / r = 1, found by bisection.

    The left side falls monotonically from beta a_max at r -> 0, so a root
    exists exactly when beta a_max > 1.
    """
    if beta * a_max <= 1.0:
        raise ValueError("no positive renewal root: beta * a_max <= 1")

    def excess(r):
        return beta * (1.0 - math.exp(-r * a_max)) / r - 1.0

    lo, hi = 1e-12, 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_renewal(beta, h, initial, steps):
    """Scalar renewal march with zero field and constant birth rate beta.

    The age grid has step h and nodes initial.shape[0].  After k steps the
    profile holds newborn values B_{k-i} at ages i <= k and the shifted
    initial data above; B_k is the trapezoid birth integral of that profile,
    whose age-zero node is B_k itself, so each step solves
    B_k (1 - beta h / 2) = beta * (trapezoid sum of the other nodes).
    Returns the profile after ``steps`` steps; zero steps leave the initial
    data unchanged.
    """
    initial = np.asarray(initial, dtype=float)
    if steps == 0:
        return initial.copy()
    n = initial.shape[0] - 1
    births = np.empty(steps + 1)
    births[0] = beta * trapezoid(h, initial)

    def profile(k):
        ages = np.arange(n + 1)
        return np.where(ages <= k, births[np.clip(k - ages, 0, k)],
                        initial[np.clip(ages - k, 0, n)])

    for k in range(1, steps + 1):
        rest = profile(k)
        rest[0] = 0.0
        births[k] = beta * trapezoid(h, rest) / (1.0 - 0.5 * beta * h)
    return profile(steps)


def relative_gap(actual, expected):
    """Largest absolute difference over the largest absolute expected value."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))
