"""Frozen-time age propagator.

For a frozen time t, the matrix field a -> A(t, a) generates a two-parameter
family U_t(a, s), s <= a, moving spatial values along the age direction.  On
the node grid the family is realized as a product of one-cell step maps, so
the cocycle identity U_t(a, r) U_t(r, s) = U_t(a, s) holds exactly by
construction (the same matrices are applied in the same order).

Step maps follow the exponential midpoint rule: the matrix exponential of
the midpoint-frozen matrix over each cell (locally second order), so each
map is an exact frozen-generator semigroup over its cell.

This module owns the scenario's per-operator store (``scenario.caches``),
which starts empty with every scenario.  It maps each frozen time t to a
frozen-time record, which owns two things: the step maps of every cell at t
as one stack of shape (n_age, d, d), and the longest birth trajectory per
profile that the renewal module marched at t.  Frozen times with bit-equal
sampled generators share one record, and :func:`_share_frozen` gives a
Picard step the records of the step before it at the frozen times where
the two fields are provably bit-equal.  The stack is built by one batched
Taylor scaling-and-squaring kernel that needs matrix products only
(``np.exp`` for d = 1).  The store also keeps the default stability
constants.  The node chain U_t(a_i, 0) is built only on request and never cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    StabilityConstants,
    ValidationError,
    graph_to_graph_norm,
    matrix_norm,
)

__all__ = [
    "chain_matrices",
    "default_constants",
    "estimate_bounds",
    "growth_bound",
]


# Degree-18 Taylor scaling and squaring: a matrix of 1-norm at most
# _THETA_18 has its exponential's truncated series within unit roundoff in
# backward error (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011), Table 3.1).
_THETA_18 = 1.09
_TAYLOR_18 = tuple(1.0 / math.factorial(k) for k in range(19))
# Matrices per pass of the kernel: its six workspace arrays hold this many,
# so its extra memory does not grow with the number of cells.
_CHUNK = 8


def _expm_stack(gens, norms):
    """Overwrite each d x d matrix of the stack ``gens`` with its exponential.

    ``norms`` holds each matrix's 1-norm |X|_1.  Scaling and squaring:
    matrix X gets its own power s = max(0, ceil(log2(|X|_1 / theta_18))),
    the degree-18 Taylor polynomial of X / 2^s is evaluated by
    Paterson-Stockmeyer (X^2, X^3, X^4, then four Horner steps in X^4: seven
    batched products and no linear solve), and the result is squared s
    times.  Matrices are taken in a stable order of s, a chunk at a time,
    through one reused workspace.  Every operation acts on one matrix at a
    time, so a matrix's result depends on that matrix only: a whole stack,
    any sub-range and a single matrix give bit-equal maps.
    """
    n, d, _ = gens.shape
    ratio = norms / _THETA_18
    powers = np.zeros(n, dtype=int)
    big = ratio > 1.0
    powers[big] = np.ceil(np.log2(ratio[big]))
    order = np.argsort(powers, kind="stable")
    work = np.empty((6, min(n, _CHUNK), d, d))
    c = _TAYLOR_18
    for lo in range(0, n, _CHUNK):
        idx = order[lo:lo + _CHUNK]
        s = powers[idx]
        x, x2, x3, x4, r, tmp = work[:, :len(idx)]
        np.multiply(gens[idx], np.ldexp(1.0, -s)[:, None, None], out=x)
        np.matmul(x, x, out=x2)
        np.matmul(x2, x, out=x3)
        np.matmul(x2, x2, out=x4)
        # r = c16 I + c17 X + c18 X^2, then r <- r X^4 + sum_i c_{4j+i} X^i
        np.multiply(x2, c[18], out=r)
        np.multiply(x, c[17], out=tmp)
        r += tmp
        r.reshape(len(idx), -1)[:, ::d + 1] += c[16]
        for j in (12, 8, 4, 0):
            np.matmul(r, x4, out=tmp)
            r, tmp = tmp, r
            for power, term in ((1, x), (2, x2), (3, x3)):
                np.multiply(term, c[j + power], out=tmp)
                r += tmp
            r.reshape(len(idx), -1)[:, ::d + 1] += c[j]
        for k in range(int(s[-1])):
            first = np.searchsorted(s, k, side="right")
            np.matmul(r[first:], r[first:], out=tmp[first:])
            r[first:] = tmp[first:]
        gens[idx] = r
    return gens


def _generators(scenario, t, j_from, j_to):
    """h A(t, a) at the midpoints of cells j_from .. j_to-1, and each one's 1-norm.

    The field is sampled once, in one call; the norms both set the kernel's
    squarings and fingerprint the stack for the frozen-time store.
    """
    h = scenario.age_grid.step
    gens = scenario.operator.sample(t, (np.arange(j_from, j_to) + 0.5) * h)
    gens *= h
    return gens, np.abs(gens).sum(axis=1).max(axis=1)


def _step_stack(scenario, t, j_from, j_to, sampled=None):
    """Midpoint step maps of cells j_from .. j_to-1 at frozen time t, uncached.

    ``sampled`` is the cells' ``_generators`` when the caller already has
    them; they are overwritten.  The whole stack is exponentiated in one
    batched call (``np.exp`` for d = 1).  A map that overflows raises
    ValidationError naming the first such cell.
    """
    gens, norms = sampled or _generators(scenario, t, j_from, j_to)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.exp(gens) if scenario.dim == 1 else _expm_stack(gens, norms)
    finite = np.isfinite(steps).all(axis=(1, 2))
    if not finite.all():
        cell = j_from + int(np.argmin(finite))
        h = scenario.age_grid.step
        raise ValidationError(
            f"step map is not finite at t={float(t)!r}, cell {cell} "
            f"(a={(cell + 0.5) * h!r})"
        )
    return steps


@dataclass(eq=False)
class _FrozenTime:
    """What the frozen generator A(t) fixes at the times that share it.

    ``steps`` is the read-only (n_age, d, d) stack of the step maps of every
    cell, built at time ``t`` from generators whose 1-norms are ``norms``.
    ``trajectories`` maps profile bytes to the longest BirthTrajectory
    marched from that profile under these maps.
    """

    steps: np.ndarray
    t: float
    norms: np.ndarray
    trajectories: dict = field(default_factory=dict)


def _frozen(scenario, t):
    """The frozen-time record at a finite t, its step maps built on first use.

    A time whose sampled generators equal, bit for bit, those of a record
    built at another time gets that record: the norms pick candidates and
    a fresh sample at the candidate's time confirms them.
    """
    frozen = scenario.caches.get(t)
    if frozen is None:
        if not math.isfinite(t):
            raise ValidationError(f"frozen time must be finite, got {t!r}")
        n = scenario.age_grid.n_age
        gens, norms = _generators(scenario, t, 0, n)
        # each record once, under the time it was built at
        frozen = next((r for key, r in scenario.caches.items()
                       if isinstance(r, _FrozenTime) and key == r.t
                       and np.array_equal(r.norms, norms)
                       and np.array_equal(_generators(scenario, key, 0, n)[0], gens)), None)
        if frozen is None:
            steps = _step_stack(scenario, t, 0, n, (gens, norms))
            steps.flags.writeable = False
            frozen = _FrozenTime(steps, t, norms)
        scenario.caches[t] = frozen
    return frozen


def _share_frozen(src, dst, same):
    """Give ``dst`` the records ``src`` holds where ``same(t)`` proves the generators bit-equal."""
    if src._kernel is dst._kernel:  # a record keeps birth trajectories
        dst.caches.update((t, r) for t, r in src.caches.items()
                          if isinstance(r, _FrozenTime) and same(t))


def _carry(steps, v):
    """steps[-1] @ ... @ steps[0] @ v, applied one step at a time (v for none)."""
    for step in steps:
        v = step @ v
    return v


def chain_matrices(scenario, t):
    """Read-only stack of U_t(a_i, 0) per node, (n_age + 1, d, d), built per call."""
    steps = _frozen(scenario, t).steps
    chain = np.empty((steps.shape[0] + 1, scenario.dim, scenario.dim))
    chain[0] = np.eye(scenario.dim)
    for j, step in enumerate(steps):
        np.matmul(step, chain[j], out=chain[j + 1])
    chain.flags.writeable = False
    return chain


def propagate_indices(scenario, t, j_from, j_to, v0):
    """Apply the step maps for cells j_from .. j_to-1 to a spatial vector."""
    if j_from > j_to:
        raise ValidationError(f"start index {j_from} exceeds end index {j_to}")
    n = scenario.age_grid.n_age
    if j_from < j_to and (j_from < 0 or j_to > n):
        raise ValidationError(f"cell range [{j_from}, {j_to}) outside [0, {n})")
    v = np.array(v0, dtype=float)
    if j_from == j_to:
        return v
    return _carry(_frozen(scenario, t).steps[j_from:j_to], v)


def _fit_exponential_bound(samples):
    """Smallest growth rate, then smallest prefactor >= 1, covering samples.

    ``samples`` holds (norm_value, age_span) pairs with span >= 0.
    """
    omega = max(
        (np.log(g) / span for g, span in samples if span > 0 and g > 0),
        default=0.0,
    )
    m = max([1.0] + [g * np.exp(-omega * span) for g, span in samples])
    return m, omega


def estimate_bounds(scenario):
    """Empirical stability constants from sampled propagator norms.

    The base-norm constants cover exact induced matrix norms of U_0(a, s)
    on 24 node pairs drawn from a generator seeded with 0, read from the
    cached stack at frozen time 0.  Both norms' constants also cover 24
    sampled compositions of one to three factors at nondecreasing times
    drawn from the scenario's time horizon, in the base norm and in the
    graph norm against the reference operator; each of those random times
    is used once, so only its sampled cells are built, in one batched call,
    and nothing is cached for it.  The returned constants satisfy their
    bound on every sampled composition by construction; they are sampled
    estimates, not certificates.
    """
    samples = 24
    rng = np.random.default_rng(0)
    g = scenario.age_grid
    n = g.n_age
    h = g.step

    def sample_pair():
        j_to = int(rng.integers(1, n + 1))
        j_from = int(rng.integers(0, j_to))
        return j_from, j_to

    steps = _frozen(scenario, 0.0).steps
    frozen = [(1.0, 0.0)]  # U(a, a) = identity
    base_prods = [(1.0, 0.0)]
    graph_prods = [(1.0, 0.0)]
    for _ in range(samples):
        j_from, j_to = sample_pair()
        mat = _carry(steps[j_from:j_to], np.eye(scenario.dim))
        span = (j_to - j_from) * h
        frozen.append((matrix_norm(mat, scenario.norm), span))

    horizon = scenario.time_grid.horizon
    for _ in range(samples):
        k = int(rng.integers(1, 4))
        times = np.sort(rng.uniform(0.0, horizon, size=k))
        mat = np.eye(scenario.dim)
        span = 0.0
        for tj in times:
            j_from, j_to = sample_pair()
            cells = _step_stack(scenario, float(tj), j_from, j_to)
            # carrying mat itself would reassociate the product
            mat = _carry(cells, np.eye(scenario.dim)) @ mat
            span += (j_to - j_from) * h
        base_prods.append((matrix_norm(mat, scenario.norm), span))
        graph_prods.append((graph_to_graph_norm(scenario._kernel, mat), span))

    m0, omega0 = _fit_exponential_bound(frozen + base_prods)
    m1, omega1 = _fit_exponential_bound(graph_prods)
    return StabilityConstants(
        m0=m0,
        omega0=omega0,
        m1=max(m1, 1.0),
        omega1=omega1,
    )


def default_constants(scenario):
    """Scenario-level constants, estimated once and kept in the scenario's store."""
    key = "default_constants"
    if key not in scenario.caches:
        scenario.caches[key] = estimate_bounds(scenario)
    return scenario.caches[key]


def growth_bound(scenario, ell):
    """(M_ell, omega_ell + M_ell |b|_ell): a bound's prefactor and rate with births.

    ell = 0 is the base norm, ell = 1 the graph norm; the constants are the
    scenario's :func:`default_constants`.  Every bound takes its rate from here.
    """
    if ell not in (0, 1):
        raise ValidationError("ell must be 0 or 1")
    c = default_constants(scenario)
    m, omega = (c.m0, c.omega0) if ell == 0 else (c.m1, c.omega1)
    return m, omega + m * scenario.birth_norm(ell)
