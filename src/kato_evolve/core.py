"""Core types and discrete norms for age-structured population states.

A state is a profile over an age interval [0, a_max], sampled on a uniform
node grid, with values in R^d.  The continuous object behind it is an
L1-in-age function with values in a d-dimensional spatial space; every norm
here is a composite-trapezoid discretization of the corresponding integral
norm.  Scenarios bundle the grids with the age/time dependent generator
matrix field A(t, a), the birth (renewal) kernel b(a), a reference operator
used for graph norms, and tolerance settings.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

__all__ = [
    "ConfigError",
    "ValidationError",
    "GridAlignmentError",
    "ConvergenceError",
    "AgeGrid",
    "TimeGrid",
    "StateVector",
    "OperatorField",
    "BirthKernel",
    "Tolerances",
    "StabilityConstants",
    "Scenario",
    "spatial_norm",
    "matrix_norm",
    "state_norm",
    "graph_state_norm",
    "lp_age_norm",
    "upwind_derivative",
    "apply_generator",
    "birth_quadrature",
    "check_birth_balance",
    "neumann_laplacian",
    "build_scenario",
    "preset_scenario",
    "refine_scenario",
    "make_profile",
    "PRESET_NAMES",
    "PROFILE_NAMES",
]


class ConfigError(ValueError):
    """Malformed scenario configuration (unknown or unparseable field)."""


class ValidationError(ValueError):
    """Structurally valid configuration with inconsistent values."""


class GridAlignmentError(ValueError):
    """An age, duration, or time does not sit on the required grid."""


class ConvergenceError(RuntimeError):
    """An iterative construction failed to reach its tolerance.

    Carries the observed gap history in ``history`` for diagnostics.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = tuple(history) if history is not None else ()


def _align_index(value, step, count, what):
    """Map ``value`` to its node index on a uniform grid, or raise."""
    if not np.isfinite(value):
        raise GridAlignmentError(f"{what} must be finite, got {value!r}")
    k = int(round(value / step))
    if abs(value - k * step) > 1e-9 * max(1.0, abs(value)):
        raise GridAlignmentError(
            f"{what} = {value!r} is not aligned to the grid step {step!r}; "
            f"nearest node is {k * step!r}"
        )
    if k < 0 or k > count:
        raise GridAlignmentError(
            f"{what} = {value!r} lies outside the grid [0, {count * step!r}]"
        )
    return k


@dataclass(frozen=True)
class AgeGrid:
    """Uniform node grid on [0, a_max] with n_age cells (n_age + 1 nodes)."""

    a_max: float
    n_age: int

    def __post_init__(self):
        if not (np.isfinite(self.a_max) and self.a_max > 0):
            raise ValidationError("a_max must be finite and positive")
        if self.n_age < 1:
            raise ValidationError("n_age must be at least 1")

    @property
    def step(self):
        return self.a_max / self.n_age

    @cached_property
    def nodes(self):
        nodes = np.linspace(0.0, self.a_max, self.n_age + 1)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def weights(self):
        """Composite trapezoid weights (end nodes carry 1/2)."""
        w = np.ones(self.n_age + 1)
        w[0] = w[-1] = 0.5
        w.flags.writeable = False
        return w

    def index_of(self, value, what="age offset"):
        return _align_index(value, self.step, 10**9, what)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform node grid on [0, horizon] with n_time cells."""

    horizon: float
    n_time: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError("horizon must be finite and positive")
        if self.n_time < 1:
            raise ValidationError("n_time must be at least 1")

    @property
    def step(self):
        return self.horizon / self.n_time

    @property
    def nodes(self):
        nodes = np.linspace(0.0, self.horizon, self.n_time + 1)
        nodes.flags.writeable = False
        return nodes


def _freeze(values):
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
    """Age profile sampled on grid nodes; ``values`` has shape (n_age+1, d).

    Arrays are frozen on construction.  All operations treat states as
    immutable and return new instances.
    """

    grid: AgeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape[0] != self.grid.n_age + 1:
            raise ValidationError(
                f"state has {arr.shape[0]} rows, grid has {self.grid.n_age + 1} nodes"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("state values must be finite")
        if not arr.flags.writeable:
            object.__setattr__(self, "values", arr)
        else:
            object.__setattr__(self, "values", _freeze(arr))

    @property
    def dim(self):
        return self.values.shape[1]

    def with_values(self, values):
        return StateVector(self.grid, values)


def _sample(evaluate, ages, dim, what, at="", out=None):
    """evaluate(ages) as one (len(ages), d, d) stack, checked once.

    A wrong shape or a non-finite entry at any age raises ValidationError;
    the finiteness message names the first bad age.  Overflow inside the
    evaluator is left to that message instead of a warning of its own.
    The stack is copied into ``out`` when given, else into a new array.
    """
    ages = np.asarray(ages, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.asarray(evaluate(ages), dtype=float)
    if stack.shape != (len(ages), dim, dim):
        raise ValidationError(
            f"{what} returned shape {stack.shape}, expected {(len(ages), dim, dim)}"
        )
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValidationError(
            f"{what} is not finite at {at}a={float(ages[np.argmin(finite)])!r}"
        )
    if out is None:
        return np.array(stack)
    out[...] = stack
    return out


def _check_lipschitz_t(lipschitz_t):
    """Reject a declared time-Lipschitz constant that is not finite and >= 0."""
    if lipschitz_t is not None and not (np.isfinite(lipschitz_t) and lipschitz_t >= 0):
        raise ValidationError("lipschitz_t must be a nonnegative real or None")


def _check_count(value, least, what):
    """Reject a count that is not an integer (a bool is not one) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{what} must be at least {least}")


@dataclass(frozen=True)
class OperatorField:
    """Age/time dependent generator matrix field A(t, a), d x d per age.

    ``evaluate(t, ages)`` takes a frozen time and a 1-d float array of ages
    and returns the (len(ages), d, d) stack of A(t, a) over them; it must be
    deterministic.  It is called once per sample, never once per age.
    ``lipschitz_t`` is an optional declared Lipschitz constant of
    t -> A(t, .) in the operator norm; 0.0 marks a field with no time
    dependence: the evolution ladder then stops at one level, but no cached
    result is keyed on it.  ``sample`` is the one checked path to the field.
    """

    dim: int
    evaluate: object
    lipschitz_t: float | None = None

    def __post_init__(self):
        _check_lipschitz_t(self.lipschitz_t)

    def sample(self, t, ages):
        """The frozen field A(t, a) at every age in ``ages``, (len(ages), d, d)."""
        return self._sample_into(t, ages, None)

    def _sample_into(self, t, ages, out):
        """``sample`` written into ``out``, a (len(ages), d, d) buffer, when given."""
        return _sample(lambda a: self.evaluate(t, a), ages, self.dim,
                       "operator field", f"t={t!r}, ", out)

    def __call__(self, t, a):
        return self.sample(t, (a,))[0]

    @property
    def time_independent(self):
        return self.lipschitz_t == 0.0


@dataclass(frozen=True)
class BirthKernel:
    """Birth kernel a -> b(a), an entrywise nonnegative d x d matrix.

    ``evaluate(ages)`` returns the (len(ages), d, d) stack of b(a) over a
    1-d float array of ages; ``sample`` is the one checked path to it.
    """

    dim: int
    evaluate: object

    def sample(self, ages):
        """b(a) at every age in ``ages``, (len(ages), d, d)."""
        return _sample(self.evaluate, ages, self.dim, "birth kernel")

    def __call__(self, a):
        return self.sample((a,))[0]


@dataclass(frozen=True)
class Tolerances:
    """Positive thresholds of the residual checks, one per invariant."""

    volterra: float = 1e-8
    membership: float = 1e-8
    semigroup: float = 1e-6
    composition: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value > 0):
                raise ValidationError(f"tolerance {f.name} must be finite and positive")


@dataclass(frozen=True)
class StabilityConstants:
    """Bound constants for finite products of propagators.

    ``m0``/``omega0`` and ``m1``/``omega1`` bound arbitrary finite products
    of propagators taken at nondecreasing times, norm <= m * exp(omega *
    total span), in the base spatial norm and in the graph norm against the
    reference operator.
    """

    m0: float
    omega0: float
    m1: float
    omega1: float

    def __post_init__(self):
        for name in ("m0", "m1"):
            if getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must be >= 1")


_NORM_TAGS = ("one", "two", "max")


def _norms(v, tag, axis=None):
    """Spatial norm selected by tag, of all of v or of each slice along axis."""
    if tag == "one":
        return np.sum(np.abs(v), axis=axis)
    if tag == "two":
        return np.linalg.norm(v, axis=axis)
    if tag == "max":
        return np.max(np.abs(v), axis=axis, initial=0.0)
    raise ValidationError(f"unknown spatial norm tag {tag!r}")


def spatial_norm(v, tag):
    """Vector norm on R^d selected by tag: 'one', 'two', or 'max'."""
    return float(_norms(np.asarray(v, dtype=float), tag))


def _matrix_norms(mats, tag):
    """Induced matrix norm selected by tag, of each matrix of a (..., d, d) stack."""
    if tag == "one":
        return np.max(np.sum(np.abs(mats), axis=-2), axis=-1)
    if tag == "two":
        return np.linalg.norm(mats, 2, axis=(-2, -1))
    if tag == "max":
        return np.max(np.sum(np.abs(mats), axis=-1), axis=-1)
    raise ValidationError(f"unknown spatial norm tag {tag!r}")


def matrix_norm(mat, tag):
    """Induced matrix norm matching :func:`spatial_norm`."""
    return float(_matrix_norms(np.asarray(mat, dtype=float), tag))


@dataclass(frozen=True, eq=False)
class _KernelRecord:
    """What the birth kernel, the age grid and the reference operator fix.

    Each value is built on first use and kept: the sampled kernel as rows,
    its norms, the reference directions and the boundary correction K.
    None depends on the operator field, so ``Scenario._with_operator``
    shares the record by reference.
    """

    birth: BirthKernel
    age_grid: AgeGrid
    dim: int
    norm: str
    reference_operator: np.ndarray

    @cached_property
    def rows(self):
        """The sampled kernel as read-only (d, (n_age+1) d) rows.

        Entry [j, i d + k] is b(a_i)[j, k], so the birth integral is one
        matrix-vector product with the weighted profile raveled by node.
        """
        mats = self.birth.sample(self.age_grid.nodes)
        rows = np.ascontiguousarray(mats.transpose(1, 0, 2).reshape(self.dim, -1))
        rows.flags.writeable = False
        return rows

    @property
    def matrices(self):
        """b(a_i) for every age node, a read-only (n_age+1, d, d) view of the rows."""
        d = self.dim
        return self.rows.reshape(d, -1, d).transpose(1, 0, 2)

    @cached_property
    def base_norm(self):
        """``Scenario.birth_norm(0)``; each distinct sampled matrix is normed once."""
        return float(np.max(_matrix_norms(np.unique(self.matrices, axis=0), self.norm)))

    @cached_property
    def graph_norm(self):
        """``Scenario.birth_norm(1)``; each distinct sampled matrix is normed once."""
        return float(max(graph_to_graph_norm(self, m) for m in np.unique(self.matrices, axis=0)))

    @cached_property
    def reference_directions(self):
        """Graph-norm candidates from the reference operator.

        The four lowest and four highest eigenvectors when the reference
        operator is symmetric, none otherwise.
        """
        ref = self.reference_operator
        if np.allclose(ref, ref.T):
            try:
                _, vecs = np.linalg.eigh(ref)
            except np.linalg.LinAlgError:
                pass
            else:
                vecs.flags.writeable = False
                k = min(4, self.dim)
                return (*vecs.T[:k], *vecs.T[-k:])
        return ()

    @cached_property
    def boundary_correction(self):
        """K = M^{-1} - I for the boundary matrix M = I - (h/2) b(0), read-only.

        K solves M K = I - M, so it is formed without the cancellation of
        inverting M and subtracting I (Higham 2002, ch. 12).  M is singular
        when it is not finite or its smallest singular value is below
        eps * max(1, max|M|).
        """
        eye = np.eye(self.dim)
        mat = eye - 0.5 * self.age_grid.step * self.matrices[0]
        tiny = np.finfo(float).eps * max(1.0, float(np.max(np.abs(mat))))
        if not (np.all(np.isfinite(mat))
                and np.linalg.svd(mat, compute_uv=False)[-1] >= tiny):
            raise ValidationError(
                "boundary system is singular: step * b(0) / 2 has eigenvalue 1; "
                "refine the age grid or rescale the birth kernel"
            )
        correction = np.linalg.solve(mat, eye - mat)
        correction.flags.writeable = False
        return correction


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of grids, operators, and tolerances.

    The operator field and the birth kernel must have the scenario's
    ``dim``; ``s_max`` caps birth trajectories at ten maximal ages.

    ``caches`` stores what depends on the operator field: per frozen time, a
    record of that time's step maps and birth trajectories (frozen times
    with bit-equal sampled generators share one record), and the default
    stability constants (the propagator module owns the store; the
    oracle caches nothing).  What the birth kernel, the grid and the
    reference operator fix (the sampled kernel, its norms, the reference
    directions and the boundary correction) is kept apart in a kernel
    record, which a scenario under another operator field shares.  Both
    are built on first use and are no part of equality; all public
    operations are pure functions of the visible fields.  Every scenario
    starts with an empty store, whatever ``caches`` it is passed, and with
    a kernel record of its own, so ``dataclasses.replace`` never reads a
    value built from the fields it replaced.
    """

    age_grid: AgeGrid
    time_grid: TimeGrid
    dim: int
    operator: OperatorField
    birth: BirthKernel
    reference_operator: np.ndarray
    norm: str = "two"
    tolerances: Tolerances = field(default_factory=Tolerances)
    label: str = "custom"
    caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.norm not in _NORM_TAGS:
            raise ValidationError(f"spatial norm must be one of {_NORM_TAGS}")
        if self.dim < 1:
            raise ValidationError("dim must be at least 1")
        ref = np.asarray(self.reference_operator, dtype=float)
        if ref.shape != (self.dim, self.dim):
            raise ValidationError(
                f"reference operator has shape {ref.shape}, expected {(self.dim, self.dim)}"
            )
        if not np.isfinite(ref).all():
            raise ValidationError("reference_operator must be finite")
        object.__setattr__(self, "reference_operator", _freeze(ref))
        for name, part in (("operator", self.operator), ("birth", self.birth)):
            if part.dim != self.dim:
                raise ValidationError(f"{name} dim {part.dim} differs from scenario dim {self.dim}")
        # The horizon and the time steps must land on age nodes so transport
        # stays node-aligned, and a step must span at least one: a step on
        # node 0 leaves the ladder no level.
        self.age_grid.index_of(self.time_grid.horizon, "time horizon")
        if self.age_grid.index_of(self.time_grid.step, "time grid step") < 1:
            raise ValidationError(
                f"time grid step {self.time_grid.step!r} is shorter than one "
                f"age step {self.age_grid.step!r}"
            )
        object.__setattr__(self, "caches", {})
        object.__setattr__(self, "_kernel", _KernelRecord(
            self.birth, self.age_grid, self.dim, self.norm, self.reference_operator))
        if np.any(self.birth_matrices() < 0):
            raise ValidationError("birth kernel must be entrywise nonnegative on the grid")

    def birth_matrices(self):
        """b(a_i) for every age node, a read-only (n_age+1, d, d) view of the rows."""
        return self._kernel.matrices

    def _with_operator(self, operator):
        """This scenario under another operator field: an empty store, the same kernel record."""
        swapped = copy.copy(self)
        object.__setattr__(swapped, "operator", operator)
        object.__setattr__(swapped, "caches", {})
        return swapped

    def birth_norm(self, ell):
        """Max over age nodes of the induced norm of b(a), base (0) or graph (1)."""
        if ell == 0:
            return self._kernel.base_norm
        if ell == 1:
            return self._kernel.graph_norm
        raise ValidationError("ell must be 0 or 1")

    @property
    def s_max(self):
        """The longest birth trajectory :func:`solve_birth` marches: 10 a_max."""
        return 10.0 * self.age_grid.a_max

    def zero_state(self):
        return StateVector(self.age_grid, np.zeros((self.age_grid.n_age + 1, self.dim)))


def graph_to_graph_norm(kernel, mat):
    """Sampled induced norm of mat between graph-normed spaces.

    Estimates sup (|Cv| + |ref C v|) / (|v| + |ref v|) over a deterministic
    candidate set: the constant vector, basis vectors, top singular
    directions of C, and the reference directions of ``kernel``, a
    scenario's kernel record, which also gives ref and the norm.  This is a
    sampled quantity; for the matrix families shipped here the candidates
    contain the extremal directions.
    """
    ref = kernel.reference_operator
    tag = kernel.norm
    d = mat.shape[0]
    cands = [np.ones(d)]
    cands.extend(np.eye(d))
    try:
        _, _, vt = np.linalg.svd(mat)
        cands.extend(vt[: min(4, d)])
    except np.linalg.LinAlgError:
        pass
    cands.extend(kernel.reference_directions)
    best = 0.0
    for v in cands:
        denom = spatial_norm(v, tag) + spatial_norm(ref @ v, tag)
        if denom <= 0:
            continue
        num = spatial_norm(mat @ v, tag) + spatial_norm(ref @ (mat @ v), tag)
        best = max(best, num / denom)
    return best


# -- discrete norms --------------------------------------------------------


def state_norm(scenario, phi):
    """L1-in-age norm: trapezoid quadrature of the nodewise spatial norm."""
    g = phi.grid
    per_node = _norms(phi.values, scenario.norm, axis=1)
    return float(g.step * np.dot(g.weights, per_node))


def _state_distance(scenario, a, b):
    """State norm of a - b: the one distance between two profiles."""
    return state_norm(scenario, a.with_values(a.values - b.values))


def graph_state_norm(scenario, phi):
    """Graph norm of a state: base norm plus base norm of the reference image."""
    ref = scenario.reference_operator
    lifted = phi.with_values(phi.values @ ref.T)
    return state_norm(scenario, phi) + state_norm(scenario, lifted)


def upwind_derivative(phi):
    """Backward difference in age (forward at the first node)."""
    vals = phi.values
    h = phi.grid.step
    out = np.empty_like(vals)
    out[1:] = (vals[1:] - vals[:-1]) / h
    out[0] = (vals[1] - vals[0]) / h
    return phi.with_values(out)


def lp_age_norm(scenario, phi, p):
    """Discrete L_p-in-age norm of the nodewise base norm; p = 1 is ``state_norm``."""
    if not (np.isfinite(p) and p >= 1):
        raise ValidationError(f"p must be finite and >= 1, got {p!r}")
    g = phi.grid
    per_node = _norms(phi.values, scenario.norm, axis=1)
    return float((g.step * np.dot(g.weights, per_node**p)) ** (1.0 / p))


# -- birth balance ---------------------------------------------------------


def _check_profile_shape(scenario, values):
    """Raise ValidationError unless values has shape (n_age+1, d)."""
    expected = (scenario.age_grid.n_age + 1, scenario.dim)
    if np.shape(values) != expected:
        raise ValidationError(
            f"profile has shape {np.shape(values)}, the scenario expects {expected}"
        )


def birth_quadrature(scenario, values):
    """Trapezoid quadrature of a -> b(a) values(a) over the age interval.

    This helper is the single code path for every birth integral in the
    package; the renewal solver and its consistency checks rely on summation
    order being identical on both sides.  It is one matrix-vector product of
    the cached birth rows with the trapezoid-weighted profile, raveled node
    by node.  ``values`` must have shape (n_age+1, d).
    """
    _check_profile_shape(scenario, values)
    return _birth_quadrature(scenario, values)


def _birth_quadrature(scenario, values):
    """birth_quadrature without the shape check, for a profile the caller owns."""
    g = scenario.age_grid
    weighted = g.weights[:, None] * values
    return g.step * (scenario._kernel.rows @ weighted.ravel())


def check_birth_balance(scenario, phi):
    """Whether phi(0) matches the birth integral of phi, and the residual."""
    residual = spatial_norm(
        phi.values[0] - birth_quadrature(scenario, phi.values), scenario.norm
    )
    return residual <= scenario.tolerances.membership, float(residual)


def apply_generator(scenario, t, phi, require_balance=False):
    """Transport-plus-reaction generator at frozen time t.

    Nodewise value: -(d/da) phi + A(t, a) phi, with the age derivative taken
    by upwind (backward) differences, forward at the first node.  The
    derivative identities this feeds assume phi satisfies the birth balance;
    pass ``require_balance=True`` to enforce that precondition.
    """
    if require_balance:
        ok, residual = check_birth_balance(scenario, phi)
        if not ok:
            raise ValidationError(
                f"profile violates the birth balance (residual {residual:.3e}); "
                "apply enforce_birth_balance first"
            )
    ops = scenario.operator.sample(t, phi.grid.nodes)
    reaction = np.matmul(ops, phi.values[:, :, None])[:, :, 0]
    return phi.with_values(reaction - upwind_derivative(phi).values)


# -- operator families -----------------------------------------------------


def neumann_laplacian(d):
    """Second-difference matrix with zero-flux ends on d nodes of [0, 1].

    Symmetric, nonpositive row sums (all zero), annihilates constants.
    """
    if d == 1:
        return np.zeros((1, 1))
    hx = 1.0 / (d - 1)
    diagonal = np.full(d, -2.0)
    diagonal[[0, -1]] = -1.0
    ones = np.ones(d - 1)
    return (np.diag(diagonal) + np.diag(ones, 1) + np.diag(ones, -1)) / hx**2


def _broadcast(mat, ages):
    """The fixed matrix mat at every age, as a read-only (len(ages), d, d) view."""
    return np.broadcast_to(mat, (len(ages), *mat.shape))


def _zero_operator(d):
    zero = np.zeros((d, d))
    return OperatorField(d, lambda t, ages: _broadcast(zero, ages), lipschitz_t=0.0)


def _mortality_operator(d, mu):
    mat = -float(mu) * np.eye(d)
    return OperatorField(d, lambda t, ages: _broadcast(mat, ages), lipschitz_t=0.0)


def _modulated_laplacian_operator(d, a_max, kappa0, time_amplitude, age_slope):
    """kappa(t, a) * Laplacian with kappa = kappa0 (1 + amp sin 2 pi t)(1 + slope a / a_max)."""
    lap = neumann_laplacian(d)
    k0 = float(kappa0)
    amp = float(time_amplitude)
    slope = float(age_slope)

    def evaluate(t, ages):
        kappa = k0 * (1.0 + amp * math.sin(2.0 * math.pi * t)) * (1.0 + slope * ages / a_max)
        return kappa[:, None, None] * lap

    lip = abs(k0) * abs(amp) * 2.0 * math.pi * (1.0 + abs(slope)) * float(np.linalg.norm(lap, 2))
    if not math.isfinite(lip):
        raise ValidationError(
            f"modulated_laplacian with kappa0 = {kappa0!r}, time_amplitude = "
            f"{time_amplitude!r} and age_slope = {age_slope!r} has a time-Lipschitz "
            "constant beyond the float range"
        )
    return OperatorField(d, evaluate, lipschitz_t=0.0 if amp == 0.0 else lip)


def _constant_birth(d, beta):
    mat = float(beta) * np.eye(d)
    if beta < 0:
        raise ValidationError("birth rate beta must be nonnegative")
    return BirthKernel(d, lambda ages: _broadcast(mat, ages))


def _hat_birth(d, beta, a_max):
    """Tent-shaped fertility peaking mid-interval, scalar multiple of identity."""
    eye = np.eye(d)
    peak = a_max / 2.0

    def evaluate(ages):
        height = np.maximum(0.0, 1.0 - np.abs(ages - peak) / peak)
        return (float(beta) * height)[:, None, None] * eye

    return BirthKernel(d, evaluate)


# kind -> (builder(d, a_max, **params), {param: default})
_OPERATOR_KINDS = {
    "zero": (lambda d, a_max: _zero_operator(d), {}),
    "scalar_mortality": (lambda d, a_max, mu: _mortality_operator(d, mu), {"mu": 1.0}),
    "modulated_laplacian": (
        _modulated_laplacian_operator,
        {"kappa0": 0.1, "time_amplitude": 0.0, "age_slope": 0.0},
    ),
}
_BIRTH_KINDS = {
    "zero": (lambda d, a_max: _constant_birth(d, 0.0), {}),
    "constant": (lambda d, a_max, beta: _constant_birth(d, beta), {"beta": 1.0}),
    "hat": (lambda d, a_max, beta: _hat_birth(d, beta, a_max), {"beta": 1.0}),
}
# name -> builder(d)
_REFERENCE_KINDS = {
    "identity": np.eye,
    "laplacian": neumann_laplacian,
    "zero": lambda d: np.zeros((d, d)),
}
_REQUIRED_KEYS = ("dim", "a_max", "n_age", "T", "n_time", "operator", "birth")
_SCENARIO_KEYS = (*_REQUIRED_KEYS, "norm", "tolerances", "reference_operator", "label")


def _mapping(spec, name):
    """spec itself when it is a mapping, else ConfigError naming the section."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a mapping, got {spec!r}")
    return spec


def _reject_unknown(spec, allowed, what):
    """ConfigError listing the fields of spec outside ``allowed``, if any."""
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {sorted(unknown)}")


def _lookup(table, key, name):
    """The table entry that the scenario value ``key`` names, else ConfigError."""
    if not isinstance(key, str) or key not in table:
        raise ConfigError(f"{name} must be one of {tuple(table)}, got {key!r}")
    return table[key]


def _number(value, name, kind=float):
    """A scenario value as a finite float, or as a count when ``kind`` is int.

    Raises ConfigError naming the dotted field when the value is not a real
    number, is not finite, or is not a whole number >= 1 where ``kind`` is
    int (dim, n_age and n_time are counts).
    """
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"scenario field {name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"scenario field {name} must be finite, got {value!r}")
    if kind is int and not (number.is_integer() and number >= 1):
        raise ConfigError(f"scenario field {name} must be a whole number >= 1, got {value!r}")
    return kind(value)


def _build_kind(name, kinds, d, a_max, spec):
    """The ``name`` section built by the table entry of its kind.

    A parameter the section leaves out takes the entry's default.
    """
    builder, defaults = _lookup(kinds, _mapping(spec, name).get("kind"), f"{name}.kind")
    _reject_unknown(spec, ("kind", *defaults), name)
    params = {k: _number(spec.get(k, v), f"{name}.{k}") for k, v in defaults.items()}
    return builder(d, a_max, **params)


def build_scenario(config):
    """Build a scenario from a plain dict (the JSON configuration shape).

    Either ``{"preset": name, ...overrides}`` or a full custom description
    with the keys dim, a_max, n_age, T, n_time, operator, birth and optional
    norm, tolerances, reference_operator, label.  Every
    number must be a finite real number, dim, n_age and n_time whole
    numbers >= 1, and label a string.  An unknown key, kind or preset, a
    missing key, a section that is not a mapping or a value that fails
    those checks raises ConfigError naming the field.
    """
    config = dict(_mapping(config, "scenario configuration"))
    preset = config.pop("preset", None)
    if preset is not None:
        config = {**_lookup(_PRESETS, preset, "preset"), **config}
    _reject_unknown(config, _SCENARIO_KEYS, "scenario")
    for key in _REQUIRED_KEYS:
        if key not in config:
            raise ConfigError(f"missing scenario field: {key}")

    d, n_age, n_time = (_number(config[k], k, int) for k in ("dim", "n_age", "n_time"))
    a_max, horizon = (_number(config[k], k) for k in ("a_max", "T"))
    ref = config.get("reference_operator", "identity")
    if isinstance(ref, str):
        ref = _lookup(_REFERENCE_KINDS, ref, "reference_operator")(d)
    else:
        ref = np.array(ref, dtype=object)
        for index, entry in np.ndenumerate(ref):
            _number(entry, ".".join(map(str, ("reference_operator", *index))))
        ref = ref.astype(float)
    tol_spec = _mapping(config.get("tolerances", {}), "tolerances")
    _reject_unknown(tol_spec, [f.name for f in fields(Tolerances)], "tolerance")
    label = config.get("label", "custom")
    if not isinstance(label, str):
        raise ConfigError(f"scenario field label must be a string, got {label!r}")

    return Scenario(
        age_grid=AgeGrid(a_max, n_age),
        time_grid=TimeGrid(horizon, n_time),
        dim=d,
        operator=_build_kind("operator", _OPERATOR_KINDS, d, a_max, config["operator"]),
        birth=_build_kind("birth", _BIRTH_KINDS, d, a_max, config["birth"]),
        reference_operator=ref,
        norm=config.get("norm", "two"),
        tolerances=Tolerances(
            **{k: _number(v, f"tolerances.{k}") for k, v in tol_spec.items()}
        ),
        label=label,
    )


# -- presets ---------------------------------------------------------------

# SCAL0: scalar, no aging mechanism beyond transport, constant birth rate 2
#        on unit maximal age.  The renewal root of 2(1 - e^-r)/r = 1 makes
#        it the growth benchmark.
# DIFF1: 32 spatial nodes, diffusion with time and age modulated
#        conductivity, identity-proportional birth.
# MORT1: scalar constant mortality balanced so the exponential age profile
#        is stationary.
# QDIFF: the linear base for the norm-coupled diffusion fixed point
#        problems (time-independent conductivity).
_PRESETS = {
    "SCAL0": {
        "label": "SCAL0",
        "dim": 1,
        "a_max": 1.0,
        "n_age": 100,
        "T": 10.0,
        "n_time": 1000,
        "operator": {"kind": "zero"},
        "birth": {"kind": "constant", "beta": 2.0},
        "norm": "one",
        "reference_operator": "identity",
    },
    "DIFF1": {
        "label": "DIFF1",
        "dim": 32,
        "a_max": 1.0,
        "n_age": 64,
        "T": 1.0,
        "n_time": 64,
        "operator": {
            "kind": "modulated_laplacian",
            "kappa0": 0.1,
            "time_amplitude": 0.5,
            "age_slope": 1.0,
        },
        "birth": {"kind": "constant", "beta": 0.5},
        "norm": "two",
        "reference_operator": "laplacian",
    },
    "MORT1": {
        "label": "MORT1",
        "dim": 1,
        "a_max": 1.0,
        "n_age": 100,
        "T": 2.0,
        "n_time": 200,
        "operator": {"kind": "scalar_mortality", "mu": 1.0},
        # beta / (1 - e^-1): newborn flux balances mortality decay
        "birth": {"kind": "constant", "beta": 1.0 / (1.0 - math.exp(-1.0))},
        "norm": "one",
        "reference_operator": "identity",
    },
    "QDIFF": {
        "label": "QDIFF",
        "dim": 16,
        "a_max": 1.0,
        "n_age": 32,
        "T": 0.5,
        "n_time": 16,
        "operator": {
            "kind": "modulated_laplacian",
            "kappa0": 0.1,
            "time_amplitude": 0.0,
            "age_slope": 1.0,
        },
        "birth": {"kind": "constant", "beta": 0.2},
        "norm": "two",
        "reference_operator": "laplacian",
    },
}
PRESET_NAMES = tuple(_PRESETS)


def preset_scenario(name, **overrides):
    """``build_scenario({"preset": name, **overrides})``: a preset with keys replaced."""
    config = {"preset": name}
    config.update(overrides)
    return build_scenario(config)


def refine_scenario(scenario, factor):
    """Same physics on an age/time grid refined by an integer factor."""
    if factor < 1 or int(factor) != factor:
        raise ValidationError("refinement factor must be a positive integer")
    factor = int(factor)
    return replace(
        scenario,
        age_grid=AgeGrid(scenario.age_grid.a_max, scenario.age_grid.n_age * factor),
        time_grid=TimeGrid(scenario.time_grid.horizon, scenario.time_grid.n_time * factor),
    )


# -- profiles ---------------------------------------------------------------

PROFILE_NAMES = ("ones", "linear", "age_bump", "smooth_random", "tilted")


def make_profile(scenario, name="ones", seed=0):
    """Initial age profiles used by the command line tools and tests.

    'ones' and 'linear' are spatially constant.  'age_bump' is a smooth
    positive bump in age, spatially constant.  'smooth_random' mixes the three
    lowest cosine modes in age and in space with seeded coefficients; smooth
    profiles keep discretization-based checks inside their asymptotic
    regime.  'tilted' is ones plus a faint smooth tilt in age and space,
    the gentlest profile that still exercises spatially coupled operators.
    """
    g = scenario.age_grid
    d = scenario.dim
    ages = g.nodes
    if name == "ones":
        values = np.ones((g.n_age + 1, d))
    elif name == "linear":
        values = np.repeat(ages[:, None], d, axis=1)
    elif name == "age_bump":
        shape = 1.0 + np.cos(2.0 * np.pi * (ages / g.a_max - 0.5))
        values = np.repeat(shape[:, None], d, axis=1)
    elif name == "smooth_random":
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, 1.0, d)
        values = np.zeros((g.n_age + 1, d))
        for ka in range(3):
            age_part = np.cos(np.pi * ka * ages / g.a_max)
            for kx in range(3):
                coeff = rng.normal() / (1.0 + ka + kx) ** 2
                values += coeff * np.outer(age_part, np.cos(np.pi * kx * x))
    elif name == "tilted":
        x = np.linspace(0.0, 1.0, d)
        tilt = np.outer(np.sin(np.pi * ages / g.a_max), np.cos(np.pi * x))
        values = 1.0 + 0.005 * tilt
    else:
        raise ConfigError(f"unknown profile {name!r}; available: {PROFILE_NAMES}")
    return StateVector(g, values)
