"""Direct characteristics stepper and its agreement with the main pipeline."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import kato_evolve as ke


def decay_scenario(n_age=200):
    return ke.build_scenario(
        {
            "dim": 1,
            "a_max": 2.0,
            "n_age": n_age,
            "T": 1.0,
            "n_time": n_age // 2,
            "operator": {"kind": "scalar_mortality", "mu": 1.0},
            "birth": {"kind": "zero"},
            "norm": "one",
        }
    )


def test_trajectory_shape(scal0):
    phi = ke.make_profile(scal0, "ones")
    traj = ke.solve_direct(scal0, phi, 0.1)
    assert len(traj.times) == 11
    assert len(traj.norms) == len(traj.times)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)
    assert traj.norms[0] == ke.state_norm(scal0, phi)
    assert traj.norms[-1] == ke.state_norm(scal0, traj.final)
    still = ke.solve_direct(scal0, phi, 0.0)
    assert still.times == (0.0,)
    assert still.norms == (ke.state_norm(scal0, phi),)
    assert still.final is phi


def test_a_long_march_holds_one_state_of_memory(scal0):
    # 1,000 steps of 101 nodes: keeping every state would retain about 1 MB
    phi = ke.make_profile(scal0, "ones")
    ke.solve_direct(scal0, phi, 0.1)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        traj = ke.solve_direct(scal0, phi, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 1001
    assert peak < 256 * 1024


def test_a_state_that_overflows_fails_at_its_step(scal0):
    # I - h A = 1e-12 multiplies the profile by about 1e12 a step, so the
    # state overflows at step 26 and the march stops there
    h = scal0.age_grid.step
    called = []

    def evaluate(t, ages):
        called.append(t)
        return np.full((len(ages), 1, 1), (1 - 1e-12) / h)

    operator = dataclasses.replace(scal0.operator, evaluate=evaluate)
    sc = dataclasses.replace(scal0, operator=operator, caches={})
    with pytest.raises(ke.ValidationError, match="state values must be finite"):
        ke.solve_direct(sc, ke.make_profile(sc, "ones"), 0.5)
    assert called == [k * h for k in range(1, 27)]


def test_pure_transport_with_empty_boundary_is_exact():
    # zero operator and zero birth: the march is an exact shift feeding
    # zeros in at age zero, so the discrete solution equals phi(a - t)
    # cut off below the front, with no error at all
    sc = ke.build_scenario(
        {
            "dim": 1,
            "a_max": 1.0,
            "n_age": 50,
            "T": 1.0,
            "n_time": 50,
            "operator": {"kind": "zero"},
            "birth": {"kind": "zero"},
            "norm": "one",
        }
    )
    phi = ke.make_profile(sc, "linear")
    k = 20
    traj = ke.solve_direct(sc, phi, k * sc.age_grid.step)
    got = traj.final.values
    assert np.all(got[:k] == 0.0)
    assert np.array_equal(got[k:], phi.values[: len(got) - k])


def test_mortality_decay_near_closed_form():
    # behind the front the profile is e^{-t}; the implicit step gives
    # (1 + h)^{-k}, a first order gap that halves with the grid
    errs = []
    for n_age in (200, 400):
        sc = decay_scenario(n_age)
        phi = ke.make_profile(sc, "ones")
        traj = ke.solve_direct(sc, phi, 1.0)
        k = sc.age_grid.index_of(1.0, "front")
        exact = np.zeros_like(phi.values)
        exact[k:] = math.exp(-1.0)
        diff = traj.final.with_values(traj.final.values - exact)
        errs.append(ke.state_norm(sc, diff))
    assert errs[0] <= 2e-3
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_solve_direct_validation(scal0):
    phi = ke.make_profile(scal0, "ones")
    with pytest.raises(ke.ValidationError):
        ke.solve_direct(scal0, phi, -0.1)
    with pytest.raises(ke.ValidationError):
        ke.solve_direct(scal0, phi, scal0.time_grid.horizon + 1.0)
    with pytest.raises(ke.GridAlignmentError):
        ke.solve_direct(scal0, phi, 0.005)


@pytest.mark.parametrize("name", ["SCAL0", "QDIFF", "DIFF1"])
def test_solve_direct_matches_nodewise_inverse_march(name):
    sc = ke.preset_scenario(name)
    g = sc.age_grid
    h = g.step
    phi = ke.make_profile(sc, "age_bump")
    n_steps = 16
    eye = np.eye(sc.dim)
    values = np.array(phi.values)
    reference = [values]
    for k in range(1, n_steps + 1):
        shifted = np.concatenate([values[:1], values[:-1]])
        values = np.stack([
            np.linalg.inv(eye - h * sc.operator(k * h, a)) @ shifted[i]
            for i, a in enumerate(g.nodes)
        ])
        values[0] = ke.birth_quadrature(sc, values)
        reference.append(values)
    scale = np.max(np.abs(reference))
    for k in range(1, n_steps + 1):
        got = ke.solve_direct(sc, phi, k * h).final.values
        assert np.max(np.abs(got - reference[k])) <= 1e-13 * scale
    norms = np.array([ke.state_norm(sc, phi.with_values(v)) for v in reference])
    direct = ke.solve_direct(sc, phi, n_steps * h)
    assert np.max(np.abs(np.array(direct.norms) - norms)) <= 1e-13 * np.max(norms)


def test_compare_discrepancy_shrinks_first_order(scal0):
    phi = ke.make_profile(scal0, "age_bump")
    rows = ke.compare(scal0, phi, 1.0, refinements=3)
    assert len(rows) == 3
    assert math.isnan(rows[0].order)
    for prev, row in zip(rows, rows[1:]):
        assert row.delta == pytest.approx(prev.delta / 2)
        assert row.discrepancy < prev.discrepancy
        assert row.order >= 0.8


def test_compare_validation(scal0):
    phi = ke.make_profile(scal0, "ones")
    with pytest.raises(ke.ValidationError):
        ke.compare(scal0, phi, 1.0, refinements=1)
