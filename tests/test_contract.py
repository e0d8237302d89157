"""What the library does with the arrays a caller's callables hand it.

It checks each one once and copies only what it keeps, so a field, a birth
kernel, a forcing or a state map may hand back one reused buffer on every
call.  Each solver must give the same bits under such a callable as under
one that returns a fresh array, and must never write into the buffer.
"""

import dataclasses
import pickle

import numpy as np
import pytest

import kato_evolve as ke
from kato_evolve.quasilinear import _trajectory_field


def reusing(evaluate):
    """``evaluate`` writing each result into one buffer per shape, handed back read-only.

    A caller that kept an earlier result sees it overwritten by the next
    call of the same shape, and a caller that writes into it raises.
    """
    buffers = {}

    def again(*args):
        fresh = np.asarray(evaluate(*args), dtype=float)
        buf = buffers.setdefault(fresh.shape, np.empty(fresh.shape))
        buf[...] = fresh
        view = buf.view()
        view.flags.writeable = False
        return view

    return again


def _reusing_field(field):
    return ke.OperatorField(field.dim, reusing(field.evaluate), lipschitz_t=field.lipschitz_t)


def test_sample_returns_the_evaluators_own_array(diff1):
    out = diff1.operator.evaluate(0.3, diff1.age_grid.nodes)
    field = ke.OperatorField(diff1.dim, lambda t, ages: out)
    assert np.shares_memory(field.sample(0.3, diff1.age_grid.nodes), out)
    one = ke.OperatorField(diff1.dim, lambda t, ages: out[:1])
    assert np.shares_memory(one(0.3, 0.0), out)


def test_a_reused_operator_buffer_gives_the_same_evolution(diff1):
    reused = dataclasses.replace(diff1, operator=_reusing_field(diff1.operator))
    phi = ke.make_profile(diff1, "smooth_random", seed=1)
    want = ke.apply_evolution(diff1, 0.75, 0.125, phi, tol=1e-2)
    got = ke.apply_evolution(reused, 0.75, 0.125, phi, tol=1e-2)
    assert (got.n_used, got.gaps) == (want.n_used, want.gaps)
    assert np.array_equal(got.value.values, want.value.values)


def test_a_reused_operator_buffer_gives_the_same_direct_march(diff1):
    reused = dataclasses.replace(diff1, operator=_reusing_field(diff1.operator))
    phi = ke.make_profile(diff1, "tilted")
    want = ke.solve_direct(diff1, phi, 0.25)
    got = ke.solve_direct(reused, phi, 0.25)
    assert got == want


def test_kernel_rows_are_a_copy_of_a_reused_birth_buffer():
    # d = 1: the rows are a reshape of the sampled stack, so keeping them
    # without a copy would keep the kernel's buffer
    sc = ke.build_scenario({"preset": "SCAL0", "birth": {"kind": "hat", "beta": 2.0}})
    birth = ke.BirthKernel(1, reusing(sc.birth.evaluate))
    reused = dataclasses.replace(sc, birth=birth)
    rows = reused._kernel.rows
    assert np.array_equal(rows, sc._kernel.rows)
    birth.sample(sc.age_grid.nodes[::-1])  # overwrites the buffer
    assert np.array_equal(rows, sc._kernel.rows)
    phi = ke.make_profile(sc, "age_bump")
    want = ke.apply_evolution(sc, 2.0, 0.0, phi).value
    assert ke.apply_evolution(reused, 2.0, 0.0, phi).value == want


def test_a_reused_forcing_buffer_gives_the_same_forced_solve():
    sc = ke.preset_scenario("QDIFF", n_age=64)  # two age steps per time step
    forcing = ke.forcing_preset(sc, "sinusoid", seed=2)
    reused = reusing(lambda t: forcing(t).values)
    phi = ke.make_profile(sc, "tilted")
    want = ke.solve_forced(sc, phi, forcing, 0.5, tol=1e-4)
    got = ke.solve_forced(sc, phi, reused, 0.5, tol=1e-4)
    assert got == want
    assert ke.duhamel_residual(sc, got, phi, reused) == ke.duhamel_residual(sc, want, phi, forcing)


def test_a_reused_state_map_buffer_gives_the_same_picard_solve(qdiff):
    problem = ke.norm_coupled_diffusion(qdiff, 0.05, 1.0)
    reused = dataclasses.replace(problem, operator_of_state=reusing(problem.operator_of_state))
    want, t_want, report_want = ke.solve_quasilinear(qdiff, problem, tol=1e-3)
    got, t_got, report_got = ke.solve_quasilinear(qdiff, reused, tol=1e-3)
    assert (got, t_got, report_got) == (want, t_want, report_want)
    assert (ke.fixed_point_residual(qdiff, reused, got, tol=1e-3)
            == ke.fixed_point_residual(qdiff, problem, want, tol=1e-3))


def test_lipschitz_spot_check_keeps_the_first_stack(qdiff):
    # the check holds one state's stack while it samples the other's
    problem = ke.norm_coupled_diffusion(qdiff, 0.05, 1.0)
    reused = dataclasses.replace(problem, operator_of_state=reusing(problem.operator_of_state))
    want = ke.check_lipschitz(problem, qdiff, samples=6)
    assert want.observed_l > 0.5
    assert ke.check_lipschitz(reused, qdiff, samples=6) == want


def test_continuous_dependence_gap_keeps_the_first_sample(qdiff):
    # both fields sample one state map, which the gap calls twice per time
    problem = ke.norm_coupled_diffusion(qdiff, 0.05, 1.0)
    reused = dataclasses.replace(problem, operator_of_state=reusing(problem.operator_of_state))
    center = problem.ball_center
    tilted = ke.make_profile(qdiff, "tilted")
    times = (0.0, 0.25)

    def gap(p):
        f1 = _trajectory_field(qdiff, p, times, (center, tilted))
        f0 = _trajectory_field(qdiff, p, times, (center, center))
        return ke.continuous_dependence_gap(qdiff, f1, f0, center, 0.0, 0.25, tol=1e-3)

    want = gap(problem)
    assert want[1] > 0.0
    assert gap(reused) == want


def test_states_compare_by_value(qdiff):
    a, b = ke.make_profile(qdiff, "ones"), ke.make_profile(qdiff, "ones")
    assert a == b and not a != b
    assert a != a.with_values(2.0 * a.values)
    assert a != ke.make_profile(ke.refine_scenario(qdiff, 2), "ones")
    assert not a == "ones"
    with pytest.raises(TypeError):
        hash(a)


def test_trajectories_compare_by_value(qdiff):
    problem = ke.norm_coupled_diffusion(qdiff, 0.05, 1.0)
    trajectory, _, _ = ke.solve_quasilinear(qdiff, problem, tol=1e-3)
    assert pickle.loads(pickle.dumps(trajectory)) == trajectory
    phi = ke.make_profile(qdiff, "tilted")
    assert ke.solve_direct(qdiff, phi, 0.25) == ke.solve_direct(qdiff, phi, 0.25)
    assert ke.solve_direct(qdiff, phi, 0.25) != ke.solve_direct(qdiff, phi, 0.125)
