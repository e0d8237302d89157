"""Forced trajectories and the variation-of-constants consistency check."""

import numpy as np
import pytest

import kato_evolve as ke


def transport_scenario(n=100):
    return ke.build_scenario(
        {
            "label": "forcedtransport",
            "dim": 1,
            "a_max": 1.0,
            "n_age": n,
            "T": 1.0,
            "n_time": n,
            "operator": {"kind": "zero"},
            "birth": {"kind": "zero"},
            "norm": "one",
        }
    )


def closed_form_forced(scenario, phi, amplitude, t_end):
    # without birth the forced solution is the shifted profile plus the
    # forcing integrated along incoming characteristics: c * min(a, t)
    ages = scenario.age_grid.nodes
    k = scenario.age_grid.index_of(t_end, "t_end")
    exact = np.zeros_like(phi.values)
    exact[k:, 0] = phi.values[: phi.values.shape[0] - k, 0]
    exact[:, 0] += amplitude * np.minimum(ages, t_end)
    return exact


def test_forced_transport_closed_form():
    sc = transport_scenario()
    phi = ke.make_profile(sc, "age_bump")
    forcing = ke.forcing_preset(sc, "constant", amplitude=0.8)
    traj = ke.solve_forced(sc, phi, forcing, 0.5)
    exact = closed_form_forced(sc, phi, 0.8, 0.5)
    err = np.max(np.abs(traj.final.values - exact))
    # the forcing quadrature crosses the characteristic kink once per step
    assert err <= 0.6 * 0.8 * sc.time_grid.step


def test_forced_error_halves_under_refinement():
    coarse_sc = transport_scenario(100)
    fine_sc = transport_scenario(200)
    errs = []
    for sc in (coarse_sc, fine_sc):
        phi = ke.make_profile(sc, "age_bump")
        forcing = ke.forcing_preset(sc, "constant", amplitude=0.8)
        traj = ke.solve_forced(sc, phi, forcing, 0.5)
        errs.append(np.max(np.abs(traj.final.values - closed_form_forced(sc, phi, 0.8, 0.5))))
    assert 1.7 < errs[0] / errs[1] < 2.3


def test_zero_forcing_matches_evolution(diff1):
    phi = ke.make_profile(diff1, "tilted")
    forcing = ke.forcing_preset(diff1, "constant", amplitude=0.0)
    traj = ke.solve_forced(diff1, phi, forcing, 0.5, tol=1e-4)
    plain = ke.apply_evolution(diff1, 0.5, 0.0, phi, tol=1e-4)
    gap = ke.state_norm(diff1, traj.final.with_values(traj.final.values - plain.value.values))
    assert gap <= 1e-4 * ke.state_norm(diff1, phi)


def test_duhamel_residual_on_aligned_grid():
    # dt = 2 h makes the half step land on an age node, which the finer
    # quadrature of the residual check needs
    sc = ke.preset_scenario("SCAL0", n_time=500)
    phi = ke.make_profile(sc, "age_bump")
    bounds = {"constant": 5e-3, "pulse": 2e-3, "sinusoid": 2e-3}
    for name, cap in bounds.items():
        forcing = ke.forcing_preset(sc, name, seed=4)
        traj = ke.solve_forced(sc, phi, forcing, 2.0)
        res = ke.duhamel_residual(sc, traj, phi, forcing)
        assert res <= cap


def test_duhamel_requires_aligned_half_step(scal0):
    phi = ke.make_profile(scal0, "age_bump")
    forcing = ke.forcing_preset(scal0, "constant")
    traj = ke.solve_forced(scal0, phi, forcing, 1.0)
    with pytest.raises(ke.GridAlignmentError):
        ke.duhamel_residual(scal0, traj, phi, forcing)


def test_forced_bound_margin_nonnegative_with_slack():
    # at slack 0 the bound is an equality at t = 0, and a peaked pulse can
    # dip a hair below it through the quadrature mismatch between the solve
    # and the bound's trapezoid accumulation; 5% slack absorbs both
    sc = ke.preset_scenario("SCAL0", n_time=500)
    phi = ke.make_profile(sc, "age_bump")
    for name in ke.FORCING_NAMES:
        forcing = ke.forcing_preset(sc, name, seed=2)
        traj = ke.solve_forced(sc, phi, forcing, 1.0)
        assert ke.forced_bound_margin(sc, traj, phi, forcing, slack=0.05) >= 0.0


def test_forcing_presets_are_their_closed_forms(diff1):
    horizon = diff1.time_grid.horizon
    amplitude = 0.7
    closed_forms = {
        "constant": ("ones", lambda t: 1.0),
        "pulse": ("age_bump", lambda t: np.exp(-(((t - 0.3 * horizon) / (0.1 * horizon)) ** 2))),
        "sinusoid": ("smooth_random", lambda t: np.sin(2.0 * np.pi * t / horizon)),
    }
    assert ke.FORCING_NAMES == tuple(closed_forms)
    for name, (profile, factor) in closed_forms.items():
        forcing = ke.forcing_preset(diff1, name, seed=5, amplitude=amplitude)
        base = ke.make_profile(diff1, profile, seed=5).values
        for t in (0.0, 0.1 * horizon, 0.3 * horizon, 0.75 * horizon, horizon):
            assert np.array_equal(forcing(t).values, amplitude * factor(t) * base)


def test_forcing_preset_names(scal0):
    with pytest.raises(ke.ConfigError):
        ke.forcing_preset(scal0, "sawtooth")
    a = ke.forcing_preset(scal0, "sinusoid", seed=8)
    b = ke.forcing_preset(scal0, "sinusoid", seed=8)
    assert np.array_equal(a(0.3).values, b(0.3).values)
