import math
from dataclasses import astuple, replace

import numpy as np
import pytest

import oracles
from fsisplit import ChannelGeometry, Discretization, PhysicalParams, TimeGrid
from fsisplit.diagnostics import (EnergyLedger, consistency_terms, energy_E,
                                  error_norms, fit_rate, initial_S0, window_S,
                                  window_T)
from fsisplit.experiments import convergence, reference_steps
from fsisplit.initial_data import smooth_coupled_mode
from fsisplit.monolithic import ReferenceTrajectory, run_reference
from fsisplit.splitting import RobinRobinSolver, SplitState, WindowSample


# -- energy and window quantities -----------------------------------------


def test_energy_zero_and_rigid(run_disc, params):
    d = run_disc
    zeros = np.zeros(d.V_s.ndof)
    assert energy_E(d, params, np.zeros(d.V_f.ndof), zeros, zeros) == 0.0
    rigid = oracles.interpolate(d.V_s, lambda x, y: (0.3, -0.8))
    assert energy_E(d, params, np.zeros(d.V_f.ndof), zeros, rigid) < 1e-13


def test_energy_constant_fluid_velocity(run_disc):
    params = PhysicalParams(2.0, 1.0, 0.1, 1.0, 1.0, 1.0)
    d = run_disc
    u = np.ones(d.V_f.ndof)  # (1, 1) over the unit fluid square
    zeros = np.zeros(d.V_s.ndof)
    assert energy_E(d, params, u, zeros, zeros) == pytest.approx(2.0, rel=1e-13)


def _make_window(t, u, p, eta, etad, traction):
    """The samples of a one-substep window."""
    return [WindowSample(t=t, u=u, p=p, eta=eta, etad=etad, traction=traction)]


def test_window_T_zero_and_matched(run_disc, params):
    d = run_disc
    grid = TimeGrid(0.5, 4)
    zero = np.zeros(d.ifd_f.size)
    zero_w = _make_window(grid.dt, np.zeros(d.V_f.ndof), np.zeros(d.Q.ndof),
                          np.zeros(d.V_s.ndof), np.zeros(d.V_s.ndof), zero)
    assert window_T(d, params, grid, zero_w, zero) == 0.0
    # rigid fluid velocity, solid velocity matching the window-average trace
    u = oracles.interpolate(d.V_f, lambda x, y: (0.7, 0.0))
    etad = np.zeros(d.V_s.ndof)
    etad[d.ifd_s] = u[d.ifd_f]
    w = _make_window(grid.dt, u, np.zeros(d.Q.ndof), np.zeros(d.V_s.ndof),
                     etad, np.zeros(d.ifd_f.size))
    assert window_T(d, params, grid, w, u[d.ifd_f].copy()) < 1e-13


def test_window_quantities_match_dense_oracle(small_disc, params, rng):
    """Single substep with random coefficients against matrices rebuilt by
    the independent dense quadrature oracle."""
    d = small_disc
    grid = TimeGrid(0.5, 4)
    lam = params.lambda_robin
    u = rng.standard_normal(d.V_f.ndof)
    etad = rng.standard_normal(d.V_s.ndof)
    traction = rng.standard_normal(d.ifd_f.size)
    u_avg = rng.standard_normal(d.ifd_f.size)
    w = _make_window(grid.dt, u, np.zeros(d.Q.ndof), np.zeros(d.V_s.ndof),
                     etad, traction)

    K_dense = oracles.dense_symgrad(d.V_f, params.mu)
    Mc_dense = oracles.dense_interface_mass(d.V_f)[np.ix_(d.ifd_f, d.ifd_f)]
    diff = etad[d.ifd_s] - u_avg
    want_T = grid.ddt * (u @ K_dense @ u + 0.5 * lam * diff @ Mc_dense @ diff)
    got_T = window_T(d, params, grid, w, u_avg)
    assert got_T == pytest.approx(want_T, rel=1e-12)

    want_S = grid.ddt * (traction @ np.linalg.solve(Mc_dense, traction) / (2 * lam)
                         + 0.5 * lam * u[d.ifd_f] @ Mc_dense @ u[d.ifd_f])
    got_S = window_S(d, params, grid, w)
    assert got_S == pytest.approx(want_S, rel=1e-12)


def test_initial_S0_constant_pressure(params):
    """Constant p0, zero velocity: S0 -> (dt / 2 lambda) p0^2 |interface|.

    The canonical interface space excludes the corner dofs, so the constant
    traction is only representable up to an O(h) boundary effect; the mesh
    here is fine enough for a 2 percent check.
    """
    from fsisplit.initial_data import pressure_traction_load

    disc = Discretization(ChannelGeometry(1.0, 1.0, 1.0), 16, 2, 2)
    p0 = 2.0
    grid = TimeGrid(0.5, 4)
    load = pressure_traction_load(disc, lambda x, y: p0)
    got = initial_S0(disc, params, grid, np.zeros(disc.ifd_f.size), load)
    want = grid.dt / (2.0 * params.lambda_robin) * p0 ** 2 * 1.0
    assert got == pytest.approx(want, rel=0.02)
    assert got <= want  # projection onto the corner-free subspace only shrinks


# -- ledgers and error norms -------------------------------------------------


def test_ledger_residual_bookkeeping():
    ledger = EnergyLedger(E=[4.0, 3.0, 2.5], T=[0.5, 0.2], S=[0.4, 0.3], S0=1.0)
    assert ledger.residuals()[0] == pytest.approx(3.0 + 0.5 + 0.4 - 5.0)
    assert ledger.residuals()[1] == pytest.approx(2.5 + 0.7 + 0.3 - 5.0)
    assert ledger.residuals().shape == (2,)

    # a long random ledger: the running sum equals the per-window definition
    # (T summed left to right) bit for bit at every window
    gen = np.random.default_rng(11)
    n = 2000
    ledger = EnergyLedger(E=list(gen.random(n + 1)), T=list(gen.random(n)),
                          S=list(gen.random(n)), S0=0.3)
    residuals = ledger.residuals()
    t_sum = 0.0
    for k in range(1, n + 1):
        t_sum += ledger.T[k - 1]
        want = ledger.E[k] + t_sum + ledger.S[k - 1] - (ledger.E[0] + ledger.S0)
        assert residuals[k - 1] == want
    assert ledger.stability_residual() == residuals.max()


def _reference_as_windows(traj):
    """Wrap a reference trajectory as the states of one-substep splitting
    windows."""
    states = []
    for k in range(1, len(traj.times)):
        ref, flux = traj.step(k)
        fields = (ref.t, ref.u, ref.p, ref.eta, ref.etad)
        states.append(SplitState(*fields, None, None, [WindowSample(*fields, flux)]))
    return states


def test_error_norms_reference_vs_itself(run_disc, params):
    state0 = smooth_coupled_mode(run_disc, params)
    traj = run_reference(run_disc, params, state0, 0.2, 8, 1)
    state0.traction_avg = traj.flux[0]
    grid = TimeGrid(0.2, 8, 1)
    rep = error_norms(run_disc, params, grid,
                      _reference_as_windows(traj), traj, state0)
    assert rep.E_final == 0.0 and rep.T_sum == 0.0 and rep.S_final == 0.0
    assert rep.total == 0.0


def test_error_norms_rejects_mismatched_start(run_disc, params):
    """The starts, interface data included, are compared bit for bit at any
    scale (the 0.02-wide channel's smooth mode has |u| <= 6e-10, within
    np.allclose's absolute 1e-8 of zero); a run that outlasts the reference,
    or whose substeps do not tile its steps, is rejected too."""
    for disc in (run_disc, Discretization(ChannelGeometry(0.02, 0.02, 0.02), 2, 2, 2)):
        state0 = smooth_coupled_mode(disc, params)
        traj = run_reference(disc, params, state0, 0.2, 8, 1)
        state0.traction_avg = traj.flux[0]
        for other in (replace(state0, u=state0.u + 1.0), oracles.zero_state(disc),
                      replace(state0, traction_avg=0 * traj.flux[0]),
                      replace(state0, u_avg=state0.u_avg + 1.0)):
            with pytest.raises(ValueError, match="different states"):
                error_norms(disc, params, TimeGrid(0.2, 8, 1),
                            _reference_as_windows(traj), traj, other)
        for grid in (TimeGrid(0.4, 16, 1), TimeGrid(0.2, 3, 1)):
            with pytest.raises(ValueError, match="reference step"):
                error_norms(disc, params, grid,
                            RobinRobinSolver(disc, params, grid).run(state0), traj, state0)


def test_two_level_error_ratio(run_disc, params):
    """Halving dt shrinks the energy-norm error by a factor consistent with
    a rate between 1/2 and 1."""
    _, (coarse, fine), _, _ = convergence(run_disc, params, 0.5, 8, 2, 1)
    ratio = np.sqrt(coarse.total / fine.total)
    assert 1.15 <= ratio <= 2.6


def test_error_grows_at_most_like_final_time(disc8, params):
    """The squared splitting error at time T is O(T dt): at fixed dt,
    C(T) = total / (T dt) stays within twice its value at the shortest T."""
    dt = 1.0 / 32
    C = {}
    for T in (0.125, 0.5, 2.0):
        dts, reports, _, _ = convergence(disc8, params, T, round(T / dt), 2, 1)
        assert dts[0] == dt
        C[T] = reports[0].total / (T * dt)
    assert max(C.values()) <= 2 * C[0.125], C


@pytest.mark.parametrize("lam", [1.0, 10.0])
def test_error_does_not_grow_at_large_final_time(disc8, params, lam):
    """The bound O(sqrt(T dt)) has no exponential factor in T: at fixed
    dt = 1/32 the error total over E0 + S0 levels off, and at T = 8 it is at
    most 1.5 times its largest value over T in {1/4, 1}."""
    params = replace(params, lambda_robin=lam)
    rel = {}
    for T in (0.25, 1.0, 8.0):
        _, (report,), ((_, scale),), _ = convergence(disc8, params, T, round(32 * T), 1, 1)
        rel[T] = report.total / scale
    assert rel[8.0] <= 1.5 * max(rel[0.25], rel[1.0]), rel


@pytest.mark.parametrize("m", [3])
def test_convergence_with_substeps(disc8, params, m):
    """With m = 3 substeps per window (window averages over several
    samples, on lcm(8, 3) = 24 reference steps per finest window) the error
    still converges at rate >= 0.4 and every level's ledger closes within
    1e-8 (E0 + S0); m = 2 is checked by the test below."""
    dts, reports, residuals, _ = convergence(disc8, params, 0.5, 8, 3, m)
    rate = fit_rate(dts, [r.total for r in reports])
    assert rate >= 0.4, rate
    for worst, scale in residuals:
        assert worst <= 1e-8 * scale, (worst, scale)


def test_rate_settles_as_substeps_grow(disc8, params):
    """The window-continuous limit.  On the shipped ladder (T = 0.5, N = 16,
    4 levels) at n = 8, the finest error total over E0 + S0 strictly
    decreases for m in {1, 2, 4, 8}, by shrinking steps, as the substeps
    resolve the within-window time error; every fitted rate is at least 0.4
    and every level's ledger closes within 1e-8 (E0 + S0)."""
    finest = []
    for m in (1, 2, 4, 8):
        dts, reports, residuals, _ = convergence(disc8, params, 0.5, 16, 4, m)
        assert fit_rate(dts, [r.total for r in reports]) >= 0.4, m
        for worst, scale in residuals:
            assert worst <= 1e-8 * scale, (m, worst, scale)
        finest.append(reports[-1].total / residuals[0][1])  # the verdict's scale
    drops = -np.diff(finest)
    assert np.all(drops > 0) and np.all(np.diff(drops) < 0), finest


@pytest.mark.parametrize("rho_s,lam", [(1.0, 1.0), (0.01, 0.01)])
def test_error_budget_window_by_window(disc8, params, rho_s, lam):
    """Stability plus consistency.  From R(t_0), the splitting's error
    e_n = R(t_n) - X_n obeys e_{n+1} = G e_n + c_n with the window defects
    c_n of `oracles.window_defects`, and G contracts the norm H = E + S0
    (the window energy certificate), so ||e_N||_H <= sum_n ||c_n||_H at every
    level of the shipped ladder (T = 0.5, N = 16, 4 levels, m = 1) at n = 8.
    The defect sum falls at a fitted slope of at least 0.4 in dt, at the
    shipped point and at the corner (0.01, 0.01) whose study rate is 0.35."""
    p = replace(params, rho_s=rho_s, lambda_robin=lam)
    ref = run_reference(disc8, p, smooth_coupled_mode(disc8, p), 0.5,
                        reference_steps(16, 4, 1), 8)
    dts, budgets = [], []
    for n_win in (16, 32, 64, 128):
        solver = RobinRobinSolver(disc8, p, TimeGrid(0.5, n_win))
        budgets.append(sum(oracles.window_defects(solver, ref)))
        *_, last = solver.run(oracles.reference_split_state(ref, solver.grid, 0))
        final = oracles.reference_split_state(ref, solver.grid, n_win)
        assert oracles.h_norm(solver, final, last) <= budgets[-1], n_win
        dts.append(solver.grid.dt)
    slope = np.polyfit(np.log(dts), np.log(budgets), 1)[0]
    assert slope >= 0.4, (slope, budgets)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_strided_reference_gives_identical_error_reports(run_disc, params,
                                                         monkeypatch, m):
    """The error reports read the reference fields only at substep times, so
    keeping them every lcm(8, m) / m steps changes no bit of any report."""
    from fsisplit import experiments

    strided = convergence(run_disc, params, 0.25, 4, 2, m)
    ref = strided[3]
    steps = 8 * math.lcm(8, m)  # finest level: 4 * 2 windows
    assert ref.stride == math.lcm(8, m) // m
    assert len(ref.u) == steps // ref.stride + 1
    assert len(ref.flux) == len(ref.traces) == steps + 1
    monkeypatch.setattr(experiments, "run_reference",
                        lambda *args: run_reference(*args[:5], 1))
    full = convergence(run_disc, params, 0.25, 4, 2, m)
    assert full[3].stride == 1 and len(full[3].u) == steps + 1
    for got, want in zip(strided[1], full[1]):
        assert np.array(astuple(got)).tobytes() == np.array(astuple(want)).tobytes()
    assert strided[2] == full[2]


# -- consistency terms -------------------------------------------------------


def _synthetic_trajectory(t_final, steps, trace_of_t, flux_of_t):
    """Interface trace and flux only: the consistency terms read no field."""
    times = np.linspace(0.0, t_final, steps + 1)
    return ReferenceTrajectory(ddt=t_final / steps, stride=steps, times=times,
                               u=None, p=None, eta=None, etad=None,
                               traces=[trace_of_t(t) for t in times],
                               flux=[flux_of_t(t) for t in times])


def test_consistency_constant_trace(run_disc, params):
    d = run_disc
    c = np.linspace(1.0, 2.0, d.ifd_f.size)
    traj = _synthetic_trajectory(1.0, 32, lambda t: c, lambda t: d.M_c @ c)
    g3, g2 = consistency_terms(d, traj, 0.25, params.lambda_robin)
    assert np.abs(g3).max() < 1e-13
    assert np.abs(g2).max() < 1e-13


def test_consistency_linear_trace_closed_form(run_disc, params):
    """u(t) = t c on the interface: per window n >= 1 the exact integral is
    (13/12) lambda^2 dt^3 ||c||^2, and dt^3/3 for the first window; the
    rectangle rule at 64 substeps reproduces it to O(1/64)."""
    d = run_disc
    lam = params.lambda_robin
    c = np.linspace(-1.0, 1.0, d.ifd_f.size)
    c_sq = d.trace_norm_sq(c)
    dt, T, per = 0.25, 1.0, 64
    traj = _synthetic_trajectory(T, int(T / dt) * per, lambda t: t * c,
                              lambda t: np.zeros(d.ifd_f.size))
    g3, _ = consistency_terms(d, traj, dt, lam)
    assert g3[0] == pytest.approx(lam ** 2 * dt ** 3 / 3.0 * c_sq, rel=0.05)
    for val in g3[1:]:
        assert val == pytest.approx(13.0 / 12.0 * lam ** 2 * dt ** 3 * c_sq,
                                    rel=0.05)


def test_consistency_rejects_incompatible_window(run_disc, params):
    """A window that is not a whole number of reference steps, or windows
    that do not tile the steps: 10 or 14 steps in windows of 4 must raise,
    not cover 8 of the steps or index past the last."""
    d = run_disc
    for steps, dt in ((30, 0.25), (10, 0.4), (14, 4.0 / 14)):
        traj = _synthetic_trajectory(1.0, steps, lambda t: np.zeros(d.ifd_f.size),
                                     lambda t: np.zeros(d.ifd_f.size))
        with pytest.raises(ValueError, match="do not tile the reference steps"):
            consistency_terms(d, traj, dt, params.lambda_robin)


# -- rate fitting -------------------------------------------------------------


def test_fit_rate_trivial_slopes():
    dts = [0.4, 0.2, 0.1]
    # sqrt(total) halving per level -> slope 1
    assert fit_rate(dts, [1.0, 0.25, 0.0625]) == pytest.approx(1.0, abs=1e-12)
    # sqrt(total) shrinking by sqrt(2) -> slope 1/2
    assert fit_rate(dts, [1.0, 0.5, 0.25]) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([0.1], [1.0])


def test_fit_rate_flags_non_monotone():
    with pytest.warns(RuntimeWarning):
        slope = fit_rate([0.4, 0.2, 0.1], [1.0, 1.1, 0.3])
    assert np.isfinite(slope)

