import numpy as np
import pytest

import oracles
from fsisplit import ChannelGeometry, Discretization, TimeGrid, initial_data
from fsisplit.diagnostics import initial_S0
from fsisplit.initial_data import (pressure_pulse, pressure_traction_load,
                                   project_divergence_free, random_state,
                                   smooth_coupled_mode, solid_extension,
                                   stream_function_velocity)


def test_constant_pressure_traction_load(small_disc):
    """sigma n = -p0 n for constant pressure: load is -p0 * integral of n . v,
    checked against the independent 1D interface quadrature oracle."""
    d = small_disc
    p0 = 3.0
    load = pressure_traction_load(d, lambda x, y: p0)
    M_dense = oracles.dense_interface_mass(d.V_f)
    ey = np.zeros(d.V_f.ndof)
    ey[1::2] = 1.0
    want = (-p0 * (M_dense @ ey))[d.ifd_f]
    assert np.abs(load - want).max() < 1e-12


def test_pulse_S0_matches_1d_quadrature(params):
    disc = Discretization(ChannelGeometry(1.0, 1.0, 1.0), 16, 2, 2)
    a, width = 1.0, 0.25
    st = pressure_pulse(disc)
    grid = TimeGrid(0.5, 4)
    got = initial_S0(disc, params, grid, st.u_avg, st.traction_avg)
    g, gw = np.polynomial.legendre.leggauss(50)
    x, wts = 0.5 * (g + 1.0), 0.5 * gw
    p_sq = float(np.sum(wts * (a * np.exp(-((x - 0.5) ** 2) / width ** 2)) ** 2))
    want = grid.dt / (2.0 * params.lambda_robin) * p_sq
    assert got == pytest.approx(want, rel=1e-4)


def test_divergence_free_projection(run_disc, rng):
    d = run_disc
    u = project_divergence_free(d, rng.standard_normal(d.V_f.ndof))
    assert np.linalg.norm(d.B @ u) <= 1e-10 * np.linalg.norm(u)
    assert np.abs(u[d.dir_f]).max() == 0.0
    # projecting again changes nothing (up to solver tolerance)
    again = project_divergence_free(d, u.copy())
    assert np.linalg.norm(again - u) <= 1e-10 * np.linalg.norm(u)


def test_divergence_free_projection_rejects_nan(run_disc, monkeypatch):
    class NaNSolve:
        def __init__(self, A, order, fixed):
            self.n = A.shape[0]

        def solve(self, b):
            return np.full(self.n, np.nan)

    monkeypatch.setattr(initial_data, "Factorization", NaNSolve)
    with pytest.raises(RuntimeError, match="projection failed"):
        project_divergence_free(run_disc, np.ones(run_disc.V_f.ndof))


def test_solid_extension_trace_bitwise(run_disc, rng):
    d = run_disc
    trace = rng.standard_normal(d.ifd_s.size)
    out = solid_extension(d, trace)
    assert np.array_equal(out[d.ifd_s], trace)
    assert np.abs(out[d.dir_s]).max() == 0.0


def test_solid_extension_matches_dense_oracle(small_disc, rng):
    """The free dofs solve (M_s + K(1, 0)) x = 0 with the trace lifted, on a
    dense copy; the fixed dofs hold the trace and 0."""
    d = small_disc
    trace = rng.standard_normal(d.ifd_s.size)
    A = d.M_s + d.stiffness_solid(1.0, 0.0)
    lift = np.zeros(d.V_s.ndof)
    lift[d.ifd_s] = trace
    fixed = np.concatenate([d.dir_s, d.ifd_s])
    want = oracles.dense_reduced_solve(A, -(A @ lift), fixed) + lift
    got = solid_extension(d, trace)
    assert np.abs(got - want).max() < 1e-12
    assert np.array_equal(got[fixed], lift[fixed])


def test_smooth_coupled_mode_compatibility(run_disc, params):
    st = smooth_coupled_mode(run_disc, params)
    d = run_disc
    assert np.array_equal(st.u[d.ifd_f], st.etad[d.ifd_s])  # kinematic coupling
    assert np.linalg.norm(d.B @ st.u) <= 1e-10 * np.linalg.norm(st.u)
    assert np.abs(st.u[d.dir_f]).max() == 0.0
    assert np.abs(st.etad[d.dir_s]).max() == 0.0
    assert np.abs(st.eta).max() == 0.0
    assert np.linalg.norm(st.u) > 0.0


def test_initial_fields_match_nodewise_loops(params):
    """The array-built nodal fields equal node-by-node evaluation, bit for
    bit, on a non-unit channel."""
    d = Discretization(ChannelGeometry(2.0, 0.7, 1.3), 5, 3, 4)
    L, width = d.geom.length, 0.5
    pulse = pressure_pulse(d)
    want_p = [np.exp(-((x - L / 2.0) ** 2) / width ** 2)
              for x, _ in d.Q.node_coords]
    assert np.array_equal(pulse.p, want_p)
    u_raw = np.zeros(d.V_f.ndof)
    for n, (x, y) in enumerate(d.V_f.node_coords):
        u_raw[2 * n] = x ** 2 * (L - x) ** 2 * 2.0 * y
        u_raw[2 * n + 1] = -(2 * x * (L - x) ** 2 - 2 * x ** 2 * (L - x)) * y ** 2
    assert np.array_equal(stream_function_velocity(d), u_raw)
    want_u = project_divergence_free(d, u_raw)
    assert np.array_equal(smooth_coupled_mode(d, params).u, want_u)


def test_random_state_invariants(run_disc, rng):
    st = random_state(run_disc, rng)
    d = run_disc
    assert np.linalg.norm(d.B @ st.u) <= 1e-9 * np.linalg.norm(st.u)
    assert np.abs(st.u[d.dir_f]).max() == 0.0
    assert np.abs(st.eta[d.dir_s]).max() == 0.0
    assert np.array_equal(st.u_avg, st.u[d.ifd_f])
    # deterministic per seed
    a = random_state(run_disc, np.random.default_rng(9))
    b = random_state(run_disc, np.random.default_rng(9))
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.traction_avg, b.traction_avg)


def test_initial_interface_data_rules(run_disc, params, rng):
    d = run_disc
    # zero pressure gives a zero traction load
    load = pressure_traction_load(d, lambda x, y: 0.0)
    assert np.abs(load).max() == 0.0
    # the first window's velocity average is the initial trace, held in an
    # array of its own
    for st in (smooth_coupled_mode(d, params), random_state(d, rng)):
        assert np.array_equal(st.u_avg, st.u[d.ifd_f])
        assert not np.shares_memory(st.u_avg, st.u)
