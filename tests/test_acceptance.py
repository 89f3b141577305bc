"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from fsisplit import ChannelGeometry, Discretization, PhysicalParams, TimeGrid
from fsisplit.assembly import (assemble_divdiv, assemble_divergence,
                               assemble_elasticity, assemble_interface_mass,
                               assemble_symgrad, assemble_vector_mass)
from fsisplit.diagnostics import consistency_terms, energy_E, fit_rate
from fsisplit.experiments import (convergence, dirichlet_neumann, initial_state,
                                  robin_robin)
from fsisplit.initial_data import random_state
from fsisplit.mesh import FLUID, SOLID, build_two_layer_mesh
from fsisplit.monolithic import MonolithicSolver
from fsisplit.spaces import SCALAR_P1, VECTOR_P2, build_space

STABILITY_TOL = 1e-8
RATE_THRESHOLD = 0.4


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def disc16():
    return Discretization(ChannelGeometry(1.0, 1.0, 1.0), 16, 16, 16)


@pytest.fixture(scope="module")
def base_params():
    return PhysicalParams(rho_f=1.0, rho_s=1.0, mu=0.1, l1=1.0, l2=1.0,
                          lambda_robin=1.0)


@pytest.fixture(scope="module")
def convergence_study(disc16, base_params):
    """Shared by criteria 2 and 3: reference plus 4 halved-dt splitting runs
    (N = 16 .. 128)."""
    T = 0.5
    dts, reports, _, ref = convergence(disc16, base_params, T, 16, 4, 1)
    return T, dts, [r.total for r in reports], ref


def test_criterion_1_energy_stability(disc16):
    """>= 20 randomized configurations satisfy the discrete stability bound."""
    rng = np.random.default_rng(2024)
    worst = -np.inf
    runs = 0
    for lam in (0.1, 1.0, 10.0):
        for m in (1, 2):
            for _ in range(4):
                ratio = rng.uniform(0.5, 2.0)
                params = PhysicalParams(rho_f=1.0, rho_s=ratio, mu=0.1,
                                        l1=1.0, l2=1.0, lambda_robin=lam)
                state0 = random_state(disc16, rng)
                ledger = robin_robin(disc16, params, TimeGrid(0.5, 64, m),
                                     state0)
                scale = ledger.E[0] + ledger.S0
                worst = max(worst, float(ledger.residuals().max()) / scale)
                runs += 1
    report("criterion 1, energy stability over randomized sweep",
           runs >= 20 and worst <= STABILITY_TOL,
           f"{runs} runs, worst relative residual {worst:.3e}")


def test_criterion_2_convergence_rate(convergence_study):
    _, dts, totals, _ = convergence_study
    slope = fit_rate(dts, totals)
    report("criterion 2, splitting-error rate (proven 1/2)",
           slope >= RATE_THRESHOLD, f"fitted energy-norm rate {slope:.3f}")


def test_criterion_3_consistency_scaling(disc16, base_params, convergence_study):
    """Summed g3/g2 interface norms shrink like dt after compensating for the
    doubling window count (per-window mass scales like dt^3, count like 1/dt)."""
    _, dts, _, ref = convergence_study
    lam = base_params.lambda_robin
    comp3, comp2 = [], []
    for dt in dts:
        g3, g2 = consistency_terms(disc16, ref, dt, lam)
        comp3.append(float(np.sum(g3)) / dt)
        comp2.append(float(np.sum(g2)) / dt)
    r3 = [a / b for a, b in zip(comp3, comp3[1:])]
    r2 = [a / b for a, b in zip(comp2, comp2[1:])]
    ok = all(1.6 <= r <= 2.4 for r in r3 + r2)
    report("criterion 3, averaging-consistency scaling", ok,
           f"g3 halving ratios {[f'{r:.2f}' for r in r3]}, "
           f"g2 {[f'{r:.2f}' for r in r2]}")


def test_criterion_4_algebraic_identities(disc16):
    d = disc16
    rng = np.random.default_rng(99)
    n = d.ifd_f.size

    def ip(a, b):
        return float(a @ (d.M_c @ b))

    worst131 = worst111 = 0.0
    for _ in range(1000):
        v, w, psi = (rng.standard_normal(n) for _ in range(3))
        lhs = ip(v - w, psi)
        rhs = 0.5 * (ip(v, v) - ip(w, w) + ip(psi - w, psi - w)
                     - ip(psi - v, psi - v))
        scale = max(1.0, abs(ip(v, v)), abs(ip(w, w)), abs(ip(psi, psi)))
        worst131 = max(worst131, abs(lhs - rhs) / scale)

        m = int(rng.integers(1, 5))
        samples = rng.standard_normal((m, n))
        mean = samples.mean(axis=0)
        lhs = m * ip(mean, mean)
        rhs = sum(ip(s, s) for s in samples)
        worst111 = max(worst111, (lhs - rhs) / max(1.0, rhs))
    ok = worst131 <= 1e-13 and worst111 <= 1e-13
    report("criterion 4, interface identities over 1000 random samples", ok,
           f"polarization defect {worst131:.2e}, averaging slack {worst111:.2e}")


def _general_affine_spaces():
    """The spaces of a stretched 2 x (2 + 2) channel (L = 3, H_f = 0.2,
    H_s = 0.5) whose inner vertices are moved off the grid, and its interface
    vertices along it: cells that are neither right-angled nor of unit size."""
    geom = ChannelGeometry(3.0, 0.2, 0.5)
    mesh = build_two_layer_mesh(geom, 2, 2, 2)
    x, y = mesh.vertices.T
    top = geom.fluid_height + geom.solid_height
    inner_x = (x > 0.0) & (x < geom.length)
    inner_y = inner_x & (y > 0.0) & (y < top) & (y != geom.fluid_height)
    step_y = np.where(y < geom.fluid_height, 0.1, 0.25)
    shift = np.random.default_rng(11).uniform(-0.3, 0.3, mesh.vertices.shape)
    mesh.vertices = mesh.vertices + shift * np.column_stack(
        [1.5 * inner_x, step_y * inner_y])
    a, b, c = (mesh.vertices[mesh.cells[:, k]] for k in range(3))
    e1, e2 = b - a, c - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    assert det.min() > 0 and np.unique(np.round(np.abs(det), 12)).size > 4
    return SimpleNamespace(V_f=build_space(mesh, FLUID, VECTOR_P2),
                           Q=build_space(mesh, FLUID, SCALAR_P1),
                           V_s=build_space(mesh, SOLID, VECTOR_P2))


def test_criterion_5_assembly_oracle(tiny_disc, small_disc):
    """Every form against the dense quadrature oracle on the 1x1x1 and 2x2x2
    unit channels and on a distorted, stretched channel; the interface
    masses within 1e-13."""
    worst = worst_interface = 0.0
    for d in (tiny_disc, small_disc, _general_affine_spaces()):
        pairs = [
            (assemble_vector_mass(d.V_f), oracles.dense_vector_mass(d.V_f, 1.0)),
            (assemble_vector_mass(d.V_s), oracles.dense_vector_mass(d.V_s, 1.0)),
            (assemble_symgrad(d.V_f, 0.9), oracles.dense_symgrad(d.V_f, 0.9)),
            (assemble_divdiv(d.V_s, 1.1), oracles.dense_divdiv(d.V_s, 1.1)),
            (assemble_elasticity(d.V_s, 1.2, 0.8),
             oracles.dense_elasticity(d.V_s, 1.2, 0.8)),
            (assemble_divergence(d.V_f, d.Q), oracles.dense_divergence(d.V_f, d.Q)),
        ]
        for got, want in pairs:
            worst = max(worst, float(np.abs(got.toarray() - want).max()))
        for V in (d.V_f, d.V_s):
            err = float(np.abs(assemble_interface_mass(V).toarray()
                               - oracles.dense_interface_mass(V)).max())
            worst_interface = max(worst_interface, err)
    report("criterion 5, assembly vs dense quadrature oracle",
           worst <= 1e-12 and worst_interface <= 1e-13,
           f"worst entrywise deviation {worst:.2e}, "
           f"{worst_interface:.2e} on the interface masses")


def test_criterion_6_added_mass_contrast(disc16, base_params):
    """Explicit DN blows up at matched densities from random data, and in the
    shipped dn_compare shape (the pressure pulse) at n = 8 for a light, a
    matched and a heavy solid; only a solid 1000 times the fluid's density
    keeps it bounded.  At n = 16 that solid still blows it up at dt = 1/100
    and stays bounded at dt = 1/400.  Robin-Robin stays stable on every run."""
    T = 0.5
    discs = {16: disc16, 8: Discretization(ChannelGeometry(1.0, 1.0, 1.0), 8, 8, 8)}
    # (cells per side, seed, rho_s, N, whether DN blows up)
    cases = [(16, 7, 1.0, 200, True), (8, 0, 0.01, 200, True),
             (8, 0, 1.0, 200, True), (8, 0, 100.0, 200, True),
             (8, 0, 1000.0, 200, False), (16, 0, 1000.0, 50, True),
             (16, 0, 1000.0, 200, False)]
    ok, details = True, []
    for n, seed, rho_s, N, blows_up in cases:
        disc = discs[n]
        params = replace(base_params, rho_s=rho_s)
        state0 = initial_state(disc, seed)
        _, growth = dirichlet_neumann(disc, params, T / N, N, state0)
        ledger = robin_robin(disc, params, TimeGrid(T, N, 1), state0)
        resid = float(ledger.residuals().max()) / (ledger.E[0] + ledger.S0)
        ok = (ok and (growth >= 1e6 if blows_up else growth < 1e3)
              and resid <= STABILITY_TOL)
        details.append(f"n = {n}, rho_s = {rho_s:g}, dt = T/{N}: explicit DN "
                       f"energy growth {growth:.2e}, Robin-Robin relative "
                       f"residual {resid:.2e}")
    report("criterion 6, added-mass contrast across density ratios and dt", ok,
           "; ".join(details))


def test_criterion_7_monolithic_dissipation(disc16, base_params):
    solver = MonolithicSolver(disc16, base_params, 0.01)
    state = random_state(disc16, np.random.default_rng(3))
    e0 = energy_E(disc16, base_params, state.u, state.etad, state.eta)
    e_prev = e0
    worst = -np.inf
    for _ in range(100):
        state = solver.step(state)
        e = energy_E(disc16, base_params, state.u, state.etad, state.eta)
        worst = max(worst, (e - e_prev) / e0)
        e_prev = e
    report("criterion 7, monolithic energy dissipation", worst <= 1e-10,
           f"worst per-step relative energy increase {worst:.2e}")
