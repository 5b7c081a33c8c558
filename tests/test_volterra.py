import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinflow.maps import MapParams, SingularRateError, apply_map, snapshot
from spinflow.states import EXCITED, MAXIMALLY_MIXED, PLUS, QubitState
from spinflow.volterra import (
    IntegrationDivergenceError,
    generator_matrix,
    integrate_memory_kernel,
    integrate_post_markovian,
    integrate_quadrature,
    integrate_tcl,
)

PROBE_STATES = (EXCITED, MAXIMALLY_MIXED, QubitState(0.3, 0.2 - 0.35j))


def _closed_path(kind, p, s0, times):
    return [apply_map(snapshot(kind, p, t), s0) for t in times]


def _max_gap(states_a, states_b):
    gaps = [
        max(abs(a.population_e - b.population_e), abs(a.coherence - b.coherence))
        for a, b in zip(states_a, states_b)
    ]
    return max(gaps)


@pytest.mark.parametrize("r,n", [(0.1, 0.5), (0.24, 10.0), (0.5, 1.0)])
def test_memory_kernel_ode_matches_closed_form(r, n):
    p = MapParams.from_ratio(r, n_occ=n)
    g = generator_matrix(p)
    for s0 in PROBE_STATES:
        traj = integrate_memory_kernel(g, p, s0, 10.0, points=51)
        assert _max_gap(traj.states, _closed_path("mem", p, s0, traj.times)) < 1e-8
        assert traj.max_residual <= 1e-10


@pytest.mark.parametrize("r,n", [(0.3, 1.0), (2.0, 0.5)])
def test_post_markovian_ode_matches_closed_form(r, n):
    p = MapParams.from_ratio(r, n_occ=n)
    g = generator_matrix(p)
    for s0 in PROBE_STATES:
        traj = integrate_post_markovian(g, p, s0, 10.0, points=51)
        assert _max_gap(traj.states, _closed_path("post", p, s0, traj.times)) < 1e-8
        assert traj.max_residual <= 1e-10


@pytest.mark.parametrize("kind", ["mem", "post"])
def test_quadrature_matches_closed_form(kind):
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    g = generator_matrix(p)
    traj = integrate_quadrature(kind, g, p, EXCITED, 8.0, steps=4000)
    assert _max_gap(traj.states, _closed_path(kind, p, EXCITED, traj.times)) < 1e-6
    assert traj.max_residual <= 1e-10


@pytest.mark.parametrize("kind", ["mem", "post"])
def test_quadrature_is_second_order(kind):
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    g = generator_matrix(p)

    def worst_error(steps):
        traj = integrate_quadrature(kind, g, p, EXCITED, 6.0, steps=steps)
        return _max_gap(traj.states, _closed_path(kind, p, EXCITED, traj.times))

    ratio = worst_error(400) / worst_error(800)
    assert 3.5 < ratio < 4.5


def _summed_quadrature(kind, ghat, y0, t_end, steps):
    """The O(steps**2) trapezoid sums that the quadrature's recursion replaces.

    The memory term of rho' is outer int_0^t K(s) inner rho(t - s) ds, with
    K(s) = e^{-s} and inner = ghat for the memory kernel, and
    K(s) = e^{-s} expm(ghat s) and outer = ghat for the dressed kernel; the
    integral itself is the auxiliary variable.
    """
    h = t_end / steps
    eye = np.eye(4)
    dressed = kind == "post"
    outer, inner = (ghat, eye) if dressed else (eye, ghat)
    kernels = np.array(
        [np.exp(-m * h) * (expm(ghat * m * h) if dressed else eye) for m in range(steps + 1)]
    )
    lhs = eye - 0.25 * h * h * outer @ inner
    rho = np.zeros((steps + 1, 4))
    aux = np.zeros((steps + 1, 4))
    rho[0] = y0
    for k in range(steps):
        weighted = rho[: k + 1] @ inner.T
        weighted[0] *= 0.5
        hist = np.einsum("mij,mj->i", kernels[k + 1 : 0 : -1], weighted)
        rhs = rho[k] + 0.5 * h * outer @ aux[k] + 0.5 * h * h * outer @ hist
        rho[k + 1] = np.linalg.solve(lhs, rhs)
        aux[k + 1] = h * hist + 0.5 * h * inner @ rho[k + 1]
    return rho, aux


@pytest.mark.parametrize("kind", ["mem", "post"])
@pytest.mark.parametrize("r,n", [(0.2, 1.0), (2.0, 0.0), (0.35, 10.0)])
def test_quadrature_recursion_equals_summed_history(kind, r, n):
    p = MapParams.from_ratio(r, n_occ=n)
    g = generator_matrix(p)
    s0 = QubitState(0.3, 0.2 - 0.35j)
    traj = integrate_quadrature(kind, g, p, s0, 10.0, steps=300)
    rho, aux = _summed_quadrature(kind, g / p.gamma, [0.3, 0.2, -0.35, 1.0], 10.0, 300)
    states = np.array([[s.population_e, s.coherence.real, s.coherence.imag] for s in traj.states])
    np.testing.assert_allclose(states, rho[:, :3], rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(traj.auxiliary, aux, rtol=0.0, atol=1e-13)


def test_memory_kernel_auxiliary_is_state_derivative():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    traj = integrate_memory_kernel(generator_matrix(p), p, EXCITED, 6.0, points=601)
    pe = traj.population_path()
    dpe = np.gradient(pe, traj.times)
    np.testing.assert_allclose(traj.auxiliary[5:-5, 0], dpe[5:-5], atol=2e-4)


def test_zero_coupling_freezes_every_route():
    p = MapParams(gamma0=0.0, gamma=1.0, n_occ=3.0)
    g = generator_matrix(p)
    for traj in (
        integrate_memory_kernel(g, p, PLUS, 5.0, points=21),
        integrate_post_markovian(g, p, PLUS, 5.0, points=21),
        integrate_quadrature("mem", g, p, PLUS, 5.0, steps=100),
        integrate_tcl("post", p, PLUS, 5.0, points=21),
    ):
        assert _max_gap(traj.states, [PLUS] * len(traj.states)) < 1e-9


@pytest.mark.parametrize("kind,r", [("mem", 0.1), ("mem", 0.25), ("post", 0.7)])
def test_evolved_states_stay_valid(kind, r):
    p = MapParams.from_ratio(r, n_occ=1.0)
    g = generator_matrix(p)
    integrate = integrate_memory_kernel if kind == "mem" else integrate_post_markovian
    traj = integrate(g, p, QubitState(0.9, 0.2j), 15.0, points=101)
    assert all(s.is_valid(tol=1e-8) for s in traj.states)


@pytest.mark.parametrize("kind,r", [("mem", 0.2), ("post", 0.6), ("post", 1.8)])
def test_time_local_route_matches_closed_form(kind, r):
    p = MapParams.from_ratio(r, n_occ=0.8)
    s0 = QubitState(0.75, 0.1 + 0.25j)
    traj = integrate_tcl(kind, p, s0, 12.0, points=41)
    assert _max_gap(traj.states, _closed_path(kind, p, s0, traj.times)) < 1e-6


def test_time_local_route_refuses_singular_horizon():
    p = MapParams.from_ratio(0.5, n_occ=1.0)
    with pytest.raises(SingularRateError, match="4.71238898"):
        integrate_tcl("mem", p, EXCITED, 5.0)
    # just inside the safe horizon it integrates fine
    traj = integrate_tcl("mem", p, EXCITED, 4.5, points=31)
    assert traj.max_residual <= 1e-10


def test_argument_validation():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    g = generator_matrix(p)
    for bad in (0.0, math.inf, math.nan):
        for integrate in (
            lambda t: integrate_memory_kernel(g, p, EXCITED, t),
            lambda t: integrate_post_markovian(g, p, EXCITED, t),
            lambda t: integrate_quadrature("mem", g, p, EXCITED, t),
            lambda t: integrate_tcl("mem", p, EXCITED, t),
        ):
            with pytest.raises(ValueError, match="t_end must be finite and > 0"):
                integrate(bad)
    with pytest.raises(ValueError, match="tol"):
        integrate_post_markovian(g, p, EXCITED, 1.0, tol=1e-2)
    with pytest.raises(ValueError, match="steps"):
        integrate_quadrature("mem", g, p, EXCITED, 1.0, steps=50)
    with pytest.raises(ValueError, match="valid qubit state"):
        integrate_memory_kernel(g, p, QubitState(1.4, 0.0), 1.0)


def test_divergence_error_carries_last_good_time():
    err = IntegrationDivergenceError("stalled", last_good_time=2.5)
    assert err.last_good_time == 2.5
    assert "stalled" in str(err)
