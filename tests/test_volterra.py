import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinflow import volterra
from spinflow.maps import (
    MapParams,
    SingularRateError,
    apply_map,
    rate_divergence_time,
    snapshot,
)
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


def _rows(states):
    """(pe, Re b, Im b) rows of QubitStates, the layout of a trajectory's states."""
    return np.array([(s.population_e, s.coherence.real, s.coherence.imag) for s in states])


def _closed_path(kind, p, s0, times):
    return _rows([apply_map(snapshot(kind, p, t), s0) for t in times])


def _max_gap(rows_a, rows_b):
    """Largest population gap or coherence-modulus gap between two state paths."""
    gap = rows_a - rows_b
    return max(np.max(np.abs(gap[:, 0])), np.max(np.hypot(gap[:, 1], gap[:, 2])))


@pytest.mark.parametrize("r,n", [(0.1, 0.5), (0.24, 10.0), (0.5, 1.0)])
def test_memory_kernel_ode_matches_closed_form(r, n):
    p = MapParams.from_ratio(r, n_occ=n)
    for s0 in PROBE_STATES:
        traj = integrate_memory_kernel(p, s0, 10.0, points=51)
        assert _max_gap(traj.states, _closed_path("mem", p, s0, traj.times)) < 1e-8
        assert traj.max_residual <= 1e-10


@pytest.mark.parametrize("r,n", [(0.3, 1.0), (2.0, 0.5)])
def test_post_markovian_ode_matches_closed_form(r, n):
    p = MapParams.from_ratio(r, n_occ=n)
    for s0 in PROBE_STATES:
        traj = integrate_post_markovian(p, s0, 10.0, points=51)
        assert _max_gap(traj.states, _closed_path("post", p, s0, traj.times)) < 1e-8
        assert traj.max_residual <= 1e-10


@pytest.mark.parametrize("kind", ["mem", "post"])
def test_quadrature_matches_closed_form(kind):
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    traj = integrate_quadrature(kind, p, EXCITED, 8.0, steps=4000)
    assert _max_gap(traj.states, _closed_path(kind, p, EXCITED, traj.times)) < 1e-6
    assert traj.max_residual <= 1e-10


@pytest.mark.parametrize("kind", ["mem", "post"])
def test_quadrature_is_second_order(kind):
    p = MapParams.from_ratio(0.2, n_occ=1.0)

    def worst_error(steps):
        traj = integrate_quadrature(kind, p, EXCITED, 6.0, steps=steps)
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
    rho, aux = _summed_quadrature(kind, g / p.gamma, [0.3, 0.2, -0.35, 1.0], 10.0, 300)
    # every step on the grid, then every c-th step on a grid of c = 10 steps per cell
    for points, c in ((301, 1), (31, 10)):
        traj = integrate_quadrature(kind, p, s0, 10.0, steps=300, points=points)
        assert traj.steps == 300
        np.testing.assert_allclose(traj.states, rho[::c, :3], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(traj.auxiliary, aux[::c], rtol=0.0, atol=1e-13)


def _stepped_quadrature(kind, ghat, y0, t_end, steps):
    """The quadrature as a loop over time steps: one step of the linear recursion each."""
    h = t_end / steps
    dressed = kind == "post"
    rho = np.empty((steps + 1, 4))
    aux = np.zeros((steps + 1, 4))
    rho[0] = y0
    m_inv = np.linalg.inv(np.eye(4) - 0.25 * h * h * ghat)
    step_kernel = np.exp(-h) * (expm(ghat * h) if dressed else np.eye(4))
    acc = 0.5 * rho[0]
    for k in range(steps):
        hist = step_kernel @ acc
        rho[k + 1] = m_inv @ (rho[k] + 0.5 * h * (ghat @ (aux[k] + h * hist)))
        aux[k + 1] = h * hist + 0.5 * h * rho[k + 1]
        acc = hist + rho[k + 1]
    return rho, aux if dressed else aux @ ghat.T


@pytest.mark.parametrize("kind", ["mem", "post"])
@pytest.mark.parametrize("r,n", [(0.05, 10.0), (0.2, 1.0), (2.0, 0.0)])
def test_quadrature_propagator_equals_stepped_loop(kind, r, n):
    # steps + 1 = 11**2 and 89**2, one below and one above: every split of the
    # states into blocks of the propagator's powers
    p = MapParams.from_ratio(r, n_occ=n)
    g = generator_matrix(p)
    s0 = QubitState(0.3, 0.2 - 0.35j)
    for steps in (119, 120, 121, 7919, 7920, 7921):
        traj = integrate_quadrature(kind, p, s0, 20.0, steps=steps, points=steps + 1)
        rho, aux = _stepped_quadrature(kind, g / p.gamma, [0.3, 0.2, -0.35, 1.0], 20.0, steps)
        assert traj.states.shape == (steps + 1, 3)
        np.testing.assert_allclose(traj.states, rho[:, :3], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(traj.auxiliary, aux, rtol=0.0, atol=1e-12)
        # the worst |trace - 1| over every state: each trace row is exactly 1
        assert traj.max_residual == 0.0
        assert traj.steps == steps


@pytest.mark.parametrize("kind", ["mem", "post"])
def test_quadrature_orbit_has_one_row_per_grid_point(kind, monkeypatch):
    # the orbit runs on the cell propagator S**c: its row count follows
    # points, never steps, so 1e9 steps on 3 points allocate 3 rows
    counts = []
    real = volterra._orbit

    def counting(step, x0, count, rows):
        counts.append(count)
        return real(step, x0, count, rows)

    monkeypatch.setattr(volterra, "_orbit", counting)
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    s0 = QubitState(0.7, 0.2 - 0.1j)
    for points, steps, rounded in ((3, 100, 100), (101, 8000, 8000), (101, 8001, 8100),
                                   (3, 10**9, 10**9), (3, 10**9 + 1, 10**9 + 2)):
        traj = integrate_quadrature(kind, p, s0, 20.0, steps, points=points)
        assert counts.pop() == points
        assert traj.states.shape == (points, 3)
        assert traj.auxiliary.shape == (points, 4)
        assert traj.steps == rounded
        if steps >= 10**9:
            assert _max_gap(traj.states, _closed_path(kind, p, s0, traj.times)) < 1e-7


def test_memory_kernel_auxiliary_is_state_derivative():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    traj = integrate_memory_kernel(p, EXCITED, 6.0, points=601)
    pe = traj.states[:, 0]
    dpe = np.gradient(pe, traj.times)
    np.testing.assert_allclose(traj.auxiliary[5:-5, 0], dpe[5:-5], atol=2e-4)


def test_zero_coupling_freezes_every_route():
    p = MapParams(gamma0=0.0, gamma=1.0, n_occ=3.0)
    for traj in (
        integrate_memory_kernel(p, PLUS, 5.0, points=21),
        integrate_post_markovian(p, PLUS, 5.0, points=21),
        integrate_quadrature("mem", p, PLUS, 5.0, steps=100),
        integrate_tcl("post", p, PLUS, 5.0, points=21),
    ):
        assert _max_gap(traj.states, _rows([PLUS])) < 1e-9


@pytest.mark.parametrize("kind,r", [("mem", 0.1), ("mem", 0.25), ("post", 0.7)])
def test_evolved_states_stay_valid(kind, r):
    p = MapParams.from_ratio(r, n_occ=1.0)
    integrate = integrate_memory_kernel if kind == "mem" else integrate_post_markovian
    traj = integrate(p, QubitState(0.9, 0.2j), 15.0, points=101)
    assert all(QubitState(pe, complex(re, im)).is_valid(tol=1e-8) for pe, re, im in traj.states)


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
    for bad in (0.0, math.inf, math.nan):
        for integrate in (
            lambda t: integrate_memory_kernel(p, EXCITED, t),
            lambda t: integrate_post_markovian(p, EXCITED, t),
            lambda t: integrate_quadrature("mem", p, EXCITED, t),
            lambda t: integrate_tcl("mem", p, EXCITED, t),
        ):
            with pytest.raises(ValueError, match="t_end must be finite and > 0"):
                integrate(bad)
    with pytest.raises(ValueError, match="tol"):
        integrate_tcl("post", p, EXCITED, 1.0, tol=1e-2)
    for integrate in (integrate_memory_kernel, integrate_post_markovian):
        with pytest.raises(TypeError, match="tol"):
            integrate(p, EXCITED, 1.0, tol=1e-8)
    # 50 steps on 51 points round to 50, below the floor; on 201 points to 200
    with pytest.raises(ValueError, match="steps"):
        integrate_quadrature("mem", p, EXCITED, 1.0, steps=50, points=51)
    assert integrate_quadrature("mem", p, EXCITED, 1.0, steps=50).steps == 200
    for integrate in (
        lambda: integrate_memory_kernel(p, EXCITED, 1.0, points=1),
        lambda: integrate_quadrature("post", p, EXCITED, 1.0, points=1),
        lambda: integrate_tcl("mem", p, EXCITED, 1.0, points=1),
    ):
        with pytest.raises(ValueError, match="points must be >= 2"):
            integrate()
    # 1 - h**2 ghat / 4 overflows: the one-step propagator is NaN
    for kind, t_end in (("post", 1e160), ("mem", 1e300)):
        with pytest.raises(ValueError, match="propagator is not finite"):
            integrate_quadrature(kind, p, EXCITED, t_end)
    with pytest.raises(ValueError, match="valid qubit state"):
        integrate_memory_kernel(p, QubitState(1.4, 0.0), 1.0)


@pytest.mark.parametrize("t_end", [1e5, 1e12, 1e100])
@pytest.mark.parametrize("n", [0.0, 1.0])
@pytest.mark.parametrize("kind,r", [("mem", 0.2), ("mem", 3.0), ("post", 0.2), ("post", 3.0)])
def test_integrator_work_is_bounded_at_any_horizon(kind, r, n, t_end):
    p = MapParams.from_ratio(r, n_occ=n)
    s0 = QubitState(0.7, 0.2 - 0.1j)
    integrate = integrate_memory_kernel if kind == "mem" else integrate_post_markovian
    trajectories = [integrate(p, s0, t_end, points=3)]
    if t_end < rate_divergence_time(kind, p):
        trajectories.append(integrate_tcl(kind, p, s0, t_end, points=3))
    for traj in trajectories:
        assert traj.steps < 10_000
        assert np.all(np.isfinite(traj.states))
        # the last sample sits at the fixed point
        np.testing.assert_allclose(traj.states[-1], _closed_path(kind, p, s0, [t_end])[0], atol=1e-8)


def _nan_expm(a, t=1.0):
    """An _expm stand-in whose propagator is not finite."""
    return np.full_like(np.asarray(a, dtype=float), np.nan), 0


def _nan_rates_after(tau):
    """A _rate_pieces stand-in whose rates are NaN at times past tau."""
    real = volterra._rate_pieces

    def rate_pieces(full, half, p, t):
        return tuple(np.where(t > tau, np.nan, x) for x in real(full, half, p, t))

    return rate_pieces


def test_integrator_failure_before_the_first_sample_is_a_divergence(monkeypatch):
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    monkeypatch.setattr(volterra, "_expm", _nan_expm)
    monkeypatch.setattr(volterra, "_rate_pieces", _nan_rates_after(0.0))
    for integrate in (
        lambda: integrate_memory_kernel(p, EXCITED, 1e10),
        lambda: integrate_post_markovian(p, EXCITED, 1e10),
        lambda: integrate_tcl("post", p, EXCITED, 1e10),
    ):
        with pytest.raises(IntegrationDivergenceError, match="not finite") as err:
            integrate()
        assert err.value.last_good_time == 0.0


def test_non_finite_state_is_a_divergence(monkeypatch):
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    # the time-local route keeps the grid times whose integrals end before the NaN
    monkeypatch.setattr(volterra, "_rate_pieces", _nan_rates_after(0.5))
    with pytest.raises(IntegrationDivergenceError, match="rates are not finite") as err:
        integrate_tcl("mem", p, EXCITED, 1.0, points=3)
    assert err.value.last_good_time == 0.5
    # the augmented route stops at the row before the first non-finite one
    rho = np.array([[1.0, 0.5, 0.2, 1.0], [0.5, np.nan, 0.1, 1.0], [0.4, 0.1, 0.1, 1.0]])
    rows = np.hstack((rho, np.zeros((3, 4))))
    monkeypatch.setattr(volterra, "_orbit", lambda *args: (rows, 0))
    with pytest.raises(IntegrationDivergenceError, match="state is not finite") as err:
        integrate_memory_kernel(p, EXCITED, 1.0, points=3)
    assert err.value.last_good_time == 0.0


def _augmented(kind):
    return integrate_memory_kernel if kind == "mem" else integrate_post_markovian


def _system(kind, ghat):
    system = volterra._memory_kernel_system if kind == "mem" else volterra._post_markovian_system
    return system(ghat)


@pytest.mark.parametrize("r", [1e5, 1e8])
@pytest.mark.parametrize("points", [3, 101])
def test_augmented_ode_is_exact_at_strong_coupling(r, points):
    # the work grows with log R only: the doublings of one exponential
    p = MapParams.from_ratio(r, n_occ=1.0)
    s0 = QubitState(0.7, 0.2 - 0.1j)
    traj = integrate_memory_kernel(p, s0, 20.0, points=points)
    assert traj.steps < 300
    assert _max_gap(traj.states, _closed_path("mem", p, s0, traj.times)) < 1e-9
    assert traj.max_residual == 0.0


@pytest.mark.parametrize("t_end", [1e20, 1e100])
@pytest.mark.parametrize("kind", ["mem", "post"])
def test_augmented_ode_resolves_a_slow_mode_at_huge_horizons(kind, t_end):
    # the slow rate 1e-20 of e^{A d} would round away in a plain squaring
    p = MapParams.from_ratio(1e-20, n_occ=1.0)
    s0 = QubitState(0.7, 0.2 - 0.1j)
    for points in (3, 101):
        traj = _augmented(kind)(p, s0, t_end, points=points)
        assert traj.steps < 1000
        assert _max_gap(traj.states, _closed_path(kind, p, s0, traj.times)) < 1e-9


@pytest.mark.parametrize("kind", ["mem", "post"])
def test_augmented_ode_refuses_systems_past_the_norm_bound(kind):
    # the bound is on ||A||_1 of the system: R for the memory kernel, 2R + 1 dressed
    bound = volterra._MAX_SYSTEM_NORM
    inside = bound if kind == "mem" else (bound - 1.0) / 2.0
    for r, refused in ((inside, False), (inside * (1.0 + 1e-12), True), (1e20, True), (1e150, True)):
        p = MapParams.from_ratio(r, n_occ=1.0)
        g = generator_matrix(p)
        norm = np.max(np.sum(np.abs(_system(kind, g / p.gamma)), axis=0))
        assert (norm > bound) == refused
        if refused:
            with pytest.raises(IntegrationDivergenceError, match="2\\*\\*50") as err:
                _augmented(kind)(p, EXCITED, 20.0, points=3)
            assert err.value.last_good_time == 0.0
        else:
            traj = _augmented(kind)(p, EXCITED, 20.0, points=3)
            assert _max_gap(traj.states, _closed_path(kind, p, EXCITED, traj.times)) < 1e-6


@pytest.mark.parametrize("kind", ["mem", "post"])
def test_augmented_ode_never_returns_a_wrong_finite_row(kind):
    s0 = QubitState(0.7, 0.2 - 0.1j)
    for r in 10.0 ** np.arange(-20, 151, 2):
        for n in (0.0, 1.0):
            p = MapParams.from_ratio(r, n_occ=n)
            for t_end in (1.0, 20.0, 1e5, 1e100):
                try:
                    traj = _augmented(kind)(p, s0, t_end, points=11)
                except IntegrationDivergenceError:
                    continue
                gap = _max_gap(traj.states, _closed_path(kind, p, s0, traj.times))
                assert gap < 1e-6, (r, n, t_end, gap)


def _generators():
    for r in (1e-6, 0.05, 0.2, 1.0, 3.0, 100.0):
        for n in (0.0, 1.0, 10.0):
            p = MapParams.from_ratio(r, n_occ=n)
            yield generator_matrix(p) / p.gamma


def test_expm_matches_scipy():
    # test-only scipy: the generators and both augmented systems, ||A d||_1 up to 1e3
    for ghat in _generators():
        for a in (ghat, _system("mem", ghat), _system("post", ghat)):
            norm = np.max(np.sum(np.abs(a), axis=0))
            for scaled in (1e-3, 0.5, 1.0, 10.0, 1e3):
                d = scaled / norm
                reference = expm(a * d)
                got, _ = volterra._expm(a, d)
                assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_expm_keeps_a_slow_mode_and_huge_steps():
    # plain squaring of S = e^{A d / 2**s} rounds e^{-1e-20 d / 2**s} to 1 and returns 1
    got, _ = volterra._expm(np.diag([-1.0, -1e-20]), 1e20)
    np.testing.assert_allclose(got, np.diag([0.0, math.exp(-1.0)]), rtol=1e-15, atol=0.0)
    # d = 5e99, where scipy's expm returns NaN: exp(ghat d) projects on the fixed point
    for ghat in _generators():
        got, _ = volterra._expm(ghat, 5e99)
        fixed = np.zeros((4, 4))
        fixed[3, 3] = 1.0
        if ghat[0, 0] != 0.0:
            fixed[0, 3] = -ghat[0, 3] / ghat[0, 0]
        np.testing.assert_allclose(got, fixed, rtol=0.0, atol=1e-15)
    assert np.all(np.isnan(volterra._expm(np.array([[np.inf]]))[0]))


@pytest.mark.parametrize("kind,r,n", [("mem", 0.2, 1.0), ("mem", 0.05, 10.0), ("post", 0.2, 1.0),
                                      ("post", 0.05, 10.0), ("post", 1e4, 1.0), ("post", 1e8, 1.0)])
def test_exact_routes_agree_with_the_closed_form_to_rounding(kind, r, n):
    p = MapParams.from_ratio(r, n_occ=n)
    s0 = QubitState(0.7, 0.2 - 0.1j)
    closed = _closed_path(kind, p, s0, np.linspace(0.0, 20.0, 101))
    tcl = integrate_tcl(kind, p, s0, 20.0, points=101)
    assert np.max(np.abs(tcl.states - closed)) <= 1e-12
    ode = _augmented(kind)(p, s0, 20.0, points=101)
    assert np.max(np.abs(ode.states - closed)) <= 1e-12


@pytest.mark.parametrize("t_end", [1e20, 1e100, 1e300])
@pytest.mark.parametrize("kind,r", [("mem", 1e-20), ("post", 1e-20), ("post", 1e150)])
def test_time_local_work_stays_bounded_where_the_rates_lose_bits(kind, r, t_end):
    # past xi's normal floats the rates lose bits, but the states no longer feel them
    p = MapParams.from_ratio(r, n_occ=1.0)
    s0 = QubitState(0.7, 0.2 - 0.1j)
    traj = integrate_tcl(kind, p, s0, t_end, points=3)
    assert traj.steps < 50_000
    with np.errstate(over="ignore"):  # the closed form's phase R tau overflows to inf
        closed = _closed_path(kind, p, s0, traj.times)
    assert _max_gap(traj.states, closed) < 1e-12


def test_divergence_error_carries_last_good_time():
    err = IntegrationDivergenceError("stalled", last_good_time=2.5)
    assert err.last_good_time == 2.5
    assert "stalled" in str(err)


@pytest.mark.parametrize("r", [0.26, 3.0, 1e4])
def test_time_local_route_runs_up_to_the_rate_divergence(r):
    # near the first zero of xi the rates carry rounding of about eps / |xi|
    p = MapParams.from_ratio(r, n_occ=1.0)
    horizon = rate_divergence_time("mem", p)
    s0 = QubitState(0.7, 0.2 - 0.1j)
    for t_end in (horizon * (1.0 - 1e-12), math.nextafter(horizon, 0.0)):
        for points in (2, 101):
            traj = integrate_tcl("mem", p, s0, t_end, points=points)
            assert traj.steps < 10_000
            assert _max_gap(traj.states, _closed_path("mem", p, s0, traj.times)) < 1e-12
