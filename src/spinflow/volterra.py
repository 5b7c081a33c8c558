"""Direct numerical integration of the two integro-differential equations.

This module is the ground truth against which every closed form in
:mod:`spinflow.maps` is checked, so it deliberately never calls those closed
forms.  States ride in the affine 4-vector y = (pe, Re b, Im b, 1) on which
the Markovian superoperator acts as a constant matrix G:

    d pe / dt = -gamma0 (2N+1) pe + gamma0 N,
    d b  / dt = -(gamma0 (2N+1) / 2) b.

Two independent routes are provided.

1.  Exponential-kernel reduction to a local system, integrated by LSODA
    (the variable-order Adams/BDF code; its work stays bounded at any horizon):
    the memory-kernel equation  rho' = int_0^t gamma e^{-gamma s} L rho(t-s) ds
    becomes  rho' = n,  n' = gamma L rho - gamma n  with n(0) = 0 (differentiate
    the convolution; the boundary term gives gamma L rho).  The variant with
    kernel gamma e^{(L - gamma) s} becomes  rho' = L m,  m' = gamma rho + (L - gamma) m.

2.  Trapezoidal Volterra quadrature on a uniform grid: the memory integral is
    discretized with trapezoid weights and the outer step is an implicit
    trapezoid, giving a scheme of global order two with a constant 4x4
    implicit matrix.  Both kernels are powers of a one-step kernel, so the
    discrete history is carried by a one-step recursion that sums exactly
    the same trapezoid terms as the explicit sum.  That recursion is linear
    with constant coefficients, so the grid states are powers of one 12x12
    propagator applied to the initial vector, evaluated in a few batched
    products instead of a loop over time steps.  The propagator never uses
    maps or the augmented-ODE code, and its kernel comes from expm of the
    generator, so route 2 stays independent of route 1 and a bug in route 1
    cannot self-confirm.

All public times are dimensionless, tau = gamma t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .maps import (
    EquationKind,
    MapParams,
    SingularRateError,
    _channels,
    _rate_pieces,
    parse_kind,
    rate_divergence_time,
)
from .states import QubitState

__all__ = [
    "IntegrationDivergenceError",
    "AugmentedTrajectory",
    "generator_matrix",
    "integrate_memory_kernel",
    "integrate_post_markovian",
    "integrate_quadrature",
    "integrate_tcl",
]

TOL_RANGE = (1e-12, 1e-4)
#: LSODA's opening step in tau, on the equations' own time scale of 1.
#: LSODA's own guess is about 1e-5 t_end, which fails its error test at
#: tau = 0 from t_end of about 1e10 on (the time-local rates start from 0).
FIRST_STEP = 1e-3


class IntegrationDivergenceError(RuntimeError):
    """Adaptive integration failed; carries the last successfully reached time."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(message)
        self.last_good_time = last_good_time


def generator_matrix(p: MapParams) -> np.ndarray:
    """Markovian superoperator on (pe, Re b, Im b, 1), physical units."""
    rate = p.gamma0 * (2.0 * p.n_occ + 1.0)
    g = np.zeros((4, 4))
    g[0, 0] = -rate
    g[0, 3] = p.gamma0 * p.n_occ
    g[1, 1] = -0.5 * rate
    g[2, 2] = -0.5 * rate
    return g


@dataclass(frozen=True)
class AugmentedTrajectory:
    """Solution samples of one integro-differential trajectory.

    `states` holds one row (pe, Re b, Im b) per time of `times`;
    `auxiliary` carries the memory integral (zero for the time-local route);
    `steps` is the integrator work metric (accepted steps or rhs calls);
    `max_residual` is the worst trace defect max |Tr rho - 1| on the grid.
    """

    times: np.ndarray
    states: np.ndarray
    auxiliary: np.ndarray
    steps: int
    max_residual: float
    meta: dict = field(default_factory=dict)


def _initial_vector(s0: QubitState) -> np.ndarray:
    if not s0.is_valid():
        raise ValueError(f"initial state is not a valid qubit state: {s0!r}")
    b = complex(s0.coherence)
    return np.array([s0.population_e, b.real, b.imag, 1.0])


def _check_t_end(t_end: float) -> None:
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")


def _check_grid_args(t_end: float, tol: float) -> None:
    _check_t_end(t_end)
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValueError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}], got {tol}")


def _run_ivp(matrix, y0: np.ndarray, t_end: float, tol: float, points: int):
    """Integrate the linear system y' = matrix(t) y from y0 with LSODA.

    Samples on linspace(0, t_end, points) and returns the grid, one state
    row per grid time and the count of right-hand-side calls.  LSODA
    switches between Adams and BDF as the problem stiffens, and it gets the
    exact Jacobian matrix(t), so its step count stays bounded as the states
    settle, at any t_end.  (With a finite-difference Jacobian it returned
    NaN states once they had decayed to subnormal values, for example for
    the memory kernel at N = 0 and t_end = 1e50.)  A failed step control or
    a non-finite state is an IntegrationDivergenceError that carries the
    last grid time with a finite state.
    """
    grid = np.linspace(0.0, t_end, points)
    sol = solve_ivp(
        lambda t, y: matrix(t) @ y,
        (0.0, t_end),
        y0,
        method="LSODA",
        t_eval=grid,
        rtol=tol,
        atol=0.01 * tol,
        jac=lambda t, _y: matrix(t),
        first_step=min(t_end, FIRST_STEP),
    )
    # sol.t is a list, and sol.y empty, when no grid time was reached
    reached = np.asarray(sol.t, dtype=float)
    rows = np.asarray(sol.y, dtype=float).T.reshape(reached.size, len(y0))
    finite = np.all(np.isfinite(rows), axis=1)
    if not (sol.success and finite.all()):
        good = int(np.cumprod(finite).sum())  # rows before the first non-finite one
        last = float(reached[good - 1]) if good else 0.0
        reason = (
            "the state is not finite"
            if sol.success
            else f"adaptive step control failed: {sol.message}"
        )
        raise IntegrationDivergenceError(
            f"{reason} (last good tau = {last:.6g})", last_good_time=last
        )
    return grid, rows, int(sol.nfev)


def _integrate_augmented(system, g, p: MapParams, s0: QubitState, t_end, tol, points):
    """Solve y' = system(ghat) y for y = (rho, aux) from (s0, 0).

    ghat is the generator in units of gamma; aux is the memory variable.
    """
    _check_grid_args(t_end, tol)
    ghat = np.asarray(g, dtype=float) / p.gamma
    a = system(ghat)
    y0 = np.concatenate((_initial_vector(s0), np.zeros(4)))
    grid, rows, nfev = _run_ivp(lambda _t: a, y0, t_end, tol, points)
    residual = float(np.max(np.abs(rows[:, 3] - 1.0)))
    return AugmentedTrajectory(
        times=grid,
        states=rows[:, :3],
        auxiliary=rows[:, 4:],
        steps=nfev,
        max_residual=residual,
        meta={"route": "augmented-ode", "tol": tol},
    )


def _memory_kernel_system(ghat):
    """rho' = n, n' = ghat rho - n (route 1 of the module docstring)."""
    return np.block([[np.zeros((4, 4)), np.eye(4)], [ghat, -np.eye(4)]])


def _post_markovian_system(ghat):
    """rho' = ghat m, m' = rho + (ghat - 1) m."""
    return np.block([[np.zeros((4, 4)), ghat], [np.eye(4), ghat - np.eye(4)]])


def integrate_memory_kernel(
    g: np.ndarray,
    p: MapParams,
    s0: QubitState,
    t_end: float,
    tol: float = 1e-10,
    *,
    points: int = 201,
) -> AugmentedTrajectory:
    """Augmented-system solution of the convolution equation up to tau = t_end."""
    return _integrate_augmented(_memory_kernel_system, g, p, s0, t_end, tol, points)


def integrate_post_markovian(
    g: np.ndarray,
    p: MapParams,
    s0: QubitState,
    t_end: float,
    tol: float = 1e-10,
    *,
    points: int = 201,
) -> AugmentedTrajectory:
    """Augmented-system solution of the dressed-kernel equation."""
    return _integrate_augmented(_post_markovian_system, g, p, s0, t_end, tol, points)


def integrate_quadrature(
    kind,
    g: np.ndarray,
    p: MapParams,
    s0: QubitState,
    t_end: float,
    steps: int = 2000,
) -> AugmentedTrajectory:
    """Implicit-trapezoid Volterra quadrature on a uniform grid.

    Second-order accurate; halving the step divides the error by about four.
    The memory integral at step k is the trapezoid sum
    hist_k = sum_j A^(k+1-j) w_j over the stored states w (the first one
    halved), with the one-step kernel A = e^{-h} for the memory kernel and
    A = e^{-h} expm(ghat h) for the dressed kernel.  Both kernels are powers
    of A, so the sum obeys hist_k = A (hist_{k-1} + w_k) exactly.  With the
    implicit step M = 1 - h^2 ghat / 4, one step is then linear with
    constant coefficients,

        hist = A acc,  rho' = M^-1 (rho + h ghat (aux + h hist) / 2),
        aux' = h hist + h rho' / 2,  acc' = hist + rho',

    so x_k = (rho_k, aux_k, acc_k) obeys x_{k+1} = S x_k with one 12x12
    propagator S, and x_k = S^j S^(iB) x_0 for k = iB + j.  The states are
    evaluated from the powers S^0 .. S^(B-1) and the heads S^(iB) x_0,
    B = ceil(sqrt(steps + 1)), in one batched product.  The trace row of S
    is exactly the unit row, so the trace stays exactly 1.  A comes from
    expm of the given generator, never from maps or the augmented-ODE code,
    so this route stays independent of route 1.  A step too long for S to be
    finite (from h of about 1e154, earlier for the dressed kernel's expm) is
    a ValueError.
    """
    kind = parse_kind(kind)
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    _check_t_end(t_end)
    y0 = _initial_vector(s0)
    ghat = np.asarray(g, dtype=float) / p.gamma
    h = t_end / steps
    grid = np.linspace(0.0, t_end, steps + 1)
    dressed = kind is EquationKind.POST_MARKOVIAN
    # ghat commutes with the step kernel, so one step serves both kinds:
    # the memory kernel's integral is ghat m, the dressed kernel's is m.
    with np.errstate(all="ignore"):  # a step too long shows as a non-finite S
        m_inv = np.linalg.inv(np.eye(4) - 0.25 * h * h * ghat)
        kernel = np.exp(-h) * (expm(ghat * h) if dressed else np.eye(4))
        rho_rows = np.hstack((m_inv, 0.5 * h * m_inv @ ghat, 0.5 * h * h * m_inv @ ghat @ kernel))
        to_acc = np.hstack((np.zeros((4, 8)), kernel))
        step = np.vstack((rho_rows, 0.5 * h * rho_rows + h * to_acc, rho_rows + to_acc))
    if not np.all(np.isfinite(step)):
        raise ValueError(
            f"step h = t_end / steps = {h:.6g} is too long: the one-step propagator is not finite"
        )

    block = math.isqrt(steps) + 1  # ceil(sqrt(steps + 1))
    powers = np.empty((block, 12, 12))
    powers[0] = np.eye(12)
    for j in range(1, block):
        powers[j] = powers[j - 1] @ step
    leap = powers[-1] @ step
    heads = np.empty((-(-(steps + 1) // block), 12))
    heads[0] = np.concatenate((y0, np.zeros(4), 0.5 * y0))
    for i in range(1, len(heads)):
        heads[i] = leap @ heads[i - 1]
    # x_{iB+j} = S^j heads_i, on the rows of rho and aux only
    states = np.einsum("jab,ib->ija", powers[:, :8], heads, optimize=True)
    states = states.reshape(-1, 8)[: steps + 1]
    rho, aux = states[:, :4], states[:, 4:]
    if not dressed:
        aux = aux @ ghat.T

    residual = float(np.max(np.abs(rho[:, 3] - 1.0)))
    return AugmentedTrajectory(
        times=grid,
        states=rho[:, :3],
        auxiliary=aux,
        steps=steps,
        max_residual=residual,
        meta={"route": "trapezoid-quadrature", "h": h},
    )


def integrate_tcl(
    kind,
    p: MapParams,
    s0: QubitState,
    t_end: float,
    tol: float = 1e-10,
    *,
    points: int = 201,
) -> AugmentedTrajectory:
    """Integrate the exactly equivalent time-local equation with LSODA.

    Uses the closed-form rates, so agreement with the snapshot evolution
    checks the rate formulas rather than the profile itself.  Fails with
    SingularRateError if the horizon contains a rate divergence; that one
    check covers every time, so the system matrix takes its rates from
    channels built once, without the per-call checks of tcl_rate_arrays.
    """
    kind = parse_kind(kind)
    _check_grid_args(t_end, tol)
    horizon = rate_divergence_time(kind, p)
    if t_end >= horizon:
        raise SingularRateError(
            f"time-local rates diverge at tau = {horizon:.9g}; "
            f"requested horizon t_end = {t_end:.9g} reaches past it"
        )
    gamma = p.gamma
    full, half = _channels(kind, p.R)

    def matrix(t):
        g1, g2, g3 = (x / gamma for x in _rate_pieces(full, half, p, t))
        total = g1 + g2
        coh = 0.5 * total + 2.0 * g3
        return np.array(
            [[-total, 0.0, 0.0, g2], [0.0, -coh, 0.0, 0.0], [0.0, 0.0, -coh, 0.0], [0.0] * 4]
        )

    grid, rows, nfev = _run_ivp(matrix, _initial_vector(s0), t_end, tol, points)
    residual = float(np.max(np.abs(rows[:, 3] - 1.0)))
    return AugmentedTrajectory(
        times=grid,
        states=rows[:, :3],
        auxiliary=np.zeros((grid.size, 4)),
        steps=nfev,
        max_residual=residual,
        meta={"route": "time-local", "tol": tol},
    )
