"""Direct numerical integration of the two integro-differential equations.

This module is the ground truth against which every closed form in
:mod:`spinflow.maps` is checked, so it deliberately never calls those closed
forms.  States ride in the affine 4-vector y = (pe, Re b, Im b, 1) on which
the Markovian superoperator acts as a constant matrix G:

    d pe / dt = -gamma0 (2N+1) pe + gamma0 N,
    d b  / dt = -(gamma0 (2N+1) / 2) b.

Two independent routes are provided.

1.  Exponential-kernel reduction to a local system with a constant 8x8
    matrix A, solved exactly by its propagator S = exp(A d) on the uniform
    grid of step d, the states being S^k y0:
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
    with constant coefficients: the states on the output grid are powers of
    the propagator of one grid cell applied to the initial vector, evaluated
    in a few batched products instead of a loop over time steps.  The
    propagator never uses maps or the augmented-ODE code, and its kernel
    comes from the matrix exponential of the generator, so route 2 stays
    independent of route 1 and a bug in route 1 cannot self-confirm.

Both routes take their exponentials from _expm, one numpy scaling and
squaring (Moler & Van Loan, SIAM Rev. 45, 2003): route 1 of the 8x8 system,
route 2 of the 4x4 generator.  The time-local route integrates the closed
form rates of maps by adaptive Gauss-Legendre quadrature.  No route needs
scipy.

Every route builds its generator from the parameters and returns its
states on the grid linspace(0, t_end, points).  All public times are
dimensionless, tau = gamma t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import (
    EquationKind,
    MapParams,
    SingularRateError,
    _channels,
    _check_horizon,
    _rate_pieces,
    _time_grid,
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
#: degree of _expm's Taylor polynomial; at norm 1/2 it truncates below 1e-22
_TAYLOR_DEGREE = 18
#: largest 1-norm of an augmented system that route 1 propagates
#: (see _integrate_augmented)
_MAX_SYSTEM_NORM = 2.0**50
#: Gauss-Legendre nodes and weights on [-1, 1]: the time-local route's rule
#: pair, whose difference is its error estimate on a cell
_COARSE_RULE = np.polynomial.legendre.leggauss(8)
_FINE_RULE = np.polynomial.legendre.leggauss(16)
_RULE_NODES = np.concatenate((_COARSE_RULE[0], _FINE_RULE[0]))
#: first cells of the rate quadrature: halvings of t_end down to about
#: 2**-_FIRST_CELL_BITS of the rates' time scale
_FIRST_CELL_BITS = 10
#: rate evaluations, in units of those of the first cells, after which the
#: rate quadrature gives up
_MAX_WORK = 64
#: cap on the integrated decay rate by whose exponential the rate
#: quadrature relaxes its tolerance: e**-42 < 6e-19
_SETTLED = 42.0
#: cells whose rates are evaluated in one array
_CELL_BLOCK = 4096


class IntegrationDivergenceError(RuntimeError):
    """An integrator failed or refused its input; carries the last good grid time."""

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
    `steps` is the integrator work metric (matrix products for the augmented
    ODE, rate evaluations for the time-local route, time steps for the
    quadrature, rounded up to whole steps per grid cell);
    `max_residual` is the worst trace defect max |Tr rho - 1| on the grid.
    """

    times: np.ndarray
    states: np.ndarray
    auxiliary: np.ndarray
    steps: int
    max_residual: float


def _trajectory(grid, rho, aux, steps: int) -> AugmentedTrajectory:
    """The trajectory of the affine rows rho = (pe, Re b, Im b, trace) on the grid."""
    return AugmentedTrajectory(
        times=grid,
        states=rho[:, :3],
        auxiliary=aux,
        steps=steps,
        max_residual=float(np.max(np.abs(rho[:, 3] - 1.0))),
    )


def _initial_vector(s0: QubitState) -> np.ndarray:
    if not s0.is_valid():
        raise ValueError(f"initial state is not a valid qubit state: {s0!r}")
    b = complex(s0.coherence)
    return np.array([s0.population_e, b.real, b.imag, 1.0])


def _grid(t_end: float, points: int) -> np.ndarray:
    """linspace(0, t_end, points), the output grid of every route, once checked."""
    _check_horizon("t_end", t_end)
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    return _time_grid(t_end, points)


def _expm(a: np.ndarray, t: float = 1.0) -> tuple[np.ndarray, int]:
    """exp(a t) by scaling and squaring, and the count of matrix products spent.

    A degree-18 Taylor polynomial at ||a t / 2**s||_1 <= 1/2, then s
    doublings.  The doublings carry E = exp(.) - I by E <- 2E + E**2, the
    matrix expm1, and not S <- S**2: an eigenvalue of S next to 1 (a slow
    mode) keeps its distance from 1, which S itself would round away.  The
    scale 2**-s goes into t by np.ldexp, so s may pass 1023 and a t is never
    formed.  A non-finite a gives a NaN matrix.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(len(a))
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    if not math.isfinite(norm):
        return np.full_like(a, np.nan), 0
    if norm == 0.0 or t == 0.0:
        return eye, 0
    s = max(0, math.ceil(math.log2(norm) + math.log2(t) + 1.0))
    b = a * np.ldexp(t, -s)
    # Horner's form of sum_{k=1..18} b**k / k!
    e = b / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        e = b @ (eye + e) / k
    for _ in range(s):
        e = 2.0 * e + e @ e
    return eye + e, _TAYLOR_DEGREE - 1 + s


def _orbit(step: np.ndarray, x0: np.ndarray, count: int, rows: int):
    """The leading `rows` entries of step**k x0 for k < count, and the products spent.

    With B = ceil(sqrt(count)), x_(iB+j) = step**j (step**(iB) x0).  The
    powers step**1 .. step**(B-1) and the leap step**B take B matrix
    products, the heads step**(iB) x0 one product each after the first, and
    one batched product of B matrix-vector products per head combines them;
    the returned count sums all three.
    """
    block = math.isqrt(count - 1) + 1  # ceil(sqrt(count))
    size = len(x0)
    powers = np.empty((block, size, size))
    powers[0] = np.eye(size)
    for j in range(1, block):
        powers[j] = powers[j - 1] @ step
    leap = powers[-1] @ step
    heads = np.empty((-(-count // block), size))
    heads[0] = x0
    for i in range(1, len(heads)):
        heads[i] = leap @ heads[i - 1]
    # x_(iB+j) = step**j heads_i, on the leading rows only
    states = np.einsum("jab,ib->ija", powers[:, :rows], heads, optimize=True)
    products = block + len(heads) - 1 + block * len(heads)
    return states.reshape(-1, rows)[:count], products


def _integrate_augmented(system, p: MapParams, s0: QubitState, t_end, points):
    """Solve y' = A y, A = system(ghat), for y = (rho, aux) from (s0, 0) on the grid.

    ghat is the generator in units of gamma; aux is the memory variable.  The
    states are S**k y0 with the exact propagator S = exp(A d) of the grid
    step d, and `steps` counts the matrix products.  First the fixed point x
    of ghat (ghat x = 0, x_3 = 1) moves to the origin: rho - x and m - m_3 x
    evolve under the system of ghat with its affine column zeroed.  Without
    the shift the affine column (about R) and the decay rate (about -R) of
    the population cancel in every product, which cost the dressed system
    about eps R.  A system with ||A||_1 > _MAX_SYSTEM_NORM = 2**50 is
    refused with an IntegrationDivergenceError: past that, the unit memory
    rate of A sits within a few rounding units of its largest entries
    (ghat - 1 rounds to ghat from 2**53 on), and the memory-kernel
    propagator's error, which grows like eps sqrt(||A||_1), passes 1e-8.
    """
    grid = _grid(t_end, points)
    ghat = generator_matrix(p) / p.gamma
    norm = float(np.max(np.sum(np.abs(system(ghat)), axis=0)))
    if not norm <= _MAX_SYSTEM_NORM:
        raise IntegrationDivergenceError(
            f"the augmented system's norm {norm:.6g} exceeds 2**50, past which its "
            "propagator cannot resolve the unit memory rate (last good tau = 0)",
            last_good_time=0.0,
        )
    fixed = np.zeros(4)
    if np.any(ghat[:3, 3]):
        fixed[:3] = -np.linalg.solve(ghat[:3, :3], ghat[:3, 3])
    centred = ghat.copy()
    centred[:3, 3] = 0.0
    with np.errstate(all="ignore"):  # a non-finite propagator shows in the rows
        step, products = _expm(system(centred), t_end / (points - 1))
        x0 = np.concatenate((_initial_vector(s0) - fixed, np.zeros(4)))
        rows, more = _orbit(step, x0, points, 8)
    finite = np.all(np.isfinite(rows), axis=1)
    if not finite.all():
        good = int(np.argmin(finite))  # rows before the first non-finite one
        last = float(grid[good - 1]) if good else 0.0
        raise IntegrationDivergenceError(
            f"the state is not finite (last good tau = {last:.6g})", last_good_time=last
        )
    rho = rows[:, :4] + np.outer(rows[:, 3], fixed)
    aux = rows[:, 4:] + np.outer(rows[:, 7], fixed)
    return _trajectory(grid, rho, aux, products + more)


def _memory_kernel_system(ghat):
    """rho' = n, n' = ghat rho - n (route 1 of the module docstring)."""
    return np.block([[np.zeros((4, 4)), np.eye(4)], [ghat, -np.eye(4)]])


def _post_markovian_system(ghat):
    """rho' = ghat m, m' = rho + (ghat - 1) m."""
    return np.block([[np.zeros((4, 4)), ghat], [np.eye(4), ghat - np.eye(4)]])


def integrate_memory_kernel(
    p: MapParams, s0: QubitState, t_end: float, *, points: int = 201
) -> AugmentedTrajectory:
    """Augmented-system solution of the convolution equation up to tau = t_end."""
    return _integrate_augmented(_memory_kernel_system, p, s0, t_end, points)


def integrate_post_markovian(
    p: MapParams, s0: QubitState, t_end: float, *, points: int = 201
) -> AugmentedTrajectory:
    """Augmented-system solution of the dressed-kernel equation."""
    return _integrate_augmented(_post_markovian_system, p, s0, t_end, points)


def integrate_quadrature(
    kind,
    p: MapParams,
    s0: QubitState,
    t_end: float,
    steps: int = 2000,
    *,
    points: int = 201,
) -> AugmentedTrajectory:
    """Implicit-trapezoid Volterra quadrature on a uniform grid of time steps.

    Second-order accurate; halving the step divides the error by about four.
    The memory integral at step k is the trapezoid sum
    hist_k = sum_j A^(k+1-j) w_j over the stored states w (the first one
    halved), with the one-step kernel A = e^{-h} for the memory kernel and
    A = e^{-h} exp(ghat h) for the dressed kernel.  Both kernels are powers
    of A, so the sum obeys hist_k = A (hist_{k-1} + w_k) exactly.  With the
    implicit step M = 1 - h^2 ghat / 4, one step is then linear with
    constant coefficients,

        hist = A acc,  rho' = M^-1 (rho + h ghat (aux + h hist) / 2),
        aux' = h hist + h rho' / 2,  acc' = hist + rho',

    so x_k = (rho_k, aux_k, acc_k) obeys x_{k+1} = S x_k with one 12x12
    propagator S.  `steps` is rounded up to c (points - 1), c steps per cell
    of the output grid, and must then be at least 100; the trajectory reports
    the rounded count.  The grid rows are the orbit of the cell propagator
    S**c (_orbit, shared with route 1), so the work and memory follow
    `points` and log c, never `steps`.  The trace row of S is exactly the
    unit row, so the trace stays exactly 1.  A comes from _expm of the
    generator, never from maps or the augmented-ODE code, so this route
    stays independent of route 1.  A step too long for S**c to be finite
    (from h of about 1e154) is a ValueError.
    """
    kind = parse_kind(kind)
    grid = _grid(t_end, points)
    per_cell = -(-steps // (points - 1))
    if per_cell * (points - 1) < 100:
        raise ValueError(
            f"steps must be >= 100 once rounded up to a multiple of points - 1 = "
            f"{points - 1}, got {steps}"
        )
    steps = per_cell * (points - 1)
    y0 = _initial_vector(s0)
    ghat = generator_matrix(p) / p.gamma
    h = t_end / steps
    dressed = kind is EquationKind.POST_MARKOVIAN
    # ghat commutes with the step kernel, so one step serves both kinds:
    # the memory kernel's integral is ghat m, the dressed kernel's is m.
    with np.errstate(all="ignore"):  # a step too long shows as a non-finite S**c
        m_inv = np.linalg.inv(np.eye(4) - 0.25 * h * h * ghat)
        kernel = np.exp(-h) * (_expm(ghat, h)[0] if dressed else np.eye(4))
        rho_rows = np.hstack((m_inv, 0.5 * h * m_inv @ ghat, 0.5 * h * h * m_inv @ ghat @ kernel))
        to_acc = np.hstack((np.zeros((4, 8)), kernel))
        step = np.vstack((rho_rows, 0.5 * h * rho_rows + h * to_acc, rho_rows + to_acc))
        cell = np.linalg.matrix_power(step, per_cell)
    if not np.all(np.isfinite(cell)):
        raise ValueError(
            f"step h = t_end / steps = {h:.6g} is too long: the one-step propagator is not finite"
        )

    x0 = np.concatenate((y0, np.zeros(4), 0.5 * y0))
    states, _ = _orbit(cell, x0, points, 8)  # the rows of rho and aux only
    rho, aux = states[:, :4], states[:, 4:]
    if not dressed:
        aux = aux @ ghat.T
    return _trajectory(grid, rho, aux, steps)


def _rate_integrals(rates, grid: np.ndarray, tol: float, scale: float):
    """int_0^tau of each rate at every grid time, and the rate evaluations spent.

    rates maps an array of times to the stacked rates gamma1 + gamma2,
    gamma2 and the coherence rate, which are all >= 0 and rise from 0 at
    tau = 0 on the time scale `scale`.  The first cells are the grid cells,
    cut at the halvings t_end 2**-j down to about scale 2**-_FIRST_CELL_BITS:
    a horizon of 1e100 starts from about 340 cells, not from one, and no
    rise is narrower than the nodes of its cell, where both rules would miss
    it alike.  A cell is accepted when its 8- and 16-node Gauss-Legendre
    integrals differ by at most tol e**b max(1, |16-node integral|) in every
    row, b being the accepted integral before the cell of the row's decay
    rate (the first row's for the first two rows, whose ratio is fixed, the
    last row's for the last), capped at _SETTLED.  The states feel the
    cell's integrals through factors below e**-b, so each cell moves them by
    about tol at most; and where that factor is small the rates may lose
    bits, near the first zero of xi (rounding of about eps / |xi|) or where
    xi or its derivative leaves the normal floats.  Other cells are halved.
    Non-finite rates, or open cells once the evaluations reach _MAX_WORK
    times those of the first cells, are an IntegrationDivergenceError that
    carries the last grid time before the offending cell.
    """
    t_end = float(grid[-1])
    halvings = max(0, math.ceil(math.log2(t_end) - math.log2(scale))) + _FIRST_CELL_BITS
    # sorted and deduplicated as np.unique would, which imports numpy.ma for floats
    edges = np.sort(np.concatenate((grid, np.ldexp(t_end, -np.arange(1, halvings + 1)))))
    edges = edges[np.diff(edges, prepend=-np.inf) > 0.0]
    lo, hi = edges[:-1], edges[1:]
    budget = _MAX_WORK * _RULE_NODES.size * lo.size
    done_lo, done_value = np.empty(0), np.empty((3, 0))
    evaluations = 0

    def fail(reason, at):
        last = float(grid[np.searchsorted(grid, at, side="right") - 1])
        raise IntegrationDivergenceError(
            f"{reason} (last good tau = {last:.6g})", last_good_time=last
        )

    while lo.size:
        if evaluations >= budget:
            fail("the rate quadrature did not converge", lo.min())
        # the accepted integrals before each open cell of the decaying rows,
        # the first (which the second follows) and the last: the states feel
        # the cell's integrals through factors below e**-before
        order = np.argsort(done_lo)
        before = np.cumsum(np.hstack((np.zeros((3, 1)), done_value[:, order])), axis=1)
        before = before[[0, 0, 2]][:, np.searchsorted(done_lo[order], lo)]
        fine, gap = np.empty((3, lo.size)), np.empty((3, lo.size))
        for start in range(0, lo.size, _CELL_BLOCK):
            cells = slice(start, start + _CELL_BLOCK)
            mid, half = 0.5 * (lo[cells] + hi[cells]), 0.5 * (hi[cells] - lo[cells])
            values = rates(mid[:, None] + half[:, None] * _RULE_NODES)
            evaluations += values[0].size
            bad = ~np.all(np.isfinite(values), axis=(0, 2))
            if bad.any():
                fail("the rates are not finite", lo[cells][bad].min())
            fine[:, cells] = half * (values[..., 8:] @ _FINE_RULE[1])
            gap[:, cells] = fine[:, cells] - half * (values[..., :8] @ _COARSE_RULE[1])
        slack = tol * np.exp(np.minimum(before, _SETTLED))
        ok = np.all(np.abs(gap) <= slack * np.maximum(1.0, np.abs(fine)), axis=0)
        done_lo = np.concatenate((done_lo, lo[ok]))
        done_value = np.concatenate((done_value, fine[:, ok]), axis=1)
        lo, hi = lo[~ok], hi[~ok]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    order = np.argsort(done_lo)
    sums = np.cumsum(done_value[:, order], axis=1)
    # the cell that ends at a grid time is the last one starting before it
    ends = np.searchsorted(done_lo[order], grid[1:]) - 1
    return np.hstack((np.zeros((3, 1)), sums[:, ends])), evaluations


def integrate_tcl(
    kind,
    p: MapParams,
    s0: QubitState,
    t_end: float,
    tol: float = 1e-10,
    *,
    points: int = 201,
) -> AugmentedTrajectory:
    """Solve the exactly equivalent time-local equation by its exact propagator.

    Uses the closed-form rates, so agreement with the snapshot evolution
    checks the rate formulas rather than the profile itself.  The rates obey
    gamma1 / gamma2 = (N+1) / N identically (see TclRates), so the
    generators at different times commute and the propagator to tau is the
    exponential of the integrated generator.  _rate_integrals integrates its
    three entries gamma1 + gamma2, gamma2 and the coherence rate to tol; the
    population then relaxes with exp(-int (gamma1 + gamma2)) towards its
    affine part, taken through expm1, and the coherence decays with
    exp(-int coh).  `steps` counts the rate evaluations; the trace is exactly
    1 by construction.  Fails with SingularRateError if the horizon contains
    a rate divergence; that one check covers every time, so the rates come
    from channels built once, without the per-call checks of tcl_rate_arrays.
    """
    kind = parse_kind(kind)
    grid = _grid(t_end, points)
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValueError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}], got {tol}")
    horizon = rate_divergence_time(kind, p)
    if t_end >= horizon:
        raise SingularRateError(
            f"time-local rates diverge at tau = {horizon:.9g}; "
            f"requested horizon t_end = {t_end:.9g} reaches past it"
        )
    y0 = _initial_vector(s0)
    full, half = _channels(kind, p.R)

    def rates(t):
        g1, g2, g3 = (x / p.gamma for x in _rate_pieces(full, half, p, t))
        total = g1 + g2
        return np.stack((total, g2, 0.5 * total + 2.0 * g3))

    with np.errstate(all="ignore"):  # _rate_integrals raises on non-finite rates
        # the rates rise on the faster time scale of xi: 1, or 1 / R for the
        # dressed kernel at R > 1; 1 / R also resolves the memory kernel's
        # oscillation on 1 / sqrt(R)
        scale = 1.0 / max(1.0, p.R)
        (total, absorbed, coherence), evaluations = _rate_integrals(rates, grid, tol, scale)
        # (1 - e^-x) / x, 1 at x = 0
        relaxed = np.where(total == 0.0, 1.0, -np.expm1(-total) / total)
    states = np.column_stack(
        (
            np.exp(-total) * y0[0] + absorbed * relaxed,
            np.exp(-coherence)[:, None] * y0[1:3],
        )
    )
    return AugmentedTrajectory(
        times=grid,
        states=states,
        auxiliary=np.zeros((grid.size, 4)),
        steps=evaluations,
        max_residual=0.0,
    )
