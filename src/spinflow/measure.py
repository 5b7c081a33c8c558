"""Trace-distance information flow and the non-Markovianity measure.

For this family of maps the trace distance between two evolved states is

    D(tau) = sqrt(a0**2 xi(R, tau)**2 + |b0|**2 xi(R/2, tau)**2),

with a0 the initial population difference and b0 the initial coherence
difference of the pair.  Its rate of change

    sigma = gamma * [a0**2 xi_R xi_R' + |b0|**2 xi_h xi_h'] / D

(primes are d/dtau) is returned in physical inverse-time units.  The flow
report of one pair integrates sigma over the intervals where it is positive,
which telescopes to sums of trace-distance differences at interval
endpoints: no quadrature error enters the reported gains.

Interval endpoints are located by bracketing sign changes of sigma's
numerator on a dense grid and bisecting all brackets at once, in numpy; the
numerator is used instead of sigma itself so that isolated zeros of D cannot
poison the search.

The measure (Breuer, Laine, Piilo, PRL 103, 210401, 2009) maximizes the
total gain over pairs.  It needs no search: the maximum is the gain of the
pole pair, a finite sum of the known peaks of |xi(R, .)| (see measure()).
flow_report of the pole pair is the independent numerical route to the
same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import (
    EquationKind,
    MapParams,
    _channels,
    _check_horizon,
    _check_times,
    _time_grid,
    parse_kind,
    xi_envelope,
)
from .states import StatePair, state_from_bloch

__all__ = [
    "DegeneratePairError",
    "FlowReport",
    "MeasureResult",
    "sigma_analytic",
    "flow_report",
    "measure",
    "certified_horizon",
]

#: |xi| must decay below this at the horizon for truncation to be certified
TAIL_TOL = 1e-6
#: first horizon that certified_horizon tries before doubling
HORIZON_START = 20.0


def brentq(f, lo, hi, *, xtol: float):
    """Roots of a vectorized f in the brackets [lo, hi], all bisected at once.

    f > 0 must differ between each bracket's ends, and xtol > 0.  As
    scipy.optimize.brentq does, an end where f is 0 is returned, and a
    bracket is done when hi - lo <= xtol + 4 eps |mid|, mid then returned.
    The name stays because perfbench's tracer and measure.brentq.* read it.
    """
    f_lo, f_hi = f(lo), f(hi)
    while True:
        mid = lo + 0.5 * (hi - lo)
        active = hi - lo > xtol + 4.0 * np.finfo(float).eps * np.abs(mid)
        if not active.any():
            return np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, mid))
        step = (f(mid) > 0.0) == (f_lo > 0.0)
        lo, hi = np.where(active & step, mid, lo), np.where(active & ~step, mid, hi)


class DegeneratePairError(ValueError):
    """Identical initial states: sigma is 0/0 and the pair carries no flow."""


def _pair_weights(pair: StatePair) -> tuple[float, float]:
    a0 = pair.a0
    b0 = pair.b0
    return a0 * a0, (b0 * b0.conjugate()).real


def _require_distinct(pair: StatePair) -> tuple[float, float]:
    a2, b2 = _pair_weights(pair)
    if a2 == 0.0 and b2 == 0.0:
        raise DegeneratePairError(
            "identical initial states: trace distance is identically zero "
            "and sigma is undefined"
        )
    return a2, b2


def sigma_analytic(kind, p: MapParams, pair: StatePair, tau) -> float:
    """Rate of change of the trace distance, physical inverse-time units.

    Raises DegeneratePairError for an identical pair.  Where the trace
    distance D underflows to 0 the value is 0, the limit of dD/dtau; only at
    an isolated zero of D (mem with 4R > 1) is it +-inf or nan, see _paths.
    Interval bookkeeping in flow_report avoids the division entirely.
    """
    kind = parse_kind(kind)
    a2, b2 = _require_distinct(pair)
    out = _paths(kind, p, a2, b2, _check_times(tau))[2]
    return float(out) if np.ndim(tau) == 0 else out


@dataclass(frozen=True)
class FlowReport:
    """Distance trajectory of one pair with its inflow bookkeeping.

    positive_intervals holds (tau_start, tau_end, integrated_gain) triples;
    total_gain is their sum.  sigma_discrete_path is a central-difference
    cross-check of sigma_path computed from distance_path alone.
    """

    pair: StatePair
    grid: np.ndarray
    distance_path: np.ndarray
    sigma_path: np.ndarray
    sigma_discrete_path: np.ndarray
    positive_intervals: tuple[tuple[float, float, float], ...]
    total_gain: float


# Both take the pair's weights (a2, b2) = (a0**2, |b0|**2) and the channel
# values xf = xi(R, t) and xh = xi(R/2, t), so that a caller evaluates each
# channel once for both.


def _distance(a2: float, b2: float, xf, xh):
    """Trace distance D of a pair."""
    return np.sqrt(a2 * xf * xf + b2 * xh * xh)


def _numerator(a2: float, b2: float, xf, df, xh, dh):
    """D dD/dtau, the numerator of sigma / gamma: it has sigma's sign.

    df and dh are the channels' tau-derivatives at the same times.
    """
    return a2 * xf * df + b2 * xh * dh


def _paths(kind: EquationKind, p: MapParams, a2: float, b2: float, t):
    """D, its numerator D dD/dtau and sigma = gamma * num / D at checked times t.

    Where D == 0 because its squares underflowed, sigma is 0, the limit of
    dD/dtau, instead of 0/0.  For post and for mem with 4R <= 1, D has no
    zero, so every D == 0 is an underflow.  For mem with 4R > 1, D also has
    isolated zeros: points where each weighted channel value is exactly 0
    while the same distance of the channel envelopes (bounds on |xi|) has
    not underflowed.  sigma is +-inf or nan there.
    """
    full, half = _channels(kind, p.R)
    xf, xh = full.value(t), half.value(t)
    distance = _distance(a2, b2, xf, xh)
    num = _numerator(a2, b2, xf, full.derivative(t), xh, half.derivative(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = p.gamma * num / distance
    underflow = distance == 0.0
    if kind is EquationKind.MEMORY_KERNEL and 4.0 * p.R > 1.0 and np.any(underflow):
        bound = _distance(a2, b2, full.envelope(t), half.envelope(t))
        underflow &= (a2 * xf != 0.0) | (b2 * xh != 0.0) | (bound == 0.0)
    return distance, num, np.where(underflow, 0.0, sigma)


def _positive_intervals(
    kind: EquationKind, r: float, a2: float, b2: float, taus: np.ndarray, num: np.ndarray
) -> tuple[tuple[float, float, float], ...]:
    """Maximal sub-intervals of the grid span where sigma's numerator num > 0.

    One brentq call polishes every grid sign change on the continuous
    numerator; each gain is the exact trace-distance difference across it.
    """
    full, half = _channels(kind, r)

    def numerator(t):
        return _numerator(
            a2, b2, full.value(t), full.derivative(t), half.value(t), half.derivative(t)
        )

    pos = num > 0.0
    # a crossing between each two neighbours of opposite sign, and each end
    # of the grid where num > 0: alternately the intervals' starts and ends
    flips = np.flatnonzero(pos[1:] != pos[:-1]) + 1
    crossings = brentq(numerator, taus[flips - 1], taus[flips], xtol=1e-14)
    bounds = np.concatenate([taus[:1][pos[:1]], crossings, taus[-1:][pos[-1:]]])
    distance = _distance(a2, b2, full.value(bounds), half.value(bounds))
    gains = distance[1::2] - distance[::2]
    return tuple(zip(bounds[::2].tolist(), bounds[1::2].tolist(), gains.tolist()))


def flow_report(kind, p: MapParams, pair: StatePair, t_end: float, grid_points: int = 400) -> FlowReport:
    """Distance path, sigma both ways, and the inflow intervals of one pair.

    Identical pairs are allowed here (unlike sigma_analytic) and produce the
    all-zero report.  Raises ValueError unless t_end is finite and > 0.
    """
    if grid_points < 100:
        raise ValueError(f"grid_points must be >= 100, got {grid_points}")
    _check_horizon("t_end", t_end)
    taus = _time_grid(t_end, grid_points)
    a2, b2 = _pair_weights(pair)
    kind = parse_kind(kind)
    distance, num, sigma = _paths(kind, p, a2, b2, taus)
    sigma_discrete = p.gamma * np.gradient(distance, taus)

    intervals = _positive_intervals(kind, p.R, a2, b2, taus, num)
    total = float(sum(gain for _, _, gain in intervals))
    return FlowReport(pair, taus, distance, sigma, sigma_discrete, intervals, total)


@dataclass(frozen=True)
class MeasureResult:
    """Outcome of the pair maximization.

    method is "analytic-sigma": the value follows from the closed-form
    sigma (the only mode this package ships), as opposed to
    finite-difference segmentation of the distance path.
    """

    value: float
    argmax_pair: StatePair
    evaluations: int
    method: str
    tau_end: float


def certified_horizon(kind, p: MapParams) -> float:
    """Smallest doubling of HORIZON_START at which both xi envelopes fall below TAIL_TOL.

    The doublings go on while the next one is finite, which certifies every
    R >= 3e-307 (R = 1e-300 at about 5.4e301).  Only an R too small for any
    finite horizon gets the largest finite doubling, 20 * 2**1019 (about
    1.12e308), uncertified.  With R = 0 the map is frozen (xi identically 1,
    sigma identically 0) and no horizon can be certified; HORIZON_START is
    returned unchanged.
    """
    kind = parse_kind(kind)
    t_end = HORIZON_START
    if p.R == 0.0:
        return t_end
    while math.isfinite(2.0 * t_end) and not (
        xi_envelope(kind, p.R, t_end) <= TAIL_TOL
        and xi_envelope(kind, 0.5 * p.R, t_end) <= TAIL_TOL
    ):
        t_end *= 2.0
    return t_end


def measure(kind, p: MapParams, t_end: float | None = None) -> MeasureResult:
    """Maximal total inflow gain over initial state pairs, in closed form.

    The gain of a pair depends only on its weights (a0**2, |b0|**2), and
    scaling both by c**2 scales the gain by c.  Every pair has
    a0**2 + |b0|**2 <= 1, so its gain is at most that of the antipodal pure
    pair with weights (s, 1 - s), s = a0**2 / (a0**2 + |b0|**2) (Wissmann,
    Karlsson, Laine, Piilo, Breuer, PRA 86, 062108, 2012).

    Lemma: gain(s) <= gain(1), so the pole pair (s = 1, the full-rate
    channel alone, D = |xi(R, .)|) attains the maximum.  The lemma is
    checked as a property over R in (1/4, 50] and s in [0, 1] by the tests;
    it is not proved here.

    The value is exact algebra.  Where xi > 0 and xi' <= 0 on both
    channels no distance ever grows and the value is 0: for the
    post-Markovian family, and for the memory kernel with 4R <= 1 (the
    physical regime; the half-rate channel has 4 (R/2) <= 1/2), R = 0
    included.  For the memory kernel with 4R > 1, xi(R, .) solves
    xi'' + xi' + R xi = 0 with xi(0) = 1, xi'(0) = 0 and oscillates at
    W = sqrt(4R - 1) / 2: xi' is a negative multiple of e**(-tau/2) sin(W tau),
    so |xi| falls from each extremum tau_k = k pi / W to the next zero
    z_{k+1} = ((k + 1) pi - atan(2W)) / W, where it is 0, and rises from there
    to the next extremum, where |xi| = q**k with q = exp(-pi / (2W)).  Up to
    the horizon T the gain is therefore the sum of the K = floor(T W / pi)
    full peaks, q (1 - q**K) / (1 - q), plus the cut last rise |xi(R, T)|
    when z_{K+1} < T.  As T grows it tends to 1 / expm1(pi / sqrt(4R - 1)).

    evaluations is 1, the single closed-form evaluation.  The horizon
    defaults to the certified decay time of both xi channels so the
    truncated sum provably captures all flow up to TAIL_TOL; a given t_end
    must be finite and > 0.
    """
    kind = parse_kind(kind)
    if t_end is None:
        t_end = certified_horizon(kind, p)
    else:
        _check_horizon("t_end", t_end)
    value = 0.0
    if kind is EquationKind.MEMORY_KERNEL and 4.0 * p.R > 1.0:
        omega = 0.5 * math.sqrt(4.0 * p.R - 1.0)
        decay = math.pi / (2.0 * omega)
        # a float floor: an overflowing T W / pi gives K = inf, the limit
        peaks = float(np.floor(t_end * omega / math.pi))
        value = math.exp(-decay) * math.expm1(-peaks * decay) / math.expm1(-decay)
        if ((peaks + 1.0) * math.pi - math.atan(2.0 * omega)) / omega < t_end:
            value += abs(_channels(kind, p.R)[0].value(t_end))
    # the pole pair when it gains, else the equatorial pair (1, 0, 0) and its antipode
    s = 1.0 if value > 0.0 else 0.0
    x, z = math.sqrt(1.0 - s), math.sqrt(s)
    first = state_from_bloch(x, 0.0, z)
    second = state_from_bloch(0.0 - x, 0.0, 0.0 - z)  # 0.0 - 0.0 is +0.0
    return MeasureResult(
        value=value,
        argmax_pair=StatePair(first, second),
        evaluations=1,
        method="analytic-sigma",
        tau_end=t_end,
    )
