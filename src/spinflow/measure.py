"""Trace-distance information flow and the non-Markovianity measure.

For this family of maps the trace distance between two evolved states is

    D(tau) = sqrt(a0**2 xi(R, tau)**2 + |b0|**2 xi(R/2, tau)**2),

with a0 the initial population difference and b0 the initial coherence
difference of the pair.  Its rate of change

    sigma = gamma * [a0**2 xi_R xi_R' + |b0|**2 xi_h xi_h'] / D

(primes are d/dtau) is returned in physical inverse-time units.  The measure
integrates sigma over the intervals where it is positive, which telescopes to
sums of trace-distance differences at interval endpoints: no quadrature error
enters the reported gains.

Interval endpoints are located by bracketing sign changes of sigma's
numerator on a dense grid and polishing each bracket with a root finder; the
numerator is used instead of sigma itself so that isolated zeros of D cannot
poison the search.

The measure maximizes the total gain over pairs.  Scaling (a0, b0) by c
scales D, and hence every gain, by c, and every pair has a0**2 + |b0|**2 <= 1
with equality for antipodal pure pairs.  The maximum is therefore reached by
an antipodal pure pair and depends on one number, s = a0**2 / (a0**2 + |b0|**2)
in [0, 1] (Wissmann, Karlsson, Laine, Piilo, Breuer, PRA 86, 062108, 2012):
measure() is a deterministic 1-D search over s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .maps import MapParams, _channels, _check_times, parse_kind, xi_envelope
from .sphere import pattern_search
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

    Raises DegeneratePairError for an identical pair.  At an isolated zero
    of the trace distance (oscillatory regime) the value is +-inf or nan;
    interval bookkeeping in flow_report avoids the division entirely.
    """
    kind = parse_kind(kind)
    a2, b2 = _require_distinct(pair)
    t = _check_times(tau)
    full, half = _channels(kind, p.R)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = p.gamma * _numerator(full, half, a2, b2, t) / _distance(full, half, a2, b2, t)
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


def _distance(full, half, a2: float, b2: float, t):
    """Trace distance D of a pair with weights (a2, b2) = (a0**2, |b0|**2)."""
    xf, xh = full.value(t), half.value(t)
    return np.sqrt(a2 * xf * xf + b2 * xh * xh)


def _numerator(full, half, a2: float, b2: float, t):
    """D dD/dtau, the numerator of sigma / gamma: it has sigma's sign."""
    return a2 * full.value(t) * full.derivative(t) + b2 * half.value(t) * half.derivative(t)


def _positive_intervals(
    full, half, a2: float, b2: float, taus: np.ndarray, num: np.ndarray
) -> tuple[tuple[float, float, float], ...]:
    """Maximal sub-intervals of the grid span where sigma's numerator > 0.

    full and half are the two channels from maps._channels.  Grid sign
    changes are polished with brentq on the continuous numerator; each gain
    is the exact trace-distance difference across the interval.
    """

    def numerator(t: float) -> float:
        return _numerator(full, half, a2, b2, t)

    def crossing(lo: float, hi: float) -> float:
        flo, fhi = numerator(lo), numerator(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        return float(brentq(numerator, lo, hi, xtol=1e-14))

    pos = num > 0.0
    intervals = []
    inside = False
    start = 0.0
    for i in range(len(taus)):
        if pos[i] and not inside:
            start = taus[0] if i == 0 else crossing(taus[i - 1], taus[i])
            inside = True
        elif inside and not pos[i]:
            end = crossing(taus[i - 1], taus[i])
            intervals.append((float(start), float(end)))
            inside = False
    if inside:
        intervals.append((float(start), float(taus[-1])))
    return tuple(
        (lo, hi, float(_distance(full, half, a2, b2, hi) - _distance(full, half, a2, b2, lo)))
        for lo, hi in intervals
    )


def flow_report(kind, p: MapParams, pair: StatePair, t_end: float, grid_points: int = 400) -> FlowReport:
    """Distance path, sigma both ways, and the inflow intervals of one pair.

    Identical pairs are allowed here (unlike sigma_analytic) and produce the
    all-zero report.  Raises ValueError unless t_end is finite and > 0.
    """
    if grid_points < 100:
        raise ValueError(f"grid_points must be >= 100, got {grid_points}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    taus = np.linspace(0.0, t_end, grid_points)
    a2, b2 = _pair_weights(pair)
    full, half = _channels(parse_kind(kind), p.R)
    distance = _distance(full, half, a2, b2, taus)
    num = _numerator(full, half, a2, b2, taus)

    if a2 == 0.0 and b2 == 0.0:
        zeros = np.zeros_like(taus)
        return FlowReport(pair, taus, zeros, zeros.copy(), zeros.copy(), (), 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = p.gamma * num / distance
    sigma_discrete = p.gamma * np.gradient(distance, taus)

    intervals = _positive_intervals(full, half, a2, b2, taus, num)
    total = float(sum(gain for _, _, gain in intervals))
    return FlowReport(pair, taus, distance, sigma, sigma_discrete, intervals, total)


@dataclass(frozen=True)
class MeasureResult:
    """Outcome of the pair maximization.

    method is "analytic-sigma" when intervals come from the closed-form
    sigma numerator (the only mode this package ships) as opposed to
    finite-difference segmentation of the distance path.
    """

    value: float
    argmax_pair: StatePair
    evaluations: int
    method: str
    tau_end: float


def certified_horizon(kind, p: MapParams, t_end: float = 20.0) -> float:
    """Smallest doubling of t_end at which both xi envelopes fall below TAIL_TOL.

    With R = 0 the map is frozen (xi identically 1, sigma identically 0) and
    no horizon can be certified; the default is returned unchanged.
    """
    kind = parse_kind(kind)
    if p.R == 0.0:
        return t_end
    for _ in range(60):
        if (
            xi_envelope(kind, p.R, t_end) <= TAIL_TOL
            and xi_envelope(kind, 0.5 * p.R, t_end) <= TAIL_TOL
        ):
            return t_end
        t_end *= 2.0
    return t_end


def measure(
    kind,
    p: MapParams,
    t_end: float | None = None,
    budget: int = 1000,
    *,
    grid_points: int = 2001,
) -> MeasureResult:
    """Maximize the total inflow gain over initial state pairs.

    The gain of a pair depends only on its weights (a0**2, |b0|**2), and
    scaling both by c**2 scales the gain by c.  Every pair has
    a0**2 + |b0|**2 <= 1, so its gain is at most that of the antipodal pure
    pair with weights (s, 1 - s), s = a0**2 / (a0**2 + |b0|**2): the
    maximum over pairs is exactly a maximum over s in [0, 1].  The search
    scores 65 evenly spaced s, both ends included (s = 1 is the pole pair,
    s = 0 an equatorial pair), then refines the best with a 1-D pattern
    search from step 1/64 down to 1e-4.

    budget caps the number of gain evaluations and must be >= 100; the
    search takes 82 when the refinement never moves and never more than 98,
    so the cap does not bind.  The search is deterministic: there is no seed.

    The horizon defaults to the certified decay time of both xi channels so
    the truncated integral provably captures all flow up to TAIL_TOL; a
    given t_end must be finite and > 0.
    """
    kind = parse_kind(kind)
    if budget < 100:
        raise ValueError(f"budget must be >= 100, got {budget}")
    if t_end is None:
        t_end = certified_horizon(kind, p)
    elif not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    taus = np.linspace(0.0, t_end, grid_points)
    full, half = _channels(kind, p.R)
    full_term = full.value(taus) * full.derivative(taus)
    half_term = half.value(taus) * half.derivative(taus)

    evaluations = 0

    def gain(s: float) -> float:
        nonlocal evaluations
        evaluations += 1
        num = s * full_term + (1.0 - s) * half_term
        if not np.any(num > 0.0):
            return 0.0
        total = 0.0
        for _, _, interval_gain in _positive_intervals(full, half, s, 1.0 - s, taus, num):
            total += interval_gain
        return total

    scan = np.linspace(0.0, 1.0, 65)
    start = int(np.argmax([gain(float(s)) for s in scan]))
    best, best_value, _ = pattern_search(
        lambda x: gain(float(x[0])),
        scan[start : start + 1],
        project=lambda x: np.clip(x, 0.0, 1.0),
        step=1.0 / 64.0,
        min_step=1e-4,
        max_evals=budget - evaluations,
    )
    x, z = math.sqrt(1.0 - best[0]), math.sqrt(best[0])
    first = state_from_bloch(x, 0.0, z)
    second = state_from_bloch(0.0 - x, 0.0, 0.0 - z)  # 0.0 - 0.0 is +0.0
    return MeasureResult(
        value=max(best_value, 0.0),
        argmax_pair=StatePair(first, second),
        evaluations=evaluations,
        method="analytic-sigma",
        tau_end=t_end,
    )
