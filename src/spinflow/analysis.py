"""Structural analysis of the relaxation maps.

Choi matrices and complete positivity, positivity on the Bloch ball,
two-time intermediate maps and divisibility, and a regime classifier that
combines those scans with the information-flow measure (classify, a report
whose scans run as they are read, so that its verdict runs only the scans
that decide it).

Convention fixed project-wide: the Choi matrix is built with the input index
on the first tensor factor and is unnormalized,

    C = sum_{i,j in {0,1}} |i><j| (x) Phi(|i><j|),

so the identity map gives a rank-one matrix of trace 2 and trace preservation
reads "partial trace over the second factor equals the 2x2 identity".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import measure as measure_mod
from .maps import (
    MapParams,
    MapSnapshot,
    _check_horizon,
    _time_grid,
    parse_kind,
    snapshot_arrays,
    xi,
)
from .sphere import pattern_search, sphere_grid
from .states import QubitState, state_from_bloch

__all__ = [
    "MapInversionError",
    "PositivityVerdict",
    "DivisibilityReport",
    "RegimeReport",
    "ScanResult",
    "choi_of",
    "choi_eigenvalues",
    "is_positive",
    "cp_scan",
    "positivity_scan",
    "intermediate_map",
    "divisibility_scan",
    "cp_temperature_threshold",
    "classify",
]

#: eigenvalue slack for complete-positivity verdicts
CP_TOL = 1e-10
#: Bloch-norm slack for positivity verdicts
POSITIVITY_TOL = 1e-10
#: eigenvalue slack for divisibility verdicts
DIVISIBILITY_TOL = 1e-9
#: damping factors smaller than this make the earlier map non-invertible
INVERSION_FLOOR = 1e-12
#: cells per block of rows in the divisibility screen, which bounds its
#: memory: 2**14 cells keep each temporary in cache and below glibc's
#: 128 KiB mmap threshold
_SCREEN_CELLS = 2**14


class MapInversionError(RuntimeError):
    """The earlier map of a two-time pair cannot be inverted."""


def choi_of(snap: MapSnapshot) -> np.ndarray:
    """4x4 Choi matrix of the affine map, input index first, trace 2."""
    u, v, lam1 = snap.u, snap.v, snap.lambda1
    return np.array(
        [
            [1.0 - v, 0.0, 0.0, lam1],
            [0.0, v, 0.0, 0.0],
            [0.0, 0.0, 1.0 - u, 0.0],
            [lam1, 0.0, 0.0, u],
        ],
        dtype=complex,
    )


def _choi_spectrum(lam1, lam3, t3):
    """The four Choi eigenvalues in closed form, over floats or arrays: v, 1 - u, then the pair.

    The two population entries v and 1-u sit on the diagonal; the coherence
    block 2x2 has trace 1 + lambda3 and off-diagonal lambda1, giving the pair
    ((1 + lambda3) +- sqrt(t3**2 + 4 lambda1**2)) / 2.
    """
    outer = 0.5 * (1.0 + lam3)
    half_root = 0.5 * np.sqrt(t3 * t3 + 4.0 * lam1 * lam1)
    return 0.5 * (1.0 + t3 - lam3), 0.5 * (1.0 - t3 - lam3), outer - half_root, outer + half_root


def choi_eigenvalues(snap: MapSnapshot) -> np.ndarray:
    """Spectrum of choi_of(snap) in closed form, ascending."""
    return np.sort(np.array(_choi_spectrum(snap.lambda1, snap.lambda3, snap.t3)))


@dataclass(frozen=True)
class PositivityVerdict:
    ok: bool
    max_norm: float
    witness: QubitState


def is_positive(snap: MapSnapshot, samples: int = 1000) -> PositivityVerdict:
    """Does the affine image of the Bloch ball stay inside the ball?

    Maximizes the output Bloch norm over pure inputs: a deterministic
    icosphere grid of at least `samples` directions, then pattern-search
    refinement on the sphere from the best vertex.  The maximum of an affine
    image over the ball is attained on the sphere, so pure inputs suffice.

    Raises ValueError if samples < 1000 or an entry of snap is not finite.
    """
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples}")
    if not all(map(math.isfinite, (snap.lambda1, snap.lambda3, snap.t3))):
        raise ValueError(f"snapshot entries must be finite, got {snap}")
    verts = sphere_grid(samples)
    xy = snap.lambda1 * verts[:, :2]
    zz = snap.lambda3 * verts[:, 2] + snap.t3
    norms = np.sqrt(np.einsum("ij,ij->i", xy, xy) + zz * zz)
    best = int(np.argmax(norms))

    def objective(vec):
        x, y, z = vec.tolist()
        tx, ty = snap.lambda1 * x, snap.lambda1 * y
        tz = snap.lambda3 * z + snap.t3
        return math.sqrt(tx * tx + ty * ty + tz * tz)

    def project(vec):
        # np.linalg.norm's own sum: a Python x*x + y*y + z*z rounds differently
        # from BLAS ddot, whose multiply-adds are fused
        norm = math.sqrt(vec.dot(vec))
        return vec / norm if norm > 0.0 else np.array([0.0, 0.0, 1.0])

    direction, max_norm, _ = pattern_search(
        objective, verts[best], project=project, step=0.2, min_step=1e-8
    )
    return PositivityVerdict(
        ok=max_norm <= 1.0 + POSITIVITY_TOL,
        max_norm=float(max_norm),
        witness=state_from_bloch(*direction),
    )


@dataclass(frozen=True)
class ScanResult:
    ok: bool
    worst_tau: float
    worst_value: float
    witness: QubitState | None = None


def _scan_times(taus) -> np.ndarray:
    """taus as a float array; ValueError unless it is non-empty and 1-D."""
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError(f"taus must be a non-empty 1-D grid, got shape {taus.shape}")
    return taus


def _max_bloch_norm2(lam1, lam3, t3):
    """Largest squared output Bloch norm over pure inputs, in closed form, over arrays.

    The input at height z maps to squared norm lambda1² (1 - z²) + (lambda3 z + t3)²,
    a quadratic in z alone.  When lambda1² > lambda3² it is concave, and if its
    vertex z* = lambda3 t3 / (lambda1² - lambda3²) lies in [-1, 1] the maximum
    over [-1, 1] is there, lambda1² + t3² lambda1² / (lambda1² - lambda3²).
    Otherwise it sits at an end, (|lambda3| + |t3|)².
    """
    l1 = lam1 * lam1
    gap = l1 - lam3 * lam3
    ends = (np.abs(lam3) + np.abs(t3)) ** 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vertex = l1 + t3 * t3 * l1 / gap
    return np.where((gap > 0.0) & (np.abs(lam3 * t3) <= gap), vertex, ends)


def positivity_scan(kind, p: MapParams, taus, samples: int = 1000) -> ScanResult:
    """Positivity of the one-time map over a tau grid.

    Screens every grid time for its largest squared output Bloch norm in
    closed form, then refines the worst time (the first, on a tie) with
    is_positive, which gives the reported norm and the witness.

    Raises ValueError unless taus is a non-empty 1-D grid.
    """
    kind = parse_kind(kind)
    taus = _scan_times(taus)
    lam1, lam3, t3 = snapshot_arrays(kind, p, taus)
    worst_idx = int(np.argmax(_max_bloch_norm2(lam1, lam3, t3)))
    verdict = is_positive(
        MapSnapshot(float(lam1[worst_idx]), float(lam3[worst_idx]), float(t3[worst_idx])),
        samples=samples,
    )
    return ScanResult(
        ok=verdict.ok,
        worst_tau=float(taus[worst_idx]),
        worst_value=verdict.max_norm,
        witness=verdict.witness,
    )


def _snapshot_min_eigs(lam1: np.ndarray, lam3: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """Closed-form smallest Choi eigenvalue, vectorized over snapshot arrays."""
    v, one_minus_u, low, _ = _choi_spectrum(lam1, lam3, t3)
    return np.minimum(np.minimum(v, one_minus_u), low)


def cp_scan(kind, p: MapParams, taus) -> ScanResult:
    """Smallest Choi eigenvalue of the one-time map over a tau grid, in closed form.

    Reports the first grid time where it is smallest, and its value there.

    Raises ValueError unless taus is a non-empty 1-D grid.
    """
    kind = parse_kind(kind)
    taus = _scan_times(taus)
    mins = _snapshot_min_eigs(*snapshot_arrays(kind, p, taus))
    worst = int(np.argmin(mins))
    return ScanResult(
        ok=bool(mins[worst] >= -CP_TOL),
        worst_tau=float(taus[worst]),
        worst_value=float(mins[worst]),
    )


def intermediate_map(kind, p: MapParams, t1: float, t2: float) -> MapSnapshot:
    """Two-time map: the tau = t2 map composed with the inverse of tau = t1.

    Componentwise lambda(t2) / lambda(t1) and the matching translation.
    Raises MapInversionError when a damping factor of the earlier map has
    (numerically) vanished.
    """
    kind = parse_kind(kind)
    if not 0.0 <= t1 <= t2:
        raise ValueError(f"need 0 <= t1 <= t2, got t1 = {t1}, t2 = {t2}")
    early = snapshot_arrays(kind, p, float(t1))
    for name, value in zip(("lambda1", "lambda3"), early):
        if abs(value) < INVERSION_FLOOR:
            raise MapInversionError(
                f"{name}(t1 = {t1:.9g}) = {value:.3g} has vanished; "
                "the earlier map is not invertible"
            )
    return MapSnapshot(*_compose(early, snapshot_arrays(kind, p, float(t2))))


def _compose(early, late):
    """The late map after the inverse of the early one, each a (lambda1, lambda3, t3) triple.

    Componentwise lambda(t2) / lambda(t1), and t3(t2) - lambda3' t3(t1), over floats or arrays.
    """
    e1, e3, et = early
    l1, l3, lt = late
    lam3 = l3 / e3
    return l1 / e1, lam3, lt - lam3 * et


@dataclass(frozen=True)
class DivisibilityReport:
    divisible: bool
    min_eigenvalue: float
    worst_pair: tuple[float, float]
    tau_end: float
    grid: int


#: largest divisibility grid: a block of the screen holds at least one row
#: of up to `grid` - 1 cells, so this bounds its memory
MAX_GRID = 2**16


def _pair_min_eigs(early, late) -> np.ndarray:
    """Closed-form smallest Choi eigenvalue of each t1 -> t2 intermediate map.

    early and late are the snapshot arrays at t1 and t2; broadcasts over
    them; inf where the earlier map is not invertible.  Near-singular earlier
    maps overflow to inf or NaN without a warning.
    """
    e1, e3, _ = early
    invertible = (np.abs(e1) >= INVERSION_FLOOR) & (np.abs(e3) >= INVERSION_FLOOR)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mins = _snapshot_min_eigs(*_compose(early, late))
    return np.where(invertible, mins, np.inf)


#: offsets of the refinement's 9 x 9 stencil, in units of its half-width
_STENCIL = np.linspace(-1.0, 1.0, 9)
#: factors of the refinement steps evaluated in one call: a step and the
#: halvings that follow it while no stencil improves
_HALVINGS = 0.5 ** np.arange(5)


def _refine_pair(kind, p: MapParams, tau_end: float, t1, t2, best, step) -> tuple[float, float]:
    """Stage 2 of divisibility_scan from the screened pair (t1, t2) of value best: the refined pair."""
    min_step = 1e-7 * max(tau_end, 1.0)
    while step >= min_step:
        # the step and its pending halvings down to min_step, each exact:
        # no step is subnormal
        steps = step * _HALVINGS
        steps = steps[steps >= min_step]
        offsets = steps[:, None] * _STENCIL
        # near the float range a stencil time overflows to inf, which
        # clips to tau_end like any time past it
        with np.errstate(over="ignore"):
            a = np.clip(t1 + offsets[:, :, None], 0.0, tau_end)
            b = np.clip(t2 + offsets[:, None, :], 0.0, tau_end)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # one checked call for both ends of every pair of every level, split
        # into lo's maps and hi's
        values = _pair_min_eigs(*zip(*snapshot_arrays(kind, p, np.stack((lo, hi)))))
        values = values.reshape(len(steps), -1)
        # the first level whose first row-major argmin improves on best wins
        # and keeps its step; a level after it was never reached
        for level, k in enumerate(np.argmin(values, axis=1)):
            if values[level, k] < best:
                best, step = values[level, k], steps[level]
                t1, t2 = float(lo[level].flat[k]), float(hi[level].flat[k])
                break
        else:
            step = steps[-1] * 0.5
    return t1, t2


def divisibility_scan(
    kind, p: MapParams, tau_end: float = 20.0, grid: int = 200, refine: bool = True
) -> DivisibilityReport:
    """Search 0 <= t1 <= t2 <= tau_end for an intermediate map that is not CP.

    Three stages, the first two on the closed-form Choi spectrum of the
    two-time map:

    1. a uniform `grid` x `grid` screen of the pairs t1 < t2, skipping times
       where the one-time map is not invertible, in blocks of rows that
       hold only the columns after the block's first row, at most 2**14
       cells each (one row of up to MAX_GRID - 1 cells above that), which
       bounds its memory;
    2. with `refine`, a stencil search from the grid winner: each step
       takes a 9 x 9 stencil of half-width `step` around the current pair
       (clipped to [0, tau_end] and ordered), moves to its best point on a
       strict improvement and halves `step` otherwise, from the grid
       spacing down to 1e-7 * max(tau_end, 1); the stencils of a step and
       of its next pending halvings are evaluated in one vectorized call
       and met in order, so the walk and its stopping rule are those of one
       stencil per step;
    3. a numerical eigensolver verdict on the intermediate map at the winner.

    Raises ValueError unless tau_end is finite and > 0 and 2 <= grid <= MAX_GRID.
    """
    kind = parse_kind(kind)
    _check_horizon("tau_end", tau_end)
    if not 2 <= grid <= MAX_GRID:
        raise ValueError(f"grid must lie in [2, {MAX_GRID}], got {grid}")
    taus = _time_grid(tau_end, grid)
    late = snapshot_arrays(kind, p, taus)
    # the first minimum in row-major order, as one argmin over the full grid;
    # the columns up to a block's first row are t2 <= t1 on every row
    screened, i, j = np.inf, 0, 0
    start = 0
    while start < grid - 1:
        width = grid - 1 - start
        stop = min(grid, start + max(1, _SCREEN_CELLS // width))
        t1s = taus[start:stop, None]
        early = tuple(a[start:stop, None] for a in late)
        mins = _pair_min_eigs(early, tuple(a[start + 1 :] for a in late))
        mins = np.where(taus[None, start + 1 :] > t1s, mins, np.inf)
        k = int(np.argmin(mins))
        if mins.flat[k] < screened:
            screened, i, j = mins.flat[k], start + k // width, start + 1 + k % width
        start = stop
    t1, t2 = float(taus[i]), float(taus[j])

    if refine and np.isfinite(screened):
        t1, t2 = _refine_pair(kind, p, tau_end, t1, t2, screened, taus[1] - taus[0])

    try:
        worst = intermediate_map(kind, p, t1, t2)
        min_eig = float(np.linalg.eigvalsh(choi_of(worst))[0])
    except MapInversionError:
        min_eig = float(screened) if np.isfinite(screened) else 0.0
    return DivisibilityReport(
        divisible=min_eig >= -DIVISIBILITY_TOL,
        min_eigenvalue=min_eig,
        worst_pair=(t1, t2),
        tau_end=tau_end,
        grid=grid,
    )


def cp_temperature_threshold(kind, r: float, tau: float) -> float:
    """Occupation N above which the one-time map at (r, tau) is CP.

    The only N-dependent entry is the translation t3 = (lambda3 - 1)/(2N+1),
    and the binding eigenvalue condition is
    (1 + lambda3)**2 - 4 lambda1**2 >= t3**2, monotonically easier as N
    grows.  Returns 0.0 when CP already holds at N = 0 and inf when even
    infinite temperature cannot restore CP.
    """
    kind = parse_kind(kind)
    lam3 = xi(kind, r, tau)
    lam1 = xi(kind, 0.5 * r, tau)
    gap = (1.0 + lam3) ** 2 - 4.0 * lam1 * lam1
    if gap <= 0.0:  # only the identity map, lambda3 = 1 and t3 = 0, meets gap >= t3**2 there
        return 0.0 if gap == 0.0 and lam3 == 1.0 else math.inf
    needed = abs(1.0 - lam3) / math.sqrt(gap)  # required 2N+1
    return max(0.0, 0.5 * (needed - 1.0))


_VERDICT_UNPHYSICAL = "Unphysical(positivity broken)"
_VERDICT_NONMARKOVIAN = "NonMarkovian"
_VERDICT_NONDIVISIBLE = "TimeDependentMarkovian-Nondivisible"
_VERDICT_DIVISIBLE = "TimeDependentMarkovian-Divisible"

#: information backflow below this total gain counts as zero
MEASURE_TOL = 1e-8
#: times in classify's positivity and CP scans, up to the certified horizon
CLASSIFY_POINTS = 201
#: side of classify's divisibility grid
CLASSIFY_DIVISIBILITY_GRID = 100


class RegimeReport:
    """The regime of the dynamics generated by (kind, p), each scan run at its first read.

    Order of precedence: a positivity defect (or an inherently unsafe
    parameter regime) makes the family unphysical; otherwise information
    backflow makes it non-Markovian; otherwise divisibility separates the
    two time-dependent Markovian classes.  A CP defect alone (low
    temperature) is reported but does not change the verdict.

    Every scan and the measure run up to the certified horizon, the scans on
    CLASSIFY_POINTS times and a CLASSIFY_DIVISIBILITY_GRID-sided pair grid,
    each once, when it is first read.
    """

    def __init__(self, kind, p: MapParams):
        self.kind, self.params = parse_kind(kind), p

    @property
    def params_physical(self) -> bool:
        return self.params.physical_for(self.kind)

    @functools.cached_property
    def tau_end(self) -> float:
        return measure_mod.certified_horizon(self.kind, self.params)

    @functools.cached_property
    def taus(self) -> np.ndarray:
        return _time_grid(self.tau_end, CLASSIFY_POINTS)

    @functools.cached_property
    def positivity(self) -> ScanResult:
        return positivity_scan(self.kind, self.params, self.taus)

    @functools.cached_property
    def cp(self) -> ScanResult:
        return cp_scan(self.kind, self.params, self.taus)

    @functools.cached_property
    def measure(self) -> "measure_mod.MeasureResult":
        return measure_mod.measure(self.kind, self.params, t_end=self.tau_end)

    @functools.cached_property
    def divisibility(self) -> DivisibilityReport:
        return divisibility_scan(
            self.kind, self.params, tau_end=self.tau_end, grid=CLASSIFY_DIVISIBILITY_GRID
        )

    @functools.cached_property
    def verdict(self) -> str:
        """The verdict by order of precedence, reading only the scans that decide it.

        params_physical, then the positivity scan, then the measure above
        MEASURE_TOL, then the divisibility scan: a scan is read only when
        the rules before it have not decided, and the CP scan, which never
        decides, is not read.
        """
        if not self.params_physical or not self.positivity.ok:
            return _VERDICT_UNPHYSICAL
        if self.measure.value > MEASURE_TOL:
            return _VERDICT_NONMARKOVIAN
        if not self.divisibility.divisible:
            return _VERDICT_NONDIVISIBLE
        return _VERDICT_DIVISIBLE


def classify(kind, p: MapParams) -> RegimeReport:
    """The regime report of (kind, p); a scan runs when its field is first read."""
    return RegimeReport(kind, p)
