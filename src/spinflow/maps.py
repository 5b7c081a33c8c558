"""Closed-form engine for two phenomenological relaxation maps of a qubit.

Both families describe a spin-1/2 coupled to a thermal reservoir through an
exponentially fading memory, controlled by three physical parameters: the
coupling strength gamma0, the memory decay rate gamma, and the mean reservoir
occupation n_occ (written N below).  All internal formulas use the
dimensionless time tau = gamma * t and the ratio

    R = gamma0 * (2 N + 1) / gamma.

The evolved density matrix is an affine image of the initial one,

    pe(tau) = u * pe(0) + v * (1 - pe(0)),      u = (1 + T3 + lam3) / 2,
    b(tau)  = lam1 * b(0),                      v = (1 + T3 - lam3) / 2,

with damping factors lam1 = xi(R/2, tau), lam3 = xi(R, tau) and translation
T3 = (xi(R, tau) - 1) / (2 N + 1).  The scalar decay profile xi is, for the
memory-kernel family,

    xi(r, tau) = exp(-tau/2) * [ sinh(w tau/2) / w + cosh(w tau/2) ],
    w = sqrt(1 - 4 r),

and for the post-Markovian family the same hyperbolic shape with
w = |r - 1| / (r + 1) and the half-time tau/2 replaced by (r + 1) tau / 2.
When w**2 < 0 (memory kernel with 4 r > 1) the hyperbolic functions become
damped oscillations; at w = 0 the analytic limit is exp(-theta) (1 + theta).

Numerically the hyperbolic branch is evaluated as a sum of two decaying
exponentials,

    xi = (1 + 1/w)/2 exp(-m1 theta) + (1 - 1/w)/2 exp(-m2 theta),
    m1 = (1 - w**2) / (1 + w),  m2 = 1 + w,

which never overflows (sinh would once w theta exceeds ~710) and keeps the
slow rate m1 cancellation-free for small r.  With the slow exponential
factored out and the fast one taken through expm1, this form stays accurate
as w -> 0, as does sin(q theta) / q, q = sqrt(-w**2), on the oscillatory
side; the analytic limit is used only at w**2 == 0 exactly, so each side of
the branch point has one formula.  The time-local (TCL) rewriting
of either equation has rates proportional to the logarithmic derivative of
xi; they are finite exactly as long as xi stays away from zero, which fails
only in the oscillatory regime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .states import QubitState

__all__ = [
    "EquationKind",
    "parse_kind",
    "MapParams",
    "MapSnapshot",
    "TclRates",
    "SingularRateError",
    "xi",
    "xi_derivative",
    "xi_envelope",
    "snapshot",
    "snapshot_arrays",
    "apply_map",
    "tcl_rates",
    "tcl_rate_arrays",
    "rate_divergence_time",
]

#: branch-point distance within which xi_envelope uses its (1 + theta) form;
#: value, derivative and log-derivative need no such window
BRANCH_TAYLOR_TOL = 1e-6
#: below this |xi| (or unscaled |xi'|) the rates use the closed-form
#: log-derivative, not xi' / xi
_NORMAL_MIN = float(np.finfo(float).tiny)
#: the largest float: an oscillatory phase past it is capped here, since a
#: phase of inf would make sin and cos NaN where exp(-theta) is already 0
_FLOAT_MAX = float(np.finfo(float).max)
#: a scaled time tscale * t, or a rate times it, may overflow to inf; xi and
#: its derivatives are at their limits there, so _Channel ignores the overflow
_OVERFLOW_IS_A_LIMIT = np.errstate(over="ignore")


class EquationKind(enum.Enum):
    """Which master-equation family generated the map."""

    MEMORY_KERNEL = "mem"
    POST_MARKOVIAN = "post"


_KIND_ALIASES = {
    "mem": EquationKind.MEMORY_KERNEL,
    "memory": EquationKind.MEMORY_KERNEL,
    "memory-kernel": EquationKind.MEMORY_KERNEL,
    "memory_kernel": EquationKind.MEMORY_KERNEL,
    "post": EquationKind.POST_MARKOVIAN,
    "pm": EquationKind.POST_MARKOVIAN,
    "post-markovian": EquationKind.POST_MARKOVIAN,
    "post_markovian": EquationKind.POST_MARKOVIAN,
}


def parse_kind(value) -> EquationKind:
    if isinstance(value, EquationKind):
        return value
    try:
        return _KIND_ALIASES[str(value).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown equation kind {value!r}; expected 'mem' or 'post'"
        ) from None


class SingularRateError(RuntimeError):
    """Time-local rates requested at or beyond a zero of the decay profile."""


@dataclass(frozen=True)
class MapParams:
    """Physical parameters of the reservoir coupling.

    gamma0: dissipation strength (inverse time), gamma: memory decay rate
    (inverse time), n_occ: mean thermal occupation N of the reservoir mode.
    """

    gamma0: float
    gamma: float = 1.0
    n_occ: float = 0.0

    def __post_init__(self):
        for name in ("gamma0", "gamma", "n_occ"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if self.gamma0 < 0.0:
            raise ValueError(f"gamma0 must be >= 0, got {self.gamma0}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.n_occ < 0.0:
            raise ValueError(f"n_occ must be >= 0, got {self.n_occ}")
        # the channels square R + 1 (post) and take 4R (mem)
        if not math.isfinite((self.R + 1.0) * (self.R + 1.0)):
            raise ValueError(f"R = gamma0 (2N+1) / gamma overflows, got {self.R!r}")
        if self.R == 0.0 and self.gamma0 > 0.0:
            raise ValueError(f"R = gamma0 (2N+1) / gamma underflows, got {self.R!r}")

    @property
    def R(self) -> float:
        """Dimensionless coupling ratio gamma0 (2N+1) / gamma."""
        return self.gamma0 * (2.0 * self.n_occ + 1.0) / self.gamma

    @classmethod
    def from_ratio(cls, r: float, n_occ: float = 0.0) -> "MapParams":
        """Build parameters from (R, N) with gamma = 1, the time unit."""
        if r < 0.0:
            raise ValueError(f"R must be >= 0, got {r}")
        # checked before 2N + 1 divides R, which it cannot for N = -1/2
        if not (math.isfinite(n_occ) and n_occ >= 0.0):
            raise ValueError(f"n_occ must be finite and >= 0, got {n_occ!r}")
        gamma0 = r / (2.0 * n_occ + 1.0)
        if r > 0.0 and gamma0 == 0.0:
            raise ValueError(f"gamma0 = R gamma / (2N+1) underflows, got R = {r!r}")
        return cls(gamma0=gamma0, gamma=1.0, n_occ=n_occ)

    def physical_for(self, kind: EquationKind) -> bool:
        """True unless the memory-kernel map is oscillatory (4R > 1).

        This is the parameter condition alone, reported by classify as
        params_physical; the post-Markovian map has no such restriction.
        It does not make the map positive: at low temperature the positivity
        scan can still fail with 4R <= 1 (mem R = 0.2 at N = 0).
        """
        if parse_kind(kind) is EquationKind.POST_MARKOVIAN:
            return True
        return 4.0 * self.R <= 1.0


def _check_times(tau) -> np.ndarray:
    """tau as a float array; ValueError unless every entry is finite and >= 0."""
    t = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("tau must be finite")
    if np.any(t < 0.0):
        raise ValueError("tau must be >= 0")
    return t


def _check_horizon(name: str, t_end) -> None:
    """ValueError, naming the argument name, unless the horizon t_end is finite and > 0."""
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {t_end}")


@np.errstate(over="ignore")  # near the float range the last time overflows; numpy sets it to t_end
def _time_grid(t_end: float, points: int) -> np.ndarray:
    return np.linspace(0.0, t_end, points)


def _check_args(kind, r, tau):
    kind = parse_kind(kind)
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"rate argument must be finite and >= 0, got {r!r}")
    return kind, r, _check_times(tau)


def _shaped(t, val):
    """A float for a scalar time, the array otherwise."""
    return float(val) if np.ndim(t) == 0 else val


class _Channel:
    """The decay profile xi(r, .) of one family and rate, without argument checks.

    Holds the branch data: w**2, its root w = sqrt(|w**2|) (the frequency q
    on the oscillatory side), 1 - w**2, dtheta/dtau and the branch distance.
    value, derivative and log_derivative use one form on each side of the
    branch point, accurate for any |w| > 0: the expm1 form where w**2 > 0
    and the sin(q theta) / q form where w**2 < 0.  The analytic limit
    exp(-theta) (1 + theta) serves only w**2 == 0 exactly.  envelope is a
    bound, not a value, and keeps its (1 + theta) form within
    BRANCH_TAYLOR_TOL of the branch point.  Every method takes a float or an
    array of times that the caller has checked (finite, >= 0) and returns a
    float or an array.
    """

    __slots__ = ("w2", "w", "one_minus_w2", "tscale", "dist")

    def __init__(self, kind: EquationKind, r: float):
        if kind is EquationKind.MEMORY_KERNEL:
            self.w2 = 1.0 - 4.0 * r
            self.one_minus_w2 = 4.0 * r
            self.tscale = 0.5
            self.dist = abs(self.w2)
        else:
            w = (r - 1.0) / (r + 1.0)
            self.w2 = w * w
            self.one_minus_w2 = 4.0 * r / ((r + 1.0) * (r + 1.0))
            self.tscale = 0.5 * (r + 1.0)
            self.dist = abs(r - 1.0)
        self.w = math.sqrt(abs(self.w2))

    @_OVERFLOW_IS_A_LIMIT
    def value(self, t):
        """xi at t; exactly 1.0 at t = 0."""
        w2, w = self.w2, self.w
        theta = self.tscale * t
        if w2 > 0.0:
            m1 = self.one_minus_w2 / (1.0 + w)
            # factor the slow exponential out and route the fast one through
            # expm1: the near-branch cancellation between the two w-scaled
            # terms disappears
            val = np.exp(-m1 * theta) * (
                1.0 - (1.0 - w) / (2.0 * w) * np.expm1(-2.0 * w * theta)
            )
        elif w2 < 0.0:
            phase = np.minimum(w * theta, _FLOAT_MAX)
            val = np.exp(-theta) * (np.sin(phase) / w + np.cos(phase))
        else:
            val = np.exp(-theta) * (1.0 + theta)
        return _shaped(t, np.where(t == 0.0, 1.0, val))

    @_OVERFLOW_IS_A_LIMIT
    def derivative(self, t):
        """d xi / d tau at t; exactly 0.0 at t = 0."""
        w2, w, one_minus_w2 = self.w2, self.w, self.one_minus_w2
        theta = self.tscale * t
        if w2 > 0.0:
            m1 = one_minus_w2 / (1.0 + w)
            # same expm1 factoring as the value: exact where the plain
            # difference of exponentials would lose digits to cancellation
            val = one_minus_w2 / (2.0 * w) * np.exp(-m1 * theta) * np.expm1(-2.0 * w * theta)
        elif w2 < 0.0:
            val = -one_minus_w2 * np.exp(-theta) * np.sin(np.minimum(w * theta, _FLOAT_MAX)) / w
        else:
            val = -theta * np.exp(-theta)
        return _shaped(t, np.where(t == 0.0, 0.0, self.tscale * val))

    @_OVERFLOW_IS_A_LIMIT
    def log_derivative(self, t):
        """xi' / xi at t with the common exponential cancelled.

        Finite where value and derivative have both underflowed to 0.
        """
        w2, w, one_minus_w2 = self.w2, self.w, self.one_minus_w2
        theta = self.tscale * t
        if w2 > 0.0:
            fast = np.expm1(-2.0 * w * theta)
            val = one_minus_w2 / (2.0 * w) * fast / (1.0 - (1.0 - w) / (2.0 * w) * fast)
        elif w2 < 0.0:
            phase = np.minimum(w * theta, _FLOAT_MAX)
            sinc = np.sin(phase) / w
            val = -one_minus_w2 * sinc / (sinc + np.cos(phase))
        else:
            val = -theta / (1.0 + theta)
        return _shaped(t, self.tscale * val)

    @_OVERFLOW_IS_A_LIMIT
    def envelope(self, t):
        """Decaying upper bound for |xi(t')| at t' >= t."""
        w2, w = self.w2, self.w
        theta = self.tscale * t
        if self.dist <= BRANCH_TAYLOR_TOL:
            # (1 + theta) exp(w theta) bounds sinh(w theta) / w + cosh(w theta),
            # and (1 + theta) its oscillatory counterpart, with no 1/w term
            val = (1.0 + theta) * np.exp(-(1.0 - (w if w2 > 0.0 else 0.0)) * theta)
        elif w2 < 0.0:
            val = math.sqrt(1.0 - 1.0 / w2) * np.exp(-theta)
        else:
            m1 = self.one_minus_w2 / (1.0 + w)
            m2 = 1.0 + w
            val = 0.5 * (1.0 + 1.0 / w) * np.exp(-m1 * theta) + 0.5 * abs(
                1.0 - 1.0 / w
            ) * np.exp(-m2 * theta)
        return _shaped(t, val)


def _channels(kind: EquationKind, r: float) -> tuple[_Channel, _Channel]:
    """The full-rate (lambda3 = xi(r)) and half-rate (lambda1 = xi(r/2)) channels."""
    return _Channel(kind, r), _Channel(kind, 0.5 * r)


def xi(kind, r: float, tau):
    """Scalar decay profile xi(r, tau) of the requested map family.

    Accepts a scalar or array tau; returns a matching float or ndarray.
    Exactly 1.0 at tau = 0.  Negative or non-finite arguments are rejected.
    """
    kind, r, t = _check_args(kind, r, tau)
    return _Channel(kind, r).value(t)


def xi_derivative(kind, r: float, tau):
    """d xi / d tau in closed form; exactly 0.0 at tau = 0.

    Hyperbolic branch: -(2r/w) exp(-theta) sinh(w theta) scaled by
    dtheta/dtau; oscillatory branch: same with sin; both expressed through
    the overflow-safe exponential pair.
    """
    kind, r, t = _check_args(kind, r, tau)
    return _Channel(kind, r).derivative(t)


def xi_envelope(kind, r: float, tau):
    """Decaying upper bound for |xi(r, tau')| at tau' >= tau.

    Used to certify truncation horizons: the bound is exact algebra on the
    two-exponential form (hyperbolic), the sinusoid amplitude (oscillatory),
    or the (1 + theta) prefactor (near the branch point).
    """
    kind, r, t = _check_args(kind, r, tau)
    return _Channel(kind, r).envelope(t)


@dataclass(frozen=True)
class MapSnapshot:
    """Affine Bloch action of the map frozen at one instant.

    lambda1 scales the transverse (coherence) components, lambda3 the
    longitudinal one, t3 is the longitudinal translation.  T1 = T2 = 0
    structurally, and lambda2 = lambda1.
    """

    lambda1: float
    lambda3: float
    t3: float

    @property
    def u(self) -> float:
        """Excited-population retention factor."""
        return 0.5 * (1.0 + self.t3 + self.lambda3)

    @property
    def v(self) -> float:
        """Ground-to-excited feeding factor."""
        return 0.5 * (1.0 + self.t3 - self.lambda3)


IDENTITY_SNAPSHOT = MapSnapshot(1.0, 1.0, 0.0)


def snapshot(kind, p: MapParams, tau: float) -> MapSnapshot:
    """Damping factors and translation of the map at dimensionless time tau."""
    return MapSnapshot(*snapshot_arrays(kind, p, float(tau)))


def snapshot_arrays(kind, p: MapParams, taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda1, lambda3, t3) arrays over a tau grid; the vectorized snapshot.

    A scalar tau gives three floats.
    """
    return _snapshot_pieces(*_channels(parse_kind(kind), p.R), p, _check_times(taus))


def _snapshot_pieces(full: _Channel, half: _Channel, p: MapParams, t):
    """(lambda1, lambda3, t3) from the channels of _channels, unchecked."""
    lam3 = full.value(t)
    t3 = (lam3 - 1.0) / (2.0 * p.n_occ + 1.0)
    return half.value(t), lam3, t3


def _affine_action(lam1, lam3, t3, s: QubitState):
    """pe and b of s under the affine map(s) (lambda1, lambda3, t3) of floats or arrays."""
    return 0.5 * (1.0 + t3 - lam3) + lam3 * s.population_e, lam1 * complex(s.coherence)


def apply_map(snap: MapSnapshot, s: QubitState) -> QubitState:
    """Push a state through the affine map; never clamps.

    The image may violate positivity when the snapshot comes from the
    oscillatory regime; callers probe that with the returned state's
    ``is_valid()`` flag.  Trace is preserved exactly by construction.
    """
    return QubitState(*_affine_action(snap.lambda1, snap.lambda3, snap.t3, s))


@dataclass(frozen=True)
class TclRates:
    """Time-local decay rates in physical inverse-time units.

    gamma1 drives emission, gamma2 absorption, gamma3 extra dephasing.
    gamma1 / gamma2 = (N+1) / N identically (shared logarithmic derivative).
    """

    gamma1: float
    gamma2: float
    gamma3: float


def rate_divergence_time(kind, p: MapParams) -> float:
    """First dimensionless time at which the time-local rates blow up.

    Finite only for the memory-kernel family with 4R > 1, where the decay
    profile crosses zero at tau = 2 (pi - arctan q) / q, q = sqrt(4R - 1).
    The full-rate channel always crosses first.
    """
    kind = parse_kind(kind)
    if kind is EquationKind.POST_MARKOVIAN:
        return math.inf
    r = p.R
    if 4.0 * r <= 1.0:
        return math.inf
    q = math.sqrt(4.0 * r - 1.0)
    return 2.0 * (math.pi - math.atan(q)) / q


def _slope_terms(channel: _Channel, t):
    """(xi', xi) of one channel, or (xi'/xi, 1) where either is below the normal floats.

    Their quotient is the log-derivative everywhere.  Where xi, or xi' before
    its scaling by dtheta/dtau, has underflowed to 0 (or to a subnormal with
    few significant bits) the closed-form log-derivative replaces the
    quotient; every other point keeps it.  The scaled xi' is checked against
    tiny max(1, tscale), which covers both the scaled and the unscaled value.
    t is an array of at least one dimension.
    """
    x, d = channel.value(t), channel.derivative(t)
    floor = _NORMAL_MIN * max(1.0, channel.tscale)
    under = (np.abs(x) < _NORMAL_MIN) | (np.abs(d) < floor)
    if under.any():  # value and derivative return fresh arrays
        d[under] = channel.log_derivative(t[under])
        x[under] = 1.0
    return d, x


def _rate_pieces(full: _Channel, half: _Channel, p: MapParams, t):
    """(gamma1, gamma2, gamma3) from the channels of _channels, unchecked."""
    d_full, x_full = _slope_terms(full, t)
    d_half, x_half = _slope_terms(half, t)
    g = p.gamma
    # + 0.0 clears the negative zero the sign flip leaves at tau = 0
    shared = -g * (d_full / x_full) / (2.0 * p.n_occ + 1.0) + 0.0
    gamma1 = (p.n_occ + 1.0) * shared
    gamma2 = p.n_occ * shared
    gamma3 = 0.5 * g * (0.5 * d_full / x_full - d_half / x_half)
    return gamma1, gamma2, gamma3


def tcl_rates(kind, p: MapParams, tau: float) -> TclRates:
    """Rates of the exactly equivalent time-local master equation at tau.

    Populations relax with gamma1 + gamma2, coherences with
    (gamma1 + gamma2)/2 + 2 gamma3; both reproduce the closed-form map.
    Raises SingularRateError at or beyond the first zero of the profile.
    """
    return TclRates(*tcl_rate_arrays(kind, p, float(tau)))


def tcl_rate_arrays(kind, p: MapParams, taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized time-local rates over a tau grid (same guard as tcl_rates).

    A scalar tau gives three floats.
    """
    kind = parse_kind(kind)
    taus = _check_times(taus)
    horizon = rate_divergence_time(kind, p)
    if np.any(taus >= horizon):
        raise SingularRateError(
            f"time-local rates diverge at tau = {horizon:.9g} where the "
            f"population decay profile first crosses zero; got tau = "
            f"{float(np.max(taus)):.9g}"
        )
    rates = _rate_pieces(*_channels(kind, p.R), p, taus.reshape(-1))
    return tuple(_shaped(taus, rate.reshape(taus.shape)) for rate in rates)
