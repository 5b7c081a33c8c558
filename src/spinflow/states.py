"""Single-qubit state containers and the trace-distance metric.

A qubit density matrix is stored by its excited-state population
``p = <1|rho|1>`` and its coherence ``b = <1|rho|0>``; the remaining
entries follow from hermiticity and unit trace.  In the basis
``(|0>, |1>)`` the matrix is::

    rho = [[1 - p, conj(b)],
           [b,     p      ]]

For two qubit states the trace distance ``D = Tr|rho1 - rho2| / 2``
reduces to ``sqrt(a^2 + |db|^2)`` with ``a`` the population difference
and ``db`` the coherence difference, because the difference matrix is
traceless Hermitian with eigenvalues ``+/- sqrt(a^2 + |db|^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QubitState",
    "StatePair",
    "EXCITED",
    "GROUND",
    "MAXIMALLY_MIXED",
    "PLUS",
    "trace_distance",
    "state_from_bloch",
    "random_state",
    "random_states",
]

#: positivity / normalization slack used when validating states
DEFAULT_STATE_TOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """Qubit density matrix given by excited population and coherence."""

    population_e: float
    coherence: complex

    def matrix(self) -> np.ndarray:
        """Return the 2x2 density matrix in the (|0>, |1>) basis."""
        p = self.population_e
        b = complex(self.coherence)
        return np.array([[1.0 - p, b.conjugate()], [b, p]], dtype=complex)

    def bloch(self) -> tuple[float, float, float]:
        """Return the Bloch vector (x, y, z)."""
        b = complex(self.coherence)
        return (2.0 * b.real, 2.0 * b.imag, 2.0 * self.population_e - 1.0)

    def is_valid(self, tol: float = DEFAULT_STATE_TOL) -> bool:
        """True when populations lie in [0, 1] and rho >= 0, within tol."""
        p, b = self.population_e, complex(self.coherence)
        if not (np.isfinite(p) and np.isfinite(b)):
            return False
        # a part of b past 1 rules the state out before abs(b) ** 2, which
        # raises OverflowError for a huge b
        if p < -tol or p > 1.0 + tol or abs(b.real) > 1.0 or abs(b.imag) > 1.0:
            return False
        # det(rho) = p(1-p) - |b|^2 >= 0 is the qubit positivity test
        det = p * (1.0 - p) - abs(b) ** 2
        return det >= -tol


EXCITED = QubitState(1.0, 0.0 + 0.0j)
GROUND = QubitState(0.0, 0.0 + 0.0j)
MAXIMALLY_MIXED = QubitState(0.5, 0.0 + 0.0j)
PLUS = QubitState(0.5, 0.5 + 0.0j)


@dataclass(frozen=True)
class StatePair:
    """Ordered pair of qubit states probed by the information-flow measure.

    The channel differences ``a0`` (populations) and ``b0`` (coherences)
    are recomputed from the member states on every access so they can
    never go stale.
    """

    first: QubitState
    second: QubitState

    @property
    def a0(self) -> float:
        return self.first.population_e - self.second.population_e

    @property
    def b0(self) -> complex:
        return complex(self.first.coherence) - complex(self.second.coherence)

    def swapped(self) -> "StatePair":
        return StatePair(self.second, self.first)


def trace_distance(
    s1: QubitState,
    s2: QubitState,
    *,
    validate: bool = True,
    tol: float = DEFAULT_STATE_TOL,
) -> float:
    """Trace distance ``Tr|rho1 - rho2| / 2`` between two qubit states.

    Parameters
    ----------
    s1, s2:
        Input states.
    validate:
        When True (default) reject inputs that violate positivity or
        normalization beyond ``tol``.  No program code disables it; the
        tests' per-row references, which evolve states through
        deliberately non-positive maps, do.  The formula is well defined
        for any Hermitian pair.
    """
    if validate:
        for name, s in (("s1", s1), ("s2", s2)):
            if not s.is_valid(tol):
                raise ValueError(f"{name} is not a valid qubit state: {s!r}")
    a = s1.population_e - s2.population_e
    db = complex(s1.coherence) - complex(s2.coherence)
    return math.hypot(a, abs(db))


def state_from_bloch(x: float, y: float, z: float) -> QubitState:
    """Inverse of :meth:`QubitState.bloch`; does not validate the ball constraint."""
    return QubitState(0.5 * (1.0 + z), 0.5 * (x + 1j * y))


def random_state(rng: np.random.Generator) -> QubitState:
    """Draw a state uniformly from the Bloch ball."""
    v = rng.normal(size=3)
    norm = np.linalg.norm(v)
    if norm == 0.0:  # pragma: no cover - measure-zero draw
        return MAXIMALLY_MIXED
    radius = rng.uniform() ** (1.0 / 3.0)
    x, y, z = radius * v / norm
    return state_from_bloch(x, y, z)


def random_states(rng: np.random.Generator, n: int) -> list[QubitState]:
    return [random_state(rng) for _ in range(n)]
