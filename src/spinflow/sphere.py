"""Deterministic unit-sphere grids and a small pattern-search refiner."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["icosphere", "sphere_grid", "pattern_search", "MAX_VERTICES"]

#: vertices of the densest grid sphere_grid builds (7 subdivisions)
MAX_VERTICES = 10 * 4**7 + 2

_PHI = (1.0 + 5.0**0.5) / 2.0

_ICO_VERTS = [
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
]

_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivisions: int) -> np.ndarray:
    """Unit vectors of a subdivided icosahedron: 10 * 4**s + 2 vertices.

    Construction order is fixed, so the grid is identical across runs.
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = list(_ICO_FACES)
    for _ in range(subdivisions):
        midpoint_cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            idx = midpoint_cache.get(key)
            if idx is None:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                idx = len(verts) - 1
                midpoint_cache[key] = idx
            return idx

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts)


def sphere_grid(min_vertices: int) -> np.ndarray:
    """Smallest icosphere with at least min_vertices points, at most MAX_VERTICES.

    The grid is built once per subdivision level and shared: the returned
    array is read-only.
    """
    if min_vertices > MAX_VERTICES:
        raise ValueError(f"min_vertices must be <= {MAX_VERTICES}, got {min_vertices}")
    level = 0
    while 10 * 4**level + 2 < min_vertices:
        level += 1
    return _shared_icosphere(level)


@functools.lru_cache(maxsize=8)
def _shared_icosphere(level: int) -> np.ndarray:
    verts = icosphere(level)
    verts.setflags(write=False)
    return verts


def pattern_search(
    objective,
    x0: np.ndarray,
    *,
    project=None,
    step: float = 0.25,
    shrink: float = 0.5,
    min_step: float = 1e-6,
    max_evals: int | None = None,
):
    """Coordinate-wise +- probing that maximizes `objective`.

    Returns (best_x, best_value, evaluations).  `project` maps trial points
    back into the feasible set.  Deterministic probe order.
    """
    x = np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    best = objective(x)
    evals = 1
    while step >= min_step:
        improved = False
        for i in range(x.size):
            for sign in (1.0, -1.0):
                if max_evals is not None and evals >= max_evals:
                    return x, best, evals
                trial = x.copy()
                trial[i] += sign * step
                if project is not None:
                    trial = project(trial)
                val = objective(trial)
                evals += 1
                if val > best:
                    x, best = trial, val
                    improved = True
        if not improved:
            step *= shrink
    return x, best, evals
