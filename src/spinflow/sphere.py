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


def _normalized(m: np.ndarray) -> np.ndarray:
    """Rows of m divided by their norms, bit for bit as np.linalg.norm row by row.

    np.linalg.norm of a vector is sqrt(v.dot(v)); the batched product below
    rounds the same way, where einsum or norm(axis=1) differ in the last bit.
    """
    return m / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]


def icosphere(subdivisions: int) -> np.ndarray:
    """Unit vectors of a subdivided icosahedron: 10 * 4**s + 2 vertices.

    Construction order is fixed, so the grid is identical across runs.  Each
    level splits every face (a, b, c) at the midpoints of ab, bc and ca, taken
    face by face; a midpoint is numbered where its edge first occurs, and the
    children are (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca).
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    verts = _normalized(np.array(_ICO_VERTS, dtype=float))
    faces = np.array(_ICO_FACES, dtype=np.intp)
    for _ in range(subdivisions):
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        lo, hi = np.sort(edges, axis=1).T
        _, first, inverse = np.unique(
            lo * len(verts) + hi, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.argsort(order)  # of each distinct edge, in first-occurrence order
        ends = edges[first[order]]
        mids = len(verts) + rank[inverse].reshape(-1, 3)
        verts = np.concatenate((verts, _normalized(verts[ends[:, 0]] + verts[ends[:, 1]])))
        (a, b, c), (ab, bc, ca) = faces.T, mids.T
        faces = np.stack(
            (a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca), axis=1
        ).reshape(-1, 3)
    return verts


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
    project,
    step: float = 0.25,
    min_step: float = 1e-6,
):
    """Coordinate-wise +- probing that maximizes `objective`.

    Returns (best_x, best_value, evaluations).  `project` maps x0 and every
    trial point back into the feasible set.  The step halves after a sweep
    that finds nothing better.  Deterministic probe order.
    """
    x = project(np.array(x0, dtype=float))
    best = objective(x)
    evals = 1
    while step >= min_step:
        improved = False
        for i in range(x.size):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sign * step
                trial = project(trial)
                val = objective(trial)
                evals += 1
                if val > best:
                    x, best = trial, val
                    improved = True
        if not improved:
            step *= 0.5
    return x, best, evals
