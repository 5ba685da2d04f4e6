"""k-nearest-neighbor sets and simplex-constrained reconstruction weights.

Each point is written as a convex combination of its k nearest neighbors in
the raw feature space. The combination weights minimize the squared
reconstruction error over the probability simplex, a tiny box-plus-sum QP
on the neighbor Gram matrix; a graph solves all points' QPs in one batch.
A small ridge on the Gram diagonal keeps duplicate or collinear neighbors
from making the problem degenerate. Graphs are built once before training
and held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import ValidationError
from .qp_solver import QpProblem, solve

GRAM_RIDGE = 1e-8

_MAX_ITERS_PER_COORD = 100


@dataclass(frozen=True)
class NeighborGraph:
    """Per-point neighbor indices (n x k) and simplex coefficients (n x k)."""

    indices: np.ndarray
    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def dense_coefficients(self) -> np.ndarray:
        """The n x n matrix W with W[i, j] = coefficient of neighbor j for point i."""
        w = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), self.k)
        w[rows, self.indices.ravel()] = self.coeffs.ravel()
        return w

    def residual_vectors(self, points: np.ndarray) -> np.ndarray:
        """points[i] minus its coefficient-weighted neighbor combination."""
        points = np.asarray(points, dtype=float)
        recon = np.einsum("ik,ikm->im", self.coeffs, points[self.indices])
        return points - recon


def build_knn(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors of each point, self excluded.

    Neighbors are ordered by ascending Euclidean distance; exact distance
    ties break toward the smaller index.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-d matrix")
    if not np.all(np.isfinite(points)):
        raise ValidationError("non-finite feature value")
    n = points.shape[0]
    if not 1 <= k <= n - 1:
        raise ValidationError(f"k must satisfy 1 <= k <= n - 1, got k = {k}, n = {n}")
    indices = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        d = ((points - points[i]) ** 2).sum(axis=1)
        d[i] = np.inf
        indices[i] = np.argsort(d, kind="stable")[:k]
    return indices


def solve_reconstruction(x: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Simplex weights minimizing ||x - weights @ neighbors||^2.

    The per-point reference for ``build_graph``, which solves every point's
    problem in one batch.
    """
    x = np.asarray(x, dtype=float)
    neighbors = np.asarray(neighbors, dtype=float)
    if neighbors.ndim != 2 or x.shape != (neighbors.shape[1],):
        raise ValidationError("neighbor matrix must be k x m with m matching x")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(neighbors))):
        raise ValidationError("non-finite feature value")
    k = neighbors.shape[0]
    gram = neighbors @ neighbors.T
    problem = QpProblem(
        h=2.0 * (gram + GRAM_RIDGE * np.eye(k)),
        c=-2.0 * (neighbors @ x),
        lower=np.zeros(k),
        upper=np.ones(k),
        eq_sum=1.0,
    )
    return solve(problem)


def _kkt_tolerance(grad: np.ndarray, data_scale: np.ndarray) -> np.ndarray:
    """Per-row multiplier tolerance: the general QP solver's 1e-10 relative to
    the gradient, but never below the rounding noise of forming it from H
    and c, which dominates when a point lies inside its neighbors' hull."""
    return np.maximum(1e-10 * np.abs(grad).max(axis=1), 1e-12 * data_scale)


def _simplex_active_set(h: np.ndarray, c: np.ndarray):
    """Minimize 0.5 w'H[i]w + c[i]'w over the simplex for every row i at once.

    A primal active-set method (Nocedal & Wright, Numerical Optimization,
    16.5) run on all rows together: each iteration solves the bordered KKT
    systems of the unsolved rows in one stacked call, with identity rows for
    coordinates fixed at zero. A row whose step is blocked moves to the
    blocking bound and fixes it; otherwise it releases its most negative
    multiplier, or is solved once every multiplier is nonnegative.

    Returns (weights, solved). Rows left unsolved by a singular system or the
    iteration cap, or failing the final feasibility and KKT check, are
    marked False.
    """
    n, k = c.shape
    data_scale = np.maximum(1.0, np.maximum(np.abs(h).max(axis=(1, 2)),
                                            np.abs(c).max(axis=1)))
    w = np.full((n, k), 1.0 / k)
    fixed = np.zeros((n, k), dtype=bool)
    solved = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    eye = np.eye(k)
    for _ in range(_MAX_ITERS_PER_COORD * k):
        if not todo.size:
            break
        rows = np.arange(todo.size)
        hr, cr, wr, fr = h[todo], c[todo], w[todo], fixed[todo]
        free = ~fr
        kkt = np.zeros((todo.size, k + 1, k + 1))
        kkt[:, :k, :k] = np.where(free[:, :, None] & free[:, None, :], hr, eye)
        kkt[:, :k, k] = free
        kkt[:, k, :k] = free
        rhs = np.ones((todo.size, k + 1, 1))
        rhs[:, :k, 0] = np.where(free, -cr, 0.0)
        try:
            sol = np.linalg.solve(kkt, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            # drop the exactly singular systems (zero LU pivot) and go on
            singular = np.linalg.slogdet(kkt)[0] == 0.0
            if not singular.any():
                break
            todo = todo[~singular]
            continue
        target, nu = sol[:, :k], sol[:, k]
        step = target - wr
        # largest feasible fraction of the step before a coordinate hits zero
        shrinking = free & (step < 0.0)
        ratio = np.full((todo.size, k), np.inf)
        np.divide(wr, -step, out=ratio, where=shrinking)
        blocker = ratio.argmin(axis=1)
        alpha = ratio[rows, blocker]
        blocked = alpha < 1.0

        wr[blocked] += alpha[blocked, None] * step[blocked]
        wr[rows[blocked], blocker[blocked]] = 0.0
        fr[rows[blocked], blocker[blocked]] = True

        at_min = ~blocked
        wr[at_min] = target[at_min]
        grad = np.einsum("iab,ib->ia", hr, wr) + cr
        multipliers = np.where(fr, grad + nu[:, None], np.inf)
        worst = multipliers.argmin(axis=1)
        release = at_min & (multipliers[rows, worst]
                             < -_kkt_tolerance(grad, data_scale[todo]))
        fr[rows[release], worst[release]] = False

        w[todo], fixed[todo] = wr, fr
        done = at_min & ~release
        solved[todo[done]] = True
        todo = todo[~done]

    # final check, independent of the solves' multiplier estimates
    grad = np.einsum("iab,ib->ia", h, w) + c
    free = ~fixed
    nu = -np.where(free, grad, 0.0).sum(axis=1) / free.sum(axis=1)
    shifted = grad + nu[:, None]
    resid = np.where(free, np.abs(shifted), np.maximum(0.0, -shifted)).max(axis=1)
    solved &= np.isfinite(resid) & (resid <= _kkt_tolerance(grad, data_scale))
    solved &= (w.min(axis=1) >= 0.0) & (np.abs(w.sum(axis=1) - 1.0) <= 1e-8)
    return w, solved


def build_graph(points: np.ndarray, k: int) -> NeighborGraph:
    """Neighbor sets plus reconstruction coefficients for every point.

    All points' simplex problems are solved in one batch; a point the batch
    leaves unsolved (an exactly singular KKT system, or a failed final
    check) is handed to ``solve_reconstruction``.
    """
    points = np.asarray(points, dtype=float)
    indices = build_knn(points, k)
    neighbors = points[indices]
    gram = np.einsum("iam,ibm->iab", neighbors, neighbors)
    h = 2.0 * (gram + GRAM_RIDGE * np.eye(k))
    c = -2.0 * np.einsum("iam,im->ia", neighbors, points)
    coeffs, solved = _simplex_active_set(h, c)
    for i in np.flatnonzero(~solved):
        coeffs[i] = solve_reconstruction(points[i], neighbors[i])
    return NeighborGraph(indices=indices, coeffs=coeffs)
