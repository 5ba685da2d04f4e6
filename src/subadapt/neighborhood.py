"""k-nearest-neighbor sets and simplex-constrained reconstruction weights.

Each point is written as a convex combination of its k nearest neighbors in
the raw feature space. The combination weights minimize the squared
reconstruction error over the probability simplex, a tiny box-plus-sum QP
on the neighbor Gram matrix; a graph solves all points' QPs in one batch.
A small ridge on the Gram diagonal keeps duplicate or collinear neighbors
from making the problem degenerate. Graphs are built once before training
and held fixed.

The neighbor search is exact and blocked: each block of rows takes its
squared distances in Gram form from one matrix product, keeps as candidates
every point within a rigorous rounding bound of its k-th smallest, and
ranks the candidates on the reference's own distance expression, so ties
and indices match the per-row ``_knn_reference`` bit for bit. Rows whose
distances could overflow, or that keep too many tied candidates, take the
per-row reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import ValidationError
from .qp_solver import QpProblem, solve

GRAM_RIDGE = 1e-8

_MAX_ITERS_PER_COORD = 100

# rows per screened kNN block; at n = 800 the search time is flat from 16 to
# 128 rows, and a block's distance matrix (rows x n) stays small
_KNN_BLOCK_ROWS = 128


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

    def residual_vectors(self, points: np.ndarray) -> np.ndarray:
        """points[i] minus its coefficient-weighted neighbor combination."""
        points = np.asarray(points, dtype=float)
        recon = np.einsum("ik,ikm->im", self.coeffs, points[self.indices])
        return points - recon


def build_knn(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors of each point, self excluded.

    Neighbors are ordered by ascending Euclidean distance; exact distance
    ties break toward the smaller index. Raises ``ValidationError`` when a
    squared distance overflows float64.

    The search is exact: every row's answer has the bits of ``_knn_reference``.
    Blocks of rows screen candidates on Gram-form distances and rank the
    survivors on the reference's own distance expression; rows that could
    overflow or keep too many candidates take the reference loop.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-d matrix")
    if not np.all(np.isfinite(points)):
        raise ValidationError("non-finite feature value")
    n, m = points.shape
    if not 1 <= k <= n - 1:
        raise ValidationError(f"k must satisfy 1 <= k <= n - 1, got k = {k}, n = {n}")
    # Error bound, for u = 2^-53 and gamma_j = j*u / (1 - j*u), any summation
    # order and with or without FMA (Higham, Accuracy and Stability of
    # Numerical Algorithms, 3.1 and 3.5). With S = |x_i|^2 + |x_j|^2 and the
    # exact squared distance d <= 2S:
    #   reference ((x_j - x_i)**2).sum(): m nonnegative terms, each rounded
    #     three times, so |ref - d| <= gamma_{m+2} d <= 2 gamma_{m+2} S;
    #   Gram form fl(fl(sq_i + sq_j) - 2 G_ij): |sq_i - |x_i|^2| <= gamma_m
    #     |x_i|^2, |G_ij - x_i.x_j| <= gamma_m S / 2, so
    #     |gram - d| <= 2 gamma_{m+2} S.
    # Hence |gram - ref| <= 4 gamma_{m+2} (|x_i|^2 + max_j |x_j|^2). delta_i
    # is twice that bound on the computed sq, a factor that covers
    # sq >= |x|^2 (1 - gamma_m) and the rounding of delta and of the
    # threshold; its subnormal floor covers gradual underflow (each rounded
    # product may lose up to 2^-1075 outright).
    # Screening: k points have gram <= gram_kth, so ref_kth <= gram_kth +
    # delta_i, and each of the reference's k nearest j has
    # gram_ij <= ref_ij + delta_i <= ref_kth + delta_i <= gram_kth + 2 delta_i:
    # the candidates hold the whole answer and every tie at its k-th
    # distance. A row with S <= max/4 cannot overflow in either form.
    u = np.finfo(float).eps / 2
    gamma = (m + 2) * u / (1.0 - (m + 2) * u)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", points, points)
        scale = sq + sq.max()
        delta = 8.0 * gamma * scale + 8.0 * (m + 2) * np.finfo(float).smallest_subnormal
    safe = scale <= np.finfo(float).max / 4
    cap = 4 * k + 32
    indices = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, _KNN_BLOCK_ROWS):
        stop = min(start + _KNN_BLOCK_ROWS, n)
        block = np.arange(start, stop)
        with np.errstate(over="ignore", invalid="ignore"):
            approx = sq[start:stop, None] + sq - 2.0 * (points[start:stop] @ points.T)
            approx[block - start, block] = np.inf
            kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
            keep = approx <= (kth + 2.0 * delta[start:stop])[:, None]
        counts = keep.sum(axis=1)
        screened = safe[start:stop] & (counts <= cap)
        rows, cols = np.nonzero(keep[screened])
        dist = ((points[cols] - points[block[screened][rows]]) ** 2).sum(axis=1)
        # rows ascend, and columns ascend within a row: a stable sort by
        # distance leaves ties in index order, as the reference does
        order = np.lexsort((dist, rows))
        first = np.cumsum(counts[screened]) - counts[screened]
        indices[block[screened]] = cols[order[first[:, None] + np.arange(k)]]
        fallback = block[~screened]
        if fallback.size:
            indices[fallback] = _knn_reference(points, k, fallback)
    return indices


def _knn_reference(points: np.ndarray, k: int, rows) -> np.ndarray:
    """The per-row reference for ``build_knn``: the k nearest neighbors of
    each point in ``rows`` by a full stable sort of its distances."""
    indices = np.empty((len(rows), k), dtype=np.int64)
    for out, i in enumerate(rows):
        with np.errstate(over="ignore"):
            d = ((points - points[i]) ** 2).sum(axis=1)
        if not np.isfinite(d).all():
            raise ValidationError(
                f"squared distance from point {i} overflows float64; rescale the features")
        d[i] = np.inf
        indices[out] = np.argsort(d, kind="stable")[:k]
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
    check) is handed to ``solve_reconstruction``. Raises ``ValidationError``
    when a point's neighbor Gram overflows float64.
    """
    points = np.asarray(points, dtype=float)
    indices = build_knn(points, k)
    neighbors = points[indices]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.einsum("iam,ibm->iab", neighbors, neighbors)
        h = 2.0 * (gram + GRAM_RIDGE * np.eye(k))
        c = -2.0 * np.einsum("iam,im->ia", neighbors, points)
    overflow = ~(np.isfinite(h).all(axis=(1, 2)) & np.isfinite(c).all(axis=1))
    if overflow.any():
        raise ValidationError(f"neighbor Gram of point {np.flatnonzero(overflow)[0]} "
                              "overflows float64; rescale the features")
    coeffs, solved = _simplex_active_set(h, c)
    for i in np.flatnonzero(~solved):
        coeffs[i] = solve_reconstruction(points[i], neighbors[i])
    return NeighborGraph(indices=indices, coeffs=coeffs)
