"""Test-side references for one point's simplex reconstruction.

``reconstruction_problem`` forms the QP that ``build_graph`` solves for a
point x with neighbors N (k x m): minimize 0.5 w'Hw + c'w over the simplex,
with H = 2 (N N' + GRAM_RIDGE I) and c = -2 N x. ``exhaustive_weights``
solves it by enumerating supports: one bordered KKT solve per nonempty
support, singular or infeasible supports skipped, the best objective taken.
``batch_row_weights`` runs the graph's own batch solve on that one row.
"""

import itertools

import numpy as np

from subadapt.neighborhood import GRAM_RIDGE, _simplex_active_set


def reconstruction_problem(x, neighbors):
    """(H, c) of the point's reconstruction QP."""
    x = np.asarray(x, dtype=float)
    neighbors = np.asarray(neighbors, dtype=float)
    h = 2.0 * (neighbors @ neighbors.T + GRAM_RIDGE * np.eye(neighbors.shape[0]))
    return h, -2.0 * (neighbors @ x)


def reconstruction_objective(x, neighbors, weights):
    """The QP objective at ``weights``, and its Hessian's scale max|H|."""
    h, c = reconstruction_problem(x, neighbors)
    return 0.5 * weights @ h @ weights + c @ weights, np.abs(h).max()


def _support_solutions(h, c, masks):
    """The KKT point of each support in ``masks`` (rows of a bool array),
    with identity rows fixing the coordinates outside it at zero; NaN rows
    for the supports whose systems are exactly singular."""
    k = c.size
    kkt = np.zeros((masks.shape[0], k + 1, k + 1))
    kkt[:, :k, :k] = np.where(masks[:, :, None] & masks[:, None, :], h, np.eye(k))
    kkt[:, :k, k] = masks
    kkt[:, k, :k] = masks
    rhs = np.ones((masks.shape[0], k + 1))
    rhs[:, :k] = np.where(masks, -c, 0.0)
    try:
        return np.linalg.solve(kkt, rhs[:, :, None])[:, :k, 0]
    except np.linalg.LinAlgError:
        out = np.full((masks.shape[0], k), np.nan)
        for s in range(masks.shape[0]):
            try:
                out[s] = np.linalg.solve(kkt[s], rhs[s])[:k]
            except np.linalg.LinAlgError:
                pass
        return out


def exhaustive_weights(x, neighbors):
    """The simplex weights of least objective among the KKT points of every
    nonempty support that solve to a feasible point."""
    h, c = reconstruction_problem(x, neighbors)
    k = c.size
    masks = np.array([[j in support for j in range(k)]
                      for size in range(1, k + 1)
                      for support in itertools.combinations(range(k), size)])
    with np.errstate(over="ignore", invalid="ignore"):
        w = _support_solutions(h, c, masks)
        feasible = np.isfinite(w).all(axis=1) & (w.min(axis=1) >= 0.0)
        w = w[feasible]
        values = 0.5 * np.einsum("sa,ab,sb->s", w, h, w) + w @ c
    return w[int(np.argmin(values))]


def batch_row_weights(x, neighbors):
    """The graph's batch solve on the point's problem alone; asserts that
    the batch solved it."""
    h, c = reconstruction_problem(x, neighbors)
    weights, solved = _simplex_active_set(h[None], c[None])
    assert solved[0]
    return weights[0]
