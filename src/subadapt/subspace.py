"""Projection updates: trace minimization under orthonormality, the
closed-form shared-classifier step, and subspace mean embeddings.

The projection block reduces to minimizing Tr(T P T') over row-orthonormal
T, where P combines a negated outer product of the summed classifier
vectors with the outer product of the weighted source/target mean gap. The
minimizer is the set of eigenvectors for the r algebraically smallest
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DatasetPair, Hyperparams, ValidationError

# matrices whose spectrum lies entirely within this band count as zero
DEGENERATE_EIG_TOL = 1e-12


@dataclass(frozen=True)
class MeanEmbeddings:
    """Target mean and weighted source mean in the subspace.

    ``mu_s_pi`` equals ``theta @ raw_mean_difference(pair, pi) + mu_t``.
    """

    mu_t: np.ndarray
    mu_s_pi: np.ndarray


def raw_mean_difference(pair: DatasetPair, pi: np.ndarray) -> np.ndarray:
    """Weighted source mean minus target mean, in the original feature space."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (pair.n1,):
        raise ValidationError("pi length does not match the source set")
    return (pair.source_x.T @ pi) / pair.n1 - pair.target_x.mean(axis=0)


def projected_means(theta: np.ndarray, pair: DatasetPair, pi: np.ndarray) -> MeanEmbeddings:
    """Target mean and weighted source mean in the current subspace."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != pair.m:
        raise ValidationError("theta columns do not match the feature dimension")
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (pair.n1,):
        raise ValidationError("pi length does not match the source set")
    source_proj = pair.source_x @ theta.T
    target_proj = pair.target_x @ theta.T
    return MeanEmbeddings(mu_t=target_proj.mean(axis=0),
                          mu_s_pi=(source_proj.T @ pi) / pair.n1)


def build_phi(phi_vec, varphi_vec, pi, pair: DatasetPair, hp: Hyperparams) -> np.ndarray:
    """The symmetric m x m matrix whose trace form drives the projection step."""
    phi_vec = np.asarray(phi_vec, dtype=float)
    varphi_vec = np.asarray(varphi_vec, dtype=float)
    if phi_vec.shape != (pair.m,) or varphi_vec.shape != (pair.m,):
        raise ValidationError("classifier vectors do not match the feature dimension")
    s = phi_vec + varphi_vec
    d = raw_mean_difference(pair, pi)
    return -(hp.c1 / 4.0) * np.outer(s, s) + (hp.c3 / 2.0) * np.outer(d, d)


def _canonical_rows(vals: np.ndarray, vecs: np.ndarray):
    """Sign-fix eigenvector rows and order ties by first-nonzero index."""
    rows = vecs.T.copy()
    mags = np.abs(rows)
    above = mags > 1e-12 * np.maximum(mags.max(axis=1), 1e-300)[:, None]
    first_nonzero = above.argmax(axis=1)  # 0 for a row with no entry above
    flip = rows[np.arange(rows.shape[0]), first_nonzero] < 0
    rows[flip] = -rows[flip]
    tie_tol = 1e-12 * max(1.0, float(np.abs(vals).max(initial=0.0)))
    order = np.arange(rows.shape[0])
    start = 0
    while start < len(vals):
        stop = start + 1
        while stop < len(vals) and abs(vals[stop] - vals[start]) <= tie_tol:
            stop += 1
        if stop - start > 1:
            group = order[start:stop]
            order[start:stop] = group[np.argsort(first_nonzero[group], kind="stable")]
        start = stop
    return vals[order], rows[order]


def update_theta(phi_mat: np.ndarray, r: int, prev_theta=None) -> np.ndarray:
    """Row-orthonormal r x m minimizer of the trace form.

    Rows are the eigenvectors of the r algebraically smallest eigenvalues in
    ascending order, each with its first nonzero component made positive.
    When the whole spectrum is numerically zero any orthonormal matrix is
    optimal, so the previous projection is kept if one is supplied; it must
    be a finite r x m matrix with rows orthonormal within 1e-10.
    """
    phi_mat = np.asarray(phi_mat, dtype=float)
    m = phi_mat.shape[0]
    if phi_mat.shape != (m, m):
        raise ValidationError("phi matrix must be square")
    if not np.all(np.isfinite(phi_mat)):
        raise ValidationError("non-finite phi matrix")
    if not 1 <= r <= m:
        raise ValidationError(f"r must satisfy 1 <= r <= m, got r = {r}")
    if prev_theta is not None:
        prev_theta = np.array(prev_theta, dtype=float)
        if not (prev_theta.shape == (r, m) and np.isfinite(prev_theta).all()
                and np.abs(prev_theta @ prev_theta.T - np.eye(r)).max() <= 1e-10):
            raise ValidationError("prev_theta must be a finite r x m matrix "
                                  "with rows orthonormal within 1e-10")
    vals, vecs = np.linalg.eigh(0.5 * (phi_mat + phi_mat.T))
    if prev_theta is not None and np.abs(vals).max(initial=0.0) <= DEGENERATE_EIG_TOL:
        return prev_theta
    vals, rows = _canonical_rows(vals, vecs)
    return rows[:r]


def update_w(theta: np.ndarray, phi_vec: np.ndarray, varphi_vec: np.ndarray) -> np.ndarray:
    """Closed-form shared classifier: w = 0.5 * theta @ (phi + varphi)."""
    theta = np.asarray(theta, dtype=float)
    phi_vec = np.asarray(phi_vec, dtype=float)
    varphi_vec = np.asarray(varphi_vec, dtype=float)
    if phi_vec.shape != (theta.shape[1],) or varphi_vec.shape != (theta.shape[1],):
        raise ValidationError("classifier vectors do not match theta columns")
    return 0.5 * theta @ (phi_vec + varphi_vec)
