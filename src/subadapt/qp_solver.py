"""Convex quadratic programs with box bounds and one sum constraint.

    minimize    0.5 * x'Hx + c'x
    subject to  lower <= x <= upper,   sum(x) = eq_sum

A primal active-set method fixes variables at their bounds and solves the
remaining equality-constrained subproblem through a bordered KKT system.
H is either a dense symmetric PSD matrix, checked on every solve, or a
``GramHessian`` H0 + b G'G: a ``ReconstructionHessian`` H0 = a R'R
(R = I - W, with k entries per row of W) plus a rank-r Gram term over
H0's features F (G = coef F'), both held in factored form, symmetric PSD
by construction, whose products cost O(nk + nr). H0 is the part of the
weight step's Hessian fixed for a whole fit, so it is checked once and
carries its KKT basis: the inverse M0 of the all-free bordered KKT matrix
K0 of H0, held as the lower Cholesky factor L of S = H0 + alpha 11'
(``KktBasis``), formed at the fit's first Schur step and kept. Each step
then comes from a small Schur complement against M0, bordered by the
rank-r term b G'G (q = r columns) and the fixed set, and verified against
H itself (Gill, Murray, Saunders & Wright 1990, "A Schur-complement
method for sparse quadratic programming"). The columns of M0 that the
steps read are triangular solves with L: M0 F once per fit (M0 G' is
M0 F coef'), M0 [-c; eq_sum] once per QP, and the column of each fixed
index once per fit, the first time that index is fixed. The step's
all-free solution M0 b is read off M0 [H0 x; 1'x] = [x; 0], so a step
solves nothing new unless its fixed set holds a new index; a step that
fails verification is solved from the dense free-set system instead.
Singular reduced Hessians (PSD but rank deficient, including H = 0) fall
back to an eigendecomposition of the reduced Hessian and follow
directions of linear descent until a bound blocks; the feasible set is
compact, so a blocking bound always exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_model import NumericError, ValidationError

# Reject H only when its smallest eigenvalue is below -PSD_EIG_TOL times
# max(1, max|H|); smaller negative curvature is rounding noise from assembling
# sums of outer products, and that noise grows with the entries of H.
PSD_EIG_TOL = 1e-8

# A KKT basis is built only when the infinity-norm condition number of its
# bordered matrix stays below this bound.
BASIS_COND_LIMIT = 1e8

_MAX_ITERS_PER_VAR = 100

# Rows per diagonal block of L in the KKT basis's triangular solves: numpy
# has no triangular solve, so each block is one GEMM panel against the
# solved part plus a product with the block's inverse, formed once per fit.
# Dense n x n scans go by row panels of the same height.
_SOLVE_BLOCK = 64


class ReconstructionHessian:
    """H0 = a R'R with R = I - W: the fixed part of every weight QP of a fit.

    Row i of W holds ``coeffs[i]`` at the columns ``indices[i]`` (both
    n x k), and a >= 0. ``features`` F (n x m) spans the rows of the rank-r
    terms G = coef F' that ``GramHessian`` pairs with H0. The constructor
    checks these factors. ``dense`` forms a block of H0 as a new array and
    keeps none; the ``KktBasis`` ``basis`` (None when K0 is singular or
    ill-conditioned) is formed on first use and kept, so a fit whose QPs
    take no Schur step keeps no n x n array. Neither forms W. ``@`` applies
    H0 in O(nk), and ``h0_diagonal`` is H0's diagonal, in O(nk^2).
    """

    def __init__(self, indices, coeffs, a, features):
        indices = np.asarray(indices)
        coeffs = np.asarray(coeffs, dtype=float)
        n = indices.shape[0] if indices.ndim == 2 else -1
        if n < 0 or coeffs.shape != indices.shape:
            raise ValidationError("Gram Hessian factors have mismatched shapes")
        if not np.issubdtype(indices.dtype, np.integer) or \
                (indices.size and not 0 <= indices.min() <= indices.max() < n):
            raise ValidationError("Gram Hessian column index out of range")
        if not np.isfinite(coeffs).all():
            raise ValidationError("Gram Hessian factors contain non-finite entries")
        a = float(a)
        if not 0.0 <= a < np.inf:
            raise ValidationError("Gram Hessian scales must be finite and nonnegative")
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[0] != n:
            raise ValidationError("Gram Hessian factors have mismatched shapes")
        if not np.isfinite(features).all():
            raise ValidationError("Gram Hessian factors contain non-finite entries")
        self.n = n
        self.shape = (n, n)
        self.indices = indices
        self.coeffs = coeffs
        self.a = a
        self.features = features
        self._flat_indices = indices.ravel()

    @cached_property
    def _gram_terms(self):
        """(rows, columns, values) of every term of
        R'R = I - W - W' + W'W, the last as sum_i W_ij W_il over the pairs
        of row i: O(nk^2) terms, with no dense W."""
        n, k = self.indices.shape
        rows = np.repeat(np.arange(n), k)
        cols = self._flat_indices
        c = self.coeffs.ravel()
        pair_rows = np.repeat(cols, k)
        pair_cols = np.repeat(self.indices, k, axis=0).ravel()
        pair_vals = (self.coeffs[:, :, None] * self.coeffs[:, None, :]).ravel()
        diag = np.arange(n)
        return (np.concatenate([diag, rows, cols, pair_rows]),
                np.concatenate([diag, cols, rows, pair_cols]),
                np.concatenate([np.ones(n), -c, -c, pair_vals]))

    def dense(self, idx=None) -> np.ndarray:
        """H0[idx, idx] (all of H0 when idx is None) for distinct indices
        idx, as a new array: the terms inside idx x idx scattered by one
        bincount, which sums each entry's terms in H0's order, bit for bit."""
        rows, cols, values = self._gram_terms
        size = self.n if idx is None else len(idx)
        if idx is not None:
            local = np.full(self.n, -1)
            local[idx] = np.arange(size)
            rows, cols = local[rows], local[cols]
            inside = (rows >= 0) & (cols >= 0)
            rows, cols, values = rows[inside], cols[inside], values[inside]
        block = self.a * np.bincount(rows * size + cols, values, minlength=size * size)
        return block.reshape(size, size)

    @cached_property
    def h0_diagonal(self) -> np.ndarray:
        rows, cols, values = self._gram_terms
        on_diag = rows == cols
        return self.a * np.bincount(rows[on_diag], values[on_diag], minlength=self.n)

    @cached_property
    def basis(self) -> KktBasis | None:
        return kkt_basis(self.dense())

    @cached_property
    def feature_columns(self) -> np.ndarray:
        """M0 [F; 0] for the features F: formed once per fit."""
        return self.basis.solve(np.vstack([self.features, np.zeros(self.features.shape[1])]))

    def residual(self, v) -> np.ndarray:
        """R v, in O(nk)."""
        v = np.asarray(v, dtype=float)
        return v - np.einsum("ik,ik->i", self.coeffs, v[self.indices])

    def __matmul__(self, v) -> np.ndarray:
        """H0 v, in O(nk)."""
        rv = self.residual(v)
        rtrv = rv - np.bincount(self._flat_indices, (self.coeffs * rv[:, None]).ravel(),
                                minlength=self.n)
        return self.a * rtrv


class KktBasis:
    """The inverse M0 of the all-free bordered KKT matrix
    K0 = [[H0, 1], [1', 0]], held as the lower Cholesky factor L of the
    symmetric positive definite S = H0 + alpha 11' (alpha > 0).

    Adding alpha 1 times the sum row to the first n rows turns K0 into
    [[S, 1], [1', 0]], so with w = S^-1 1 and s = 1'w,
    M0 = [[S^-1 - w w'/s, w/s], [w'/s, alpha - 1/s]] (w = 1/(alpha n) and
    s = 1/alpha when H0 1 = 0). ``solve`` applies M0 by blocked forward and
    back substitution with L; ``columns`` keeps each column it solves.
    """

    def __init__(self, chol: np.ndarray, alpha: float):
        n = chol.shape[0]
        self.n = n
        self._chol = chol
        self._alpha = alpha
        self._blocks = [(i, min(i + _SOLVE_BLOCK, n)) for i in range(0, n, _SOLVE_BLOCK)]
        self._block_inverses = [np.linalg.inv(chol[i:j, i:j]) for i, j in self._blocks]
        self._w = self._s_solve(np.ones(n))
        self._s = float(self._w.sum())
        self._kept = {}  # index -> M0's column there, once solved

    def _s_solve(self, rhs) -> np.ndarray:
        """S^-1 rhs for an n-vector or n x k panel."""
        y = np.array(rhs, dtype=float)
        chol = self._chol
        for (i, j), inverse in zip(self._blocks, self._block_inverses):
            if i:
                y[i:j] -= chol[i:j, :i] @ y[:i]
            y[i:j] = inverse @ y[i:j]
        for (i, j), inverse in zip(reversed(self._blocks), reversed(self._block_inverses)):
            if j < self.n:
                y[i:j] -= chol[j:, i:j].T @ y[j:]
            y[i:j] = inverse.T @ y[i:j]
        return y

    def solve(self, rhs) -> np.ndarray:
        """M0 rhs for an (n + 1)-vector or (n + 1) x k panel."""
        rhs = np.asarray(rhs, dtype=float)
        n = self.n
        t = (self._w @ rhs[:n] - rhs[n]) / self._s
        out = np.empty(rhs.shape)
        out[:n] = self._s_solve(rhs[:n]) - np.multiply.outer(self._w, t)
        out[n] = t + self._alpha * rhs[n]
        return out

    def columns(self, idx) -> np.ndarray:
        """M0's columns at the indices idx (all below n), as the rows of a
        |idx| x (n + 1) array. Each column is solved the first time it is
        asked for and kept for the life of the basis."""
        new = [j for j in dict.fromkeys(idx.tolist()) if j not in self._kept]
        if new:
            units = np.zeros((self.n + 1, len(new)))
            units[new, np.arange(len(new))] = 1.0
            self._kept.update(zip(new, np.ascontiguousarray(self.solve(units).T)))
        return np.array([self._kept[j] for j in idx.tolist()]).reshape(idx.size, self.n + 1)


def _norm1_estimate(apply, size: int) -> float:
    """A lower estimate of the 1-norm of a symmetric linear map of R^size
    from a few products (Hager 1984, with Higham's 1988 extra test
    vector); it is nearly always within a factor of 3 of the norm."""
    x = np.full(size, 1.0 / size)
    estimate = 0.0
    for _ in range(5):
        y = apply(x)
        value = float(np.abs(y).sum())
        if value <= estimate:
            break
        estimate = value
        z = apply(np.where(y >= 0.0, 1.0, -1.0))  # the map is its own transpose
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(size)
        x[j] = 1.0
    alternating = np.where(np.arange(size) % 2, -1.0, 1.0) * (1.0 + np.arange(size) / (size - 1))
    return max(estimate, 2.0 * float(np.abs(apply(alternating)).sum()) / (3.0 * size))


def kkt_basis(h0: np.ndarray) -> KktBasis | None:
    """The KKT basis of the symmetric PSD float array H0, which it
    overwrites with S = H0 + alpha 11' (a copy would cost the fit a second
    n x n array): M0 = K0^-1 for K0 = [[H0, 1], [1', 0]], or None when S is
    not positive definite (exactly when K0 is singular) or the
    infinity-norm condition number of K0, with ||M0|| estimated, exceeds
    BASIS_COND_LIMIT."""
    n = h0.shape[0]
    # ||K0||_inf, row panel by row panel, so that no second n x n array is
    # formed; S's eigenvalue on 1 is alpha n, here H0's mean eigenvalue
    # (alpha = 1 put it far above H0's spectrum and cost S a tenfold
    # condition number). An overflowed norm refuses the basis.
    with np.errstate(over="ignore"):
        h0_norm = max((float(np.abs(h0[i:i + _SOLVE_BLOCK]).sum(axis=1).max())
                       for i in range(0, n, _SOLVE_BLOCK)), default=0.0)
        alpha = float(np.trace(h0)) / n ** 2
    k0_norm = max(float(n), h0_norm + 1.0)
    if not k0_norm < np.inf:
        return None
    h0 += alpha
    try:
        chol = np.linalg.cholesky(h0)
    except np.linalg.LinAlgError:
        return None
    # M0 is symmetric, so its 1-norm is its infinity norm; an underestimate
    # is caught where every step is verified against H. A nearly singular S
    # can overflow the solves, and a non-finite estimate refuses the basis.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        basis = KktBasis(chol, alpha)
        cond = k0_norm * _norm1_estimate(basis.solve, n + 1)
    return basis if cond <= BASIS_COND_LIMIT else None


class GramHessian:
    """H = H0 + b G'G: a fit's ``ReconstructionHessian`` H0 plus a rank-r
    Gram term over its features F, G = coef F' (``gamma``, r x n) with
    coef r x m and b >= 0.

    ``diagonal`` reads H0's sparse diagonal, ``dense`` forms a block of H
    from H0's block and G's columns, and ``basis`` is H0's KKT basis, with
    which ``solve`` takes Schur steps that read M0 G' off the fit's M0 F.
    H0 checked its own factors and the constructor checks coef, G and b,
    so H is symmetric PSD by construction and ``solve`` runs no symmetry
    scan or PSD check on it.
    """

    def __init__(self, fixed: ReconstructionHessian, coef, b):
        coef = np.asarray(coef, dtype=float)
        if coef.ndim != 2 or coef.shape[1] != fixed.features.shape[1]:
            raise ValidationError("Gram Hessian factors have mismatched shapes")
        gamma = coef @ fixed.features.T
        if not np.isfinite(gamma).all():
            raise ValidationError("Gram Hessian factors contain non-finite entries")
        b = float(b)
        if not 0.0 <= b < np.inf:
            raise ValidationError("Gram Hessian scales must be finite and nonnegative")
        self.shape = fixed.shape
        self.fixed = fixed
        self.coef = coef
        self.gamma = gamma
        self.b = b

    @property
    def basis(self) -> KktBasis | None:
        return self.fixed.basis

    def __matmul__(self, v) -> np.ndarray:
        """H v for a vector v, in O(nk + nr)."""
        return self.fixed @ v + self.b * (self.gamma.T @ (self.gamma @ v))

    def diagonal(self) -> np.ndarray:
        """The diagonal of H, in O(nr) once H0's is formed; named as ndarray's."""
        return self.fixed.h0_diagonal + self.b * (self.gamma ** 2).sum(axis=0)

    def dense(self, idx=None) -> np.ndarray:
        """H[idx, idx] (all of H when idx is None) as a new dense array."""
        gamma = self.gamma if idx is None else self.gamma[:, idx]
        return self.fixed.dense(idx) + self.b * (gamma.T @ gamma)


@dataclass(frozen=True)
class QpProblem:
    """Problem data; the objective convention is 0.5 x'Hx + c'x. ``h`` is
    a dense matrix or a ``GramHessian``."""

    h: np.ndarray | GramHessian
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    eq_sum: float

    def __post_init__(self):
        if not isinstance(self.h, GramHessian):
            object.__setattr__(self, "h", np.array(self.h, dtype=float))
        object.__setattr__(self, "c", np.array(self.c, dtype=float))
        object.__setattr__(self, "lower", np.array(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.array(self.upper, dtype=float))
        object.__setattr__(self, "eq_sum", float(self.eq_sum))

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self.h @ x) + self.c @ x)


def _validate(p: QpProblem) -> None:
    """Shapes, finiteness and feasibility; H's entries and symmetry only for
    a dense H (a GramHessian was checked by its constructor)."""
    n = p.n
    if n == 0:
        raise ValidationError("QP has no variables")
    dense_h = not isinstance(p.h, GramHessian)
    if p.c.ndim != 1 or p.h.shape != (n, n) or p.lower.shape != (n,) or p.upper.shape != (n,):
        raise ValidationError("QP dimension mismatch")
    if not ((not dense_h or np.all(np.isfinite(p.h))) and np.all(np.isfinite(p.c))
            and np.all(np.isfinite(p.lower)) and np.all(np.isfinite(p.upper))
            and np.isfinite(p.eq_sum)):
        raise ValidationError("QP contains non-finite entries")
    if dense_h:
        scale = max(1.0, float(np.abs(p.h).max(initial=0.0)))
        if float(np.abs(p.h - p.h.T).max(initial=0.0)) > 1e-10 * scale:
            raise ValidationError("H is not symmetric")
    if np.any(p.lower > p.upper):
        raise ValidationError("infeasible bounds: lower > upper")
    slack = 1e-9 * max(1.0, abs(p.eq_sum))
    with np.errstate(over="ignore"):  # bounds near 1e308 sum to inf
        upper_sum = p.upper.sum()
    if not (p.lower.sum() - slack <= p.eq_sum <= upper_sum + slack):
        raise ValidationError("equality constraint infeasible for the given bounds")


def _psd_tolerance(h: np.ndarray) -> float:
    return PSD_EIG_TOL * max(1.0, float(np.abs(h).max(initial=0.0)))


def _require_psd(h: np.ndarray) -> None:
    # Cholesky of H + tol*I succeeds iff the smallest eigenvalue exceeds -tol.
    n = h.shape[0]
    tol = _psd_tolerance(h)
    try:
        np.linalg.cholesky(h + tol * np.eye(n))
        return
    except np.linalg.LinAlgError:
        pass
    lam_min = float(np.linalg.eigvalsh(h)[0])
    if lam_min < -tol:
        raise NumericError(
            f"H is not positive semidefinite (min eigenvalue {lam_min:.3e})")


def _feasible_start(p: QpProblem, warm_start) -> np.ndarray:
    if warm_start is None:
        x0 = np.full(p.n, p.eq_sum / p.n)
    else:
        x0 = np.asarray(warm_start, dtype=float).copy()
        if x0.shape != (p.n,) or not np.all(np.isfinite(x0)):
            raise ValidationError("warm start has the wrong shape or non-finite entries")
    lo, up = p.lower, p.upper
    # Shift-then-clip projection onto the box/sum intersection. The clipped
    # sum s(t) = sum(clip(x0 + t, lo, up)) is piecewise linear and
    # nondecreasing, its slope rising by one at each lo - x0 and falling by
    # one at each up - x0; take the smallest t with s(t) = eq_sum.
    knots = np.concatenate([lo - x0, up - x0])
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    slopes = np.cumsum(np.repeat([1.0, -1.0], p.n)[order])
    sums = lo.sum() + np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(knots))])
    j = int(np.searchsorted(sums, p.eq_sum))
    if j == 0:
        t = knots[0]
    elif j == knots.size:
        t = knots[-1]
    else:
        t = knots[j - 1] + (p.eq_sum - sums[j - 1]) / slopes[j - 1]
    x = np.clip(x0 + t, lo, up)
    interior = (x > lo) & (x < up)
    if interior.any():
        x[interior] += (p.eq_sum - x.sum()) / interior.sum()
    # a coordinate whose knot is t itself can be an ulp off its bound and
    # count as interior; keep the correction from pushing it past the bound
    return np.clip(x, lo, up, out=x)


def _sum_nullspace_basis(n: int) -> np.ndarray:
    """Orthonormal basis (n x n-1) of the zero-sum subspace."""
    j = np.arange(1, n)
    z = np.triu(np.ones((n, n - 1)))
    z[j, j - 1] = -j
    return z / np.sqrt(j * (j + 1.0))


def _reduced_step(hff: np.ndarray, gf: np.ndarray):
    """Solve the free subproblem in the zero-sum subspace around the current point.

    Returns (step, is_ray): a bounded step to the subspace minimizer, or an
    unnormalized direction of strict linear descent when the reduced Hessian
    is singular along the gradient.
    """
    z = _sum_nullspace_basis(gf.shape[0])
    hr = z.T @ hff @ z
    gr = z.T @ gf
    lam, vec = np.linalg.eigh(0.5 * (hr + hr.T))
    if lam[0] < -_psd_tolerance(hff):
        raise NumericError(
            "H is not positive semidefinite on the constraint subspace")
    cut = 1e-12 * max(1.0, float(np.abs(lam).max(initial=0.0)))
    pos = lam > cut
    proj = vec[:, pos].T @ gr
    g_null = gr - vec[:, pos] @ proj
    if np.abs(g_null).max(initial=0.0) > 1e-11 * max(1.0, np.abs(gr).max(initial=0.0)):
        return z @ (-g_null), True
    y = -(vec[:, pos] @ (proj / lam[pos])) if pos.any() else np.zeros(gr.shape[0])
    return z @ y, False


def _free_subproblem(p: QpProblem, x, free_idx, grad):
    """Step for the free coordinates holding the rest fixed. Returns
    (step, H_FF step), or (ray, None) for a direction of linear descent."""
    nf = free_idx.size
    # a GramHessian forms only the block H_FF, never all of H
    hff = p.h.dense(free_idx) if isinstance(p.h, GramHessian) else p.h[np.ix_(free_idx, free_idx)]
    if nf == 1:
        i = free_idx[0]
        target = p.eq_sum - x.sum() + x[i]
        step = np.array([target - x[i]])
        return step, hff @ step
    gf = grad[free_idx]
    # bordered KKT system in absolute coordinates: fast path
    k = np.zeros((nf + 1, nf + 1))
    k[:nf, :nf] = hff
    k[:nf, nf] = 1.0
    k[nf, :nf] = 1.0
    rhs = np.empty(nf + 1)
    rhs[:nf] = hff @ x[free_idx] - gf
    rhs[nf] = p.eq_sum - x.sum() + x[free_idx].sum()
    try:
        sol = np.linalg.solve(k, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is not None and np.all(np.isfinite(sol)):
        step = sol[:nf] - x[free_idx]
        resid = np.abs(k @ sol - rhs).max()
        with np.errstate(over="ignore"):  # an overflowed scale admits any residual
            scale = max(1.0, np.abs(rhs).max(), np.abs(k).max() * max(1.0, np.abs(sol).max()))
        if _step_verified(p, x, free_idx, gf, step, resid, scale):
            return step, hff @ step
    step, is_ray = _reduced_step(hff, gf)
    return step, None if is_ray else hff @ step


def _step_verified(p: QpProblem, x, free_idx, gf, step, resid, scale) -> bool:
    """Accept a solved free-set step: small backward residual of its KKT
    system, a length not far beyond the box, and a descent direction."""
    # A near-singular system solves with a tiny backward residual yet a
    # huge, direction-unreliable solution; anything far beyond the box is
    # decided exactly by the eigendecomposition path instead.
    box_scale = max(1.0, float(np.abs(x).max()),
                    float((p.upper[free_idx] - p.lower[free_idx]).max()))
    if not (resid <= 1e-9 * scale and np.abs(step).max() <= 1e6 * box_scale):
        return False
    descent = float(gf @ step)
    return descent <= 1e-10 * max(1.0, np.abs(gf).max()) * max(1.0, np.abs(step).max())


class _SchurSteps:
    """Free-set steps of one QP from the KKT basis M0 of its GramHessian's
    ``ReconstructionHessian`` H0.

    The step (dx, nu) with dx fixed at zero on the fixed set A solves the
    bordered system of H = H0 + d U U' (U = G', d = b; q = r columns, or
    none when d = 0), which is the all-free K0 bordered by
    V = [[U; 0], E_A] (E_A: unit columns of A) with corner
    C = blockdiag(-I/d, 0). With S = C - V' M0 V and y0 = M0 b, the
    solution is y0 - M0 V S^-1 (-V' y0). The right-hand side is
    b = [-(H0 x + d U U'x + c); eq_sum - 1'x] and M0 [H0 x; 1'x] = [x; 0],
    so y0 = y_c - [x; 0] - M0 U (d U'x) with y_c = M0 [-c; eq_sum].
    M0 U = M0 F coef' (M0 F is kept for the fit), U' M0 U and y_c are
    formed once per QP; M0 E_A comes from the basis's kept columns, so a
    step solves only the columns of indices fixed for the first time in
    the fit, and otherwise works in n (q + |A|).
    """

    def __init__(self, p: QpProblem):
        n = p.n
        self.basis = p.h.basis
        self.d = p.h.b
        self.u = p.h.gamma.T if self.d else np.zeros((n, 0))
        self.m0u = p.h.fixed.feature_columns @ p.h.coef.T if self.d else np.zeros((n + 1, 0))
        self.q = self.u.shape[1]
        utm0u = self.u.T @ self.m0u[:n]
        # with d = 0 the corner is empty and nothing is divided
        self.corner = -np.eye(self.q) / self.d - 0.5 * (utm0u + utm0u.T)
        # a huge c overflows y_c; a step read off it is not finite and
        # fails its check
        with np.errstate(over="ignore", invalid="ignore"):
            self.y_c = self.basis.solve(np.append(-p.c, p.eq_sum))
        # H_ii is at most max_j |H_ij|, so scaling the residual by the free
        # rows' diagonal is no looser than by their row maxima, and it needs
        # no O(n^2) scan of a GramHessian
        self.h_diag = p.h.diagonal()

    def all_free(self, x) -> np.ndarray:
        """M0 b for the step from x: the all-free solution, before the
        Schur correction."""
        y = self.y_c - self.m0u @ (self.d * (self.u.T @ x))
        y[:x.shape[0]] -= x
        return y

    def step(self, p: QpProblem, x, free, grad):
        """(step, H_FF step) for the free coordinates, or None when the
        Schur complement is singular or the step fails verification."""
        n, q = p.n, self.q
        free_idx = np.flatnonzero(free)
        fixed_idx = np.flatnonzero(~free)
        cross = self.m0u[fixed_idx]
        fixed_rows = self.basis.columns(fixed_idx)  # M0 is symmetric: its fixed columns
        fixed_block = fixed_rows[:, fixed_idx]
        schur = np.empty((q + fixed_idx.size, q + fixed_idx.size))
        schur[:q, :q] = self.corner
        schur[q:, :q] = -cross
        schur[:q, q:] = -cross.T
        # solved columns are symmetric only to rounding
        schur[q:, q:] = -0.5 * (fixed_block + fixed_block.T)

        def correct(y):
            z = np.linalg.solve(schur, np.concatenate([self.u.T @ y[:n], y[fixed_idx]]))
            out = y + self.m0u @ z[:q] + fixed_rows.T @ z[q:]
            out[fixed_idx] = 0.0
            return out

        rhs_sum = p.eq_sum - x.sum()
        rhs_scale = max(1.0, np.abs(grad[free_idx]).max(), abs(rhs_sum))
        row_scale = max(1.0, float(self.h_diag[free_idx].max()))

        def checked(sol):
            """(step, H_FF step) when sol passes its check, else None."""
            if not np.all(np.isfinite(sol)):
                return None
            # rows of the fixed set carry their bound multiplier: no residual
            h_dir = p.h @ sol[:n]
            r = np.zeros(n + 1)
            r[free_idx] = h_dir[free_idx] + sol[n] + grad[free_idx]
            r[n] = sol[:n].sum() - rhs_sum
            step = sol[free_idx]
            with np.errstate(over="ignore"):  # an overflowed scale admits any residual
                scale = max(rhs_scale, row_scale * max(
                    1.0, np.abs(x[free_idx] + step).max(), abs(sol[n])))
            if _step_verified(p, x, free_idx, grad[free_idx], step,
                              np.abs(r).max(), scale):
                return step, h_dir[free_idx]
            return None

        # a huge b or y_c overflows a candidate or its residual, which then
        # fails its check and the step takes the dense path
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return checked(correct(self.all_free(x)))
        except np.linalg.LinAlgError:
            return None


def solve(p: QpProblem, warm_start=None) -> np.ndarray:
    """Minimize the QP; deterministic for fixed input.

    The result is feasible to 1e-8 on bounds and sum and satisfies the KKT
    stationarity conditions to well below 1e-6 in max norm.

    When p.h is a GramHessian whose ``ReconstructionHessian`` has a KKT
    basis, each step comes from a Schur complement while q + |fixed| < |free|;
    otherwise, and whenever that step fails verification against p.h, from
    the dense free-set system. The Schur set-up is built at the first step
    that qualifies, so a QP with no such step never asks for the basis. A
    dense p.h is checked for symmetry and PSD first; a GramHessian is both
    by construction.

    Each upper bound is capped at eq_sum - sum_{j != i} lower_j, which the
    lower bounds and the sum already impose, so a bound near 1e308 solves
    as that cap does.
    """
    _validate(p)
    # clipped at lower: an eq_sum within _validate's slack below sum(lower)
    # must not put a cap under its lower bound
    p = replace(p, upper=np.clip(p.eq_sum - (p.lower.sum() - p.lower), p.lower, p.upper))
    gram = isinstance(p.h, GramHessian)
    if not gram:
        _require_psd(p.h)
    n = p.n
    schur = None
    q = p.h.gamma.shape[0] if gram and p.h.b else 0
    lo, up = p.lower, p.upper
    x = _feasible_start(p, warm_start)

    # each bound's test is scaled by that bound alone: a huge upper bound
    # must not mark small values as sitting at the lower one
    lo_atol = 1e-11 * np.maximum(1.0, np.abs(lo))
    up_atol = 1e-11 * np.maximum(1.0, np.abs(up))
    pinned = up - lo <= np.maximum(lo_atol, up_atol)  # effectively fixed variables
    active_lo = x <= lo + lo_atol
    active_up = (x >= up - up_atol) & ~active_lo
    x[active_lo] = lo[active_lo]
    x[active_up] = up[active_up]

    for _ in range(_MAX_ITERS_PER_VAR * max(n, 1)):
        free = ~(active_lo | active_up)
        free_idx = np.flatnonzero(free)
        grad = p.h @ x + p.c

        step = None
        if free_idx.size:
            found = None
            if gram and q + n - free_idx.size < free_idx.size and p.h.basis is not None:
                if schur is None:
                    schur = _SchurSteps(p)
                found = schur.step(p, x, free, grad)
            step, hd = found if found is not None else _free_subproblem(p, x, free_idx, grad)
            is_ray = hd is None
            if not is_ray:
                # Ill-conditioned subproblems bounce by rounding noise instead
                # of shrinking the step; a step predicting no material decrease
                # means the subproblem is solved.
                predicted = -(grad[free_idx] @ step + 0.5 * step @ hd)
                tol_pred = 1e-13 * max(1.0, float(np.abs(grad).max(initial=0.0))
                                       * max(1.0, float(np.abs(x).max())))
                if predicted <= tol_pred:
                    step = None

        if step is not None and np.abs(step).max(initial=0.0) > 1e-12 * max(1.0, np.abs(x).max()):
            direction = np.zeros(n)
            direction[free_idx] = step
            # largest feasible fraction of the step before a bound blocks
            limit = 1.0 if not is_ray else np.inf
            ratios = np.full(n, np.inf)
            d_tol = 1e-14 * np.abs(direction).max()
            up_block = direction > d_tol
            lo_block = direction < -d_tol
            ratios[up_block] = (up[up_block] - x[up_block]) / direction[up_block]
            ratios[lo_block] = (lo[lo_block] - x[lo_block]) / direction[lo_block]
            np.maximum(ratios, 0.0, out=ratios)
            blocker = int(np.argmin(ratios))
            alpha = min(limit, float(ratios[blocker]))
            if not np.isfinite(alpha):
                raise NumericError("QP step is unbounded despite finite bounds")
            if alpha < limit:
                x += alpha * direction
                if direction[blocker] > 0:
                    active_up[blocker] = True
                    x[blocker] = up[blocker]
                else:
                    active_lo[blocker] = True
                    x[blocker] = lo[blocker]
            else:
                x[free_idx] += step
            continue

        # current point solves the working-set subproblem: check multipliers
        checkable = ~pinned
        if free_idx.size:
            mu = -float(grad[free_idx].mean())
        else:
            need_lo = -grad[active_lo & checkable]
            need_up = -grad[active_up & checkable]
            lo_req = float(need_lo.max()) if need_lo.size else -np.inf
            up_req = float(need_up.min()) if need_up.size else np.inf
            mu = min(max(0.0, lo_req), up_req) if lo_req <= up_req else 0.5 * (lo_req + up_req)
        shifted = grad + mu
        violation = np.zeros(n)
        sel_lo = active_lo & checkable
        sel_up = active_up & checkable
        violation[sel_lo] = np.maximum(0.0, -shifted[sel_lo])
        violation[sel_up] = np.maximum(0.0, shifted[sel_up])
        worst = int(np.argmax(violation))
        kkt_tol = max(1e-12, 1e-10 * float(np.abs(grad).max(initial=0.0)))
        if violation[worst] <= kkt_tol:
            return np.clip(x, lo, up)
        active_lo[worst] = False
        active_up[worst] = False

    raise NumericError("QP did not converge")
