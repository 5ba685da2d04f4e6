"""Convex quadratic programs with box bounds and one sum constraint.

    minimize    0.5 * x'Hx + c'x
    subject to  lower <= x <= upper,   sum(x) = eq_sum

A primal active-set method fixes variables at their bounds and solves the
remaining equality-constrained subproblem through a bordered KKT system.
H is either a dense symmetric PSD matrix, checked on every solve, or a
``GramHessian`` H0 + b G'G: a ``ReconstructionHessian`` H0 = a R'R
(R = I - W, with k entries per row of W) plus a rank-r Gram term, both
held in factored form, symmetric PSD by construction, whose products cost
O(nk + nr). H0 is the part of the weight step's Hessian fixed for a whole
fit, so it is checked once and carries its dense matrix and its KKT basis:
the explicit inverse M0 of the all-free bordered KKT matrix K0 of H0. Each
step then comes from a small Schur complement against that inverse,
bordered by the rank-r term b G'G (q = r columns) and the fixed set, and
verified against H itself (Gill, Murray, Saunders & Wright 1990, "A
Schur-complement method for sparse quadratic programming"). The step's
all-free solution M0 b is read off M0 [H0 x; 1'x] = [x; 0] and one product
M0 [-c; eq_sum] per QP, so a step makes no product with M0; a step that
fails verification is solved from the dense free-set system instead.
Singular reduced Hessians (PSD but rank deficient, including H = 0) fall
back to an eigendecomposition of the reduced Hessian and follow directions
of linear descent until a bound blocks; the feasible set is compact, so a
blocking bound always exists.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class ReconstructionHessian:
    """H0 = a R'R with R = I - W: the fixed part of every weight QP of a fit.

    Row i of W holds ``coeffs[i]`` at the columns ``indices[i]`` (both
    n x k), and a >= 0. The constructor checks these factors, forms the
    dense ``h0`` and its ``kkt_basis`` (None when K0 is singular or
    ill-conditioned), once per fit; ``@`` applies H0 in O(nk).
    """

    def __init__(self, indices, coeffs, a):
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
        self.n = n
        self.shape = (n, n)
        self.indices = indices
        self.coeffs = coeffs
        self.a = a
        self._flat_indices = indices.ravel()
        self.h0 = a * _reconstruction_gram(indices, coeffs)
        self.basis = kkt_basis(self.h0)

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


def _reconstruction_gram(indices, coeffs) -> np.ndarray:
    """(I - W)'(I - W), dense; W and I - W are freed on return."""
    n, k = indices.shape
    w = np.zeros((n, n))
    w[np.repeat(np.arange(n), k), indices.ravel()] = coeffs.ravel()
    eye_minus_w = np.eye(n) - w
    return eye_minus_w.T @ eye_minus_w


class GramHessian:
    """H = H0 + b G'G: a fit's ``ReconstructionHessian`` H0 plus a rank-r
    Gram term, with G r x n and b >= 0.

    ``diagonal`` and ``dense`` read H0's dense ``h0``, and ``basis`` is
    H0's KKT basis, with which ``solve`` takes Schur steps. H0 checked its
    own factors and the constructor checks G and b, so H is symmetric PSD
    by construction and ``solve`` runs no symmetry scan or PSD check on it.
    """

    def __init__(self, fixed: ReconstructionHessian, gamma, b):
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim != 2 or gamma.shape[1] != fixed.n:
            raise ValidationError("Gram Hessian factors have mismatched shapes")
        if not np.isfinite(gamma).all():
            raise ValidationError("Gram Hessian factors contain non-finite entries")
        b = float(b)
        if not 0.0 <= b < np.inf:
            raise ValidationError("Gram Hessian scales must be finite and nonnegative")
        self.shape = fixed.shape
        self.fixed = fixed
        self.gamma = gamma
        self.b = b
        self.basis = fixed.basis
        self._dense = None

    def __matmul__(self, v) -> np.ndarray:
        """H v for a vector v, in O(nk + nr)."""
        return self.fixed @ v + self.b * (self.gamma.T @ (self.gamma @ v))

    def diagonal(self) -> np.ndarray:
        """The diagonal of H, in O(n + nr); named as ndarray's."""
        return np.diag(self.fixed.h0) + self.b * (self.gamma ** 2).sum(axis=0)

    def dense(self) -> np.ndarray:
        """H as a dense matrix, formed on the first call and cached."""
        if self._dense is None:
            self._dense = self.fixed.h0 + self.b * (self.gamma.T @ self.gamma)
        return self._dense


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
    if not (p.lower.sum() - slack <= p.eq_sum <= p.upper.sum() + slack):
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


def _dense_block(h, idx) -> np.ndarray:
    """H[idx, idx] as a dense array; a GramHessian forms its dense matrix
    once and slices that."""
    dense = h.dense() if isinstance(h, GramHessian) else h
    return dense[np.ix_(idx, idx)]


def _free_subproblem(p: QpProblem, x, free_idx, grad):
    """Step for the free coordinates holding the rest fixed. Returns (step, is_ray)."""
    nf = free_idx.size
    if nf == 1:
        i = free_idx[0]
        target = p.eq_sum - x.sum() + x[i]
        return np.array([target - x[i]]), False
    hff = _dense_block(p.h, free_idx)
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
        scale = max(1.0, np.abs(rhs).max(), np.abs(k).max() * max(1.0, np.abs(sol).max()))
        if _step_verified(p, x, free_idx, gf, step, resid, scale):
            return step, False
    return _reduced_step(hff, gf)


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


def kkt_basis(h0) -> np.ndarray | None:
    """The inverse M0 of the all-free bordered KKT matrix
    K0 = [[H0, 1], [1', 0]], or None when K0 is singular or its
    infinity-norm condition number exceeds BASIS_COND_LIMIT."""
    h0 = np.asarray(h0, dtype=float)
    n = h0.shape[0]
    k0 = np.ones((n + 1, n + 1))
    k0[:n, :n] = h0
    k0[n, n] = 0.0
    try:
        inverse = np.linalg.inv(k0)
    except np.linalg.LinAlgError:
        return None
    cond = np.abs(k0).sum(axis=1).max() * np.abs(inverse).sum(axis=1).max()
    if not cond <= BASIS_COND_LIMIT:
        return None
    # symmetric to the last bit, so that the Schur complement is too
    return 0.5 * (inverse + inverse.T)


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
    so y0 = y_c - [x; 0] - M0 U (d U'x) with y_c = M0 [-c; eq_sum]: no
    product with M0 per step, only work in n (q + |A|). M0 U, U' M0 U and
    y_c are formed once per QP.
    """

    def __init__(self, p: QpProblem):
        n = p.n
        self.m0 = p.h.basis
        self.d = p.h.b
        self.u = p.h.gamma.T if self.d else np.zeros((n, 0))
        self.q = self.u.shape[1]
        self.m0u = self.m0[:, :n] @ self.u
        utm0u = self.u.T @ self.m0u[:n]
        # with d = 0 the corner is empty and nothing is divided
        self.corner = -np.eye(self.q) / self.d - 0.5 * (utm0u + utm0u.T)
        self.y_c = self.m0 @ np.append(-p.c, p.eq_sum)
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
        fixed_rows = self.m0[fixed_idx]  # M0 is symmetric: its fixed columns
        schur = np.empty((q + fixed_idx.size, q + fixed_idx.size))
        schur[:q, :q] = self.corner
        schur[q:, :q] = -cross
        schur[:q, q:] = -cross.T
        schur[q:, q:] = -fixed_rows[:, fixed_idx]

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
            scale = max(rhs_scale, row_scale * max(
                1.0, np.abs(x[free_idx] + step).max(), abs(sol[n])))
            if _step_verified(p, x, free_idx, grad[free_idx], step,
                              np.abs(r).max(), scale):
                return step, h_dir[free_idx]
            return None

        try:
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
    the dense free-set system. A dense p.h is checked for symmetry and PSD
    first; a GramHessian is both by construction.
    """
    _validate(p)
    gram = isinstance(p.h, GramHessian)
    if not gram:
        _require_psd(p.h)
    n = p.n
    schur = _SchurSteps(p) if gram and p.h.basis is not None else None
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
            if schur is not None and schur.q + (n - free_idx.size) < free_idx.size:
                found = schur.step(p, x, free, grad)
            if found is not None:
                (step, hd), is_ray = found, False
            else:
                step, is_ray = _free_subproblem(p, x, free_idx, grad)
                hd = None
            if step is not None and not is_ray:
                # Ill-conditioned subproblems bounce by rounding noise instead
                # of shrinking the step; a step predicting no material decrease
                # means the subproblem is solved.
                if hd is None:
                    hd = _dense_block(p.h, free_idx) @ step
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
