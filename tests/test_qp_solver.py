import copy
import dataclasses
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from subadapt import qp_solver, trainer
from subadapt.classifier import ObjectiveContext
from subadapt.cli import make_shifted_pair
from subadapt.data_model import DatasetPair, Hyperparams, ValidationError
from subadapt.neighborhood import build_graph
from subadapt.qp_solver import GramHessian, QpProblem, ReconstructionHessian, \
    _feasible_start, kkt_basis, solve
from subadapt.trainer import fit
from subadapt.weights import build_weight_problem, update_pi


def kkt_residual(p, x, activity_atol=1e-7):
    """Independent stationarity check for the box+sum program."""
    g = p.h @ x + p.c
    at_lo = x <= p.lower + activity_atol
    at_up = (x >= p.upper - activity_atol) & ~at_lo
    free = ~(at_lo | at_up)
    if free.any():
        mu = -float(g[free].mean())
    else:
        lo_req = float((-g[at_lo]).max()) if at_lo.any() else -np.inf
        up_req = float((-g[at_up]).min()) if at_up.any() else np.inf
        mu = min(max(0.0, lo_req), up_req) if lo_req <= up_req else 0.5 * (lo_req + up_req)
    shifted = g + mu
    residual = 0.0
    if free.any():
        residual = max(residual, float(np.abs(shifted[free]).max()))
    if at_lo.any():
        residual = max(residual, max(0.0, float((-shifted[at_lo]).max())))
    if at_up.any():
        residual = max(residual, max(0.0, float(shifted[at_up].max())))
    return residual


def grid_best_objective(p, step=0.01):
    """Exhaustive slice grid: free coordinates on the grid, last from the sum."""
    n = p.n
    axes = [np.arange(p.lower[i], p.upper[i] + 1e-12, step) for i in range(n - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    head = np.column_stack([m.ravel() for m in mesh])
    tail = p.eq_sum - head.sum(axis=1)
    keep = (tail >= p.lower[-1] - 1e-12) & (tail <= p.upper[-1] + 1e-12)
    pts = np.column_stack([head[keep], tail[keep]])
    values = 0.5 * np.einsum("ij,jk,ik->i", pts, p.h.dense(), pts) + pts @ p.c
    return float(values.min())


def feasible_uniform(p):
    x = np.clip(np.full(p.n, p.eq_sum / p.n), p.lower, p.upper)
    interior = (x > p.lower) & (x < p.upper)
    if interior.any():
        x[interior] += (p.eq_sum - x.sum()) / interior.sum()
    return x


def gram_qp(coef, c, lower, upper, eq_sum, b=1.0):
    """The QP of Hessian H = b coef'coef (coef r x n) as a GramHessian: an
    n x 0 graph with a = 0, so H0 = 0 and there is no KKT basis, and
    features I, so G = coef."""
    coef = np.asarray(coef, dtype=float)
    n = coef.shape[1]
    fixed = ReconstructionHessian(np.zeros((n, 0), dtype=int), np.zeros((n, 0)), 0.0, np.eye(n))
    return QpProblem(GramHessian(fixed, coef, b), c, lower, upper, eq_sum)


class DenseH0:
    """A symmetric array H0 as ``kkt_basis`` reads a ReconstructionHessian."""

    def __init__(self, h0):
        self.h0 = np.asarray(h0, dtype=float)
        self.n = self.h0.shape[0]
        self.h0_diagonal = np.diagonal(self.h0)
        self.product = self.h0.__matmul__

    def rows(self, i, j):
        return self.h0[i:j, :j].copy()


def random_psd_problem(rng, n):
    """H = coef'coef: a full square, a random rank, zero or diagonal."""
    kind = rng.integers(0, 4)
    if kind == 0:
        coef = rng.standard_normal((n, n)).T
    elif kind == 1:
        coef = rng.standard_normal((int(rng.integers(1, n + 1)), n))
    elif kind == 2:
        coef = np.zeros((1, n))
    else:
        coef = np.diag(np.sqrt(np.abs(rng.standard_normal(n))))
    c = 3.0 * rng.standard_normal(n)
    upper = np.full(n, float(rng.uniform(1.0, 3.0)))
    eq_sum = float(rng.uniform(0.0, upper.sum()))
    return gram_qp(coef, c, np.zeros(n), upper, eq_sum)


def test_uniform_interior_optimum():
    p = gram_qp(np.eye(2), np.zeros(2), np.zeros(2), 2.0 * np.ones(2), 2.0, b=2.0)
    assert solve(p) == pytest.approx([1.0, 1.0], abs=1e-10)


def test_linear_program_corner():
    p = gram_qp(np.zeros((1, 2)), np.array([0.0, 10.0]),
                np.zeros(2), 2.0 * np.ones(2), 2.0)
    assert solve(p) == pytest.approx([2.0, 0.0], abs=1e-10)


def test_random_instances_beat_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        p = random_psd_problem(rng, 4)
        x = solve(p)
        assert p.objective(x) <= grid_best_objective(p, step=0.01) + 1e-4


def test_feasibility_and_kkt_contract():
    rng = np.random.default_rng(8)
    for _ in range(150):
        p = random_psd_problem(rng, int(rng.integers(2, 9)))
        x = solve(p)
        assert float(x.min() - p.lower.min()) >= -1e-8
        assert float((x - p.upper).max()) <= 1e-8
        assert abs(x.sum() - p.eq_sum) <= 1e-8 * max(1.0, abs(p.eq_sum))
        assert kkt_residual(p, x) <= 1e-6


def test_objective_never_above_uniform_reference():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = random_psd_problem(rng, int(rng.integers(2, 7)))
        x = solve(p)
        assert p.objective(x) <= p.objective(feasible_uniform(p)) + 1e-8


def test_warm_start_monotone():
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = random_psd_problem(rng, 5)
        x1 = solve(p)
        x2 = solve(p, warm_start=x1)
        assert p.objective(x2) <= p.objective(x1) + 1e-10


def test_deterministic_for_fixed_input():
    rng = np.random.default_rng(11)
    p = random_psd_problem(rng, 6)
    assert np.array_equal(solve(p), solve(p))


def test_warm_start_from_infeasible_point_is_projected():
    p = gram_qp(np.eye(3), np.zeros(3), np.zeros(3), np.ones(3), 1.5)
    x = solve(p, warm_start=np.array([10.0, -4.0, 0.0]))
    assert abs(x.sum() - 1.5) <= 1e-8


def test_infeasible_bounds_rejected():
    with pytest.raises(ValidationError, match="lower > upper"):
        solve(gram_qp(np.eye(2), np.zeros(2), np.ones(2), np.zeros(2), 1.0))


def test_infeasible_equality_rejected():
    with pytest.raises(ValidationError, match="infeasible"):
        solve(gram_qp(np.eye(2), np.zeros(2), np.zeros(2), np.ones(2), 5.0))


@pytest.mark.parametrize("warm_start", [None, np.zeros(0)])
def test_qp_with_no_variables_rejected(warm_start):
    empty = gram_qp(np.zeros((0, 0)), c=[], lower=[], upper=[], eq_sum=0.0)
    with pytest.raises(ValidationError, match="QP has no variables"):
        solve(empty, warm_start=warm_start)


def test_array_hessian_rejected():
    # the solver takes a GramHessian alone, symmetric PSD by construction
    with pytest.raises(ValidationError, match="GramHessian"):
        solve(QpProblem(np.eye(2), np.zeros(2), np.zeros(2), np.ones(2), 1.0))


def test_pinned_variable():
    lower = np.array([0.0, 0.7, 0.0])
    upper = np.array([1.0, 0.7, 1.0])
    p = gram_qp(np.eye(3), np.zeros(3), lower, upper, 1.5)
    x = solve(p)
    assert x[1] == pytest.approx(0.7, abs=1e-12)
    assert x[0] == pytest.approx(0.4, abs=1e-8)
    assert x[2] == pytest.approx(0.4, abs=1e-8)


@pytest.mark.parametrize("upper", [1e12, 1e300])
def test_large_upper_bounds_keep_the_solution_feasible(upper):
    # each bound's activity test is scaled by that bound alone: scaled by
    # the upper bound too, the lower test took every x below 1e-11 * upper
    # as sitting at 0, and the solve returned all zeros
    p = gram_qp(np.eye(5), np.arange(5.0), np.zeros(5), np.full(5, upper), 5.0)
    x = solve(p)
    assert abs(x.sum() - 5.0) <= 1e-8 * 5.0
    assert x.min() >= 0.0 and x.max() <= upper
    assert kkt_residual(p, x) <= 1e-8
    assert x == pytest.approx([8 / 3, 5 / 3, 2 / 3, 0.0, 0.0], abs=1e-12)


def test_large_lower_bounds_keep_the_upper_activity_test_per_bound():
    # lower bounds of -1e12 leave the cap of the upper bounds at 1, so the
    # per-bound activity scaling is reached: scaled by max(|lower|, |upper|),
    # the upper test took every x near 1 as sitting at its bound, and the
    # solve returned [1, 1, 1, 1], which misses the sum
    p = gram_qp(np.eye(4), np.array([0.0, 0.1, 0.2, 0.3]), np.full(4, -1e12),
                np.ones(4), 2.0)
    x = solve(p)
    assert abs(x.sum() - 2.0) <= 1e-8 * 2.0
    assert kkt_residual(p, x) <= 1e-8
    assert x == pytest.approx([0.65, 0.55, 0.45, 0.35], abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_upper_bounds_near_overflow_solve_as_their_cap():
    # x >= 0 and sum(x) = 5 keep every x_i <= 5, so upper bounds of 1e308
    # and of 10 are both capped at 5; summing the 1e308 bounds overflowed
    huge = solve(gram_qp(np.eye(5), np.arange(5.0), np.zeros(5), np.full(5, 1e308), 5.0))
    small = solve(gram_qp(np.eye(5), np.arange(5.0), np.zeros(5), np.full(5, 10.0), 5.0))
    assert huge.tobytes() == small.tobytes()


def bisection_start(p, warm_start):
    """Shift-then-clip projection onto the box/sum set by 200-step bisection."""
    x0 = np.full(p.n, p.eq_sum / p.n) if warm_start is None else warm_start.copy()
    t_lo = float((p.lower - x0).min()) - 1.0
    t_hi = float((p.upper - x0).max()) + 1.0
    for _ in range(200):
        t_mid = 0.5 * (t_lo + t_hi)
        if np.clip(x0 + t_mid, p.lower, p.upper).sum() < p.eq_sum:
            t_lo = t_mid
        else:
            t_hi = t_mid
    x = np.clip(x0 + t_hi, p.lower, p.upper)
    interior = (x > p.lower) & (x < p.upper)
    if interior.any():
        x[interior] += (p.eq_sum - x.sum()) / interior.sum()
    return x


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("sum_at", ["inside", "lower", "upper"])
def test_exact_start_matches_bisection(n, sum_at):
    rng = np.random.default_rng(12)
    for trial in range(60):
        lower = rng.uniform(-3.0, 1.0, n)
        upper = lower + rng.uniform(0.0, 3.0, n)
        pinned = rng.random(n) < 0.25
        upper[pinned] = lower[pinned]
        eq_sum = {"inside": float(rng.uniform(lower.sum(), upper.sum())),
                  "lower": lower.sum(), "upper": upper.sum()}[sum_at]
        p = gram_qp(np.eye(n), np.zeros(n), lower, upper, eq_sum)
        # cold start, warm starts inside the box, and far outside it
        warm = [None, rng.uniform(lower, upper),
                rng.normal(0.0, 10.0 ** rng.uniform(1, 4), n)][trial % 3]
        x = _feasible_start(p, warm)
        assert np.abs(x - bisection_start(p, warm)).max() <= 1e-12
        assert np.all(x >= lower) and np.all(x <= upper)
        assert x[pinned] == pytest.approx(lower[pinned], abs=0.0)


def loop_nullspace_basis(n):
    """The column-by-column construction of the zero-sum basis."""
    z = np.zeros((n, n - 1))
    for j in range(1, n):
        z[:j, j - 1] = 1.0
        z[j, j - 1] = -float(j)
        z[:, j - 1] /= np.sqrt(j * (j + 1.0))
    return z


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200, 777])
def test_sum_nullspace_basis_matches_loop_bytes(n):
    z = qp_solver._sum_nullspace_basis(n)
    expected = loop_nullspace_basis(n)
    assert z.shape == expected.shape and z.dtype == expected.dtype
    assert z.tobytes() == expected.tobytes()


def dense_copy(qp):
    """``qp`` on a copy of its Hessian with no KKT basis: the reference
    path, whose every step solves the dense free-set system."""
    return with_basis(qp, None)


def weight_context(pair, hp):
    return ObjectiveContext(pair, build_graph(pair.source_x, hp.k),
                            build_graph(pair.target_x, hp.k), hp)


def weight_problem_sequence(seed, cycles=4, n=80, **hp_kwargs):
    """(problem, warm start) of consecutive weight steps of one fit, with
    the projection and classifier drifting from cycle to cycle; each warm
    start is the dense solution of the previous step."""
    sx, sy, tx, ty = make_shifted_pair([seed, 0], n1=n, n2=n, n3=10, m=6,
                                       shift=1.5, rot_deg=30.0)
    pair = DatasetPair(sx, sy, tx, ty[:10])
    hp = Hyperparams(**hp_kwargs).resolved(pair.m)
    ctx = weight_context(pair, hp)
    rng = np.random.default_rng(seed)
    pi = np.ones(n)
    start = rng.standard_normal((pair.m, hp.r))
    for _ in range(cycles):
        theta = np.linalg.qr(start + 0.2 * rng.standard_normal(start.shape))[0].T
        phi_vec = 0.1 * rng.standard_normal(pair.m)
        problem = build_weight_problem(phi_vec, theta, ctx)
        yield problem, pi
        pi = solve(dense_copy(problem), warm_start=pi)


def with_basis(qp, basis):
    """The weight QP ``qp`` on a Hessian whose fixed part is a copy of the
    fit's that carries ``basis`` instead, with its columns for the
    features solved on that basis."""
    fixed = copy.copy(qp.h.fixed)
    fixed.__dict__.pop("feature_columns", None)
    fixed.basis = basis
    return dataclasses.replace(qp, h=GramHessian(fixed, qp.h.coef, qp.h.b))


def dense_kkt_matrix(h0):
    """The bordered KKT matrix [[H0, 1], [1', 0]]."""
    n = h0.shape[0]
    k0 = np.ones((n + 1, n + 1))
    k0[:n, :n] = h0
    k0[n, n] = 0.0
    return k0


def dense_kkt_inverse(h0):
    """The explicit inverse of the bordered KKT matrix [[H0, 1], [1', 0]]."""
    return np.linalg.inv(dense_kkt_matrix(h0))


def extended_kkt_solve(h0, b):
    """K0^-1 b for K0 = [[H0, 1], [1', 0]]: a dense solve refined twice
    with its residual formed in np.longdouble."""
    k0 = dense_kkt_matrix(h0)
    y = np.linalg.solve(k0, b)
    for _ in range(2):
        residual = b.astype(np.longdouble) - k0.astype(np.longdouble) @ y.astype(np.longdouble)
        y = y + np.linalg.solve(k0, residual.astype(float))
    return y


def packed_factor(basis):
    """The lower Cholesky factor L of a KktBasis, unpacked from its block rows."""
    factor = np.zeros((basis.n, basis.n))
    for row in basis._rows:
        i, j = row.shape[1] - row.shape[0], row.shape[1]
        factor[i:j, :j] = row
    return factor


WEIGHT_QP_VARIANTS = [
    {}, {"c3": 0.0}, {"delta": 1.05}, {"loss": "logistic", "c2": 0.3, "c3": 20.0},
]


def unit_columns(rhs):
    """The indices of rhs's columns when each is a unit vector, else None."""
    if rhs.ndim != 2 or not np.array_equal(np.abs(rhs).sum(axis=0), np.ones(rhs.shape[1])):
        return None
    idx = np.abs(rhs).argmax(axis=0)
    return idx if np.array_equal(rhs[idx, np.arange(rhs.shape[1])], np.ones(idx.size)) else None


def count_basis_solves(monkeypatch, counts):
    """Count KktBasis solves into ``counts``: ``columns`` for each column of
    M0 solved at a fixed index, ``repeated`` for one already solved on the
    same basis, and ``other_solves`` for every other solve."""
    solved = {}
    basis_solve = qp_solver.KktBasis.solve

    def solve(self, rhs, *args, **kwargs):
        idx = unit_columns(np.asarray(rhs))
        if idx is None:
            counts["other_solves"] += 1
        else:
            seen = solved.setdefault(self, set())
            counts["columns"] += idx.size
            counts["repeated"] += len(seen & set(idx.tolist()))
            seen.update(idx.tolist())
        return basis_solve(self, rhs, *args, **kwargs)

    monkeypatch.setattr(qp_solver.KktBasis, "solve", solve)


def count_steps(monkeypatch):
    """Count Schur steps taken and rejected, dense free-set steps solved,
    and the basis solves that the Schur steps make: ``step_solves`` for
    solves of anything but a fixed index's column, and ``repeated`` for a
    column solved before on the same basis."""
    counts = Counter()
    in_steps = Counter()
    count_basis_solves(monkeypatch, in_steps)
    schur_step = qp_solver._SchurSteps.step
    dense_step = qp_solver._free_subproblem

    def schur(self, *args):
        before = in_steps.copy()
        found = schur_step(self, *args)
        counts["step_solves"] += in_steps["other_solves"] - before["other_solves"]
        counts["repeated"] += in_steps["repeated"] - before["repeated"]
        counts["schur" if found is not None else "rejected"] += 1
        return found

    def dense(*args):
        counts["dense"] += 1
        return dense_step(*args)

    monkeypatch.setattr(qp_solver._SchurSteps, "step", schur)
    monkeypatch.setattr(qp_solver, "_free_subproblem", dense)
    return counts


@pytest.mark.parametrize("hp_kwargs", WEIGHT_QP_VARIANTS)
def test_basis_solve_matches_dense_path(monkeypatch, hp_kwargs):
    counts = count_steps(monkeypatch)
    fast = Counter()
    first = Counter()
    for seed in range(3):
        for cycle, (qp, warm) in enumerate(weight_problem_sequence(seed, **hp_kwargs)):
            assert qp.h.basis is not None
            # the Schur columns are the r = 5 rows of gamma, none without matching
            q = 0 if hp_kwargs.get("c3") == 0.0 else 5
            assert qp_solver._SchurSteps(qp).u.shape == (qp.n, q)
            reference = solve(dense_copy(qp), warm_start=warm)
            counts.clear()
            x = solve(qp, warm_start=warm)
            fast.update(counts)
            if cycle == 0:
                first.update(counts)
            assert np.abs(x - reference).max() <= 1e-9
            assert kkt_residual(qp, x) <= 1e-8
    assert fast["schur"] > 0
    assert first["schur"] > 0
    assert fast["rejected"] == 0
    assert fast["step_solves"] == 0 and fast["repeated"] == 0
    if hp_kwargs.get("delta") == 1.05:
        # most weights end at a bound: once r + |fixed| >= |free| the dense
        # free-set system is solved instead
        assert fast["dense"] > 0


def test_mismatched_basis_falls_back_to_dense_path(monkeypatch):
    # the basis of another c2 and of another source graph of the same size:
    # steps from each fail their check against H and the dense free-set
    # system is solved instead
    counts = count_steps(monkeypatch)
    other_x = make_shifted_pair([9, 0], n1=80, n2=80, n3=10, m=6,
                                shift=1.5, rot_deg=30.0)[0]
    other = build_graph(other_x, 5)
    for problem, warm in weight_problem_sequence(4, cycles=2):
        wrong_c2 = kkt_basis(DenseH0(3.0 * problem.h.fixed.dense()))
        wrong_graph = ReconstructionHessian(other.indices, other.coeffs, 2.0, other_x).basis
        reference = solve(dense_copy(problem), warm_start=warm)
        for wrong in (wrong_c2, wrong_graph):
            qp = with_basis(problem, wrong)
            counts.clear()
            x = solve(qp, warm_start=warm)
            assert np.abs(x - reference).max() <= 1e-9
            assert kkt_residual(qp, x) <= 1e-8
            assert counts["rejected"] > 0 and counts["dense"] > 0


def test_perturbed_basis_steps_are_refined(monkeypatch):
    # the basis factored from the fit's own H0 perturbed by 1e-9 of its
    # size: a Schur step that fails its check against H is not refined on
    # the basis but solved again on the dense free-set path, to the dense
    # reference's solution
    counts = count_steps(monkeypatch)
    fast = Counter()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for problem, warm in weight_problem_sequence(seed):
            h0 = problem.h.fixed.dense()
            noise = rng.standard_normal(h0.shape)
            noise *= 1e-9 * np.abs(h0).max()
            qp = with_basis(problem, kkt_basis(DenseH0(h0 + 0.5 * (noise + noise.T))))
            reference = solve(dense_copy(problem), warm_start=warm)
            counts.clear()
            x = solve(qp, warm_start=warm)
            fast.update(counts)
            assert np.abs(x - reference).max() <= 1e-9
            assert kkt_residual(qp, x) <= 1e-8
    assert fast["rejected"] > 0
    assert fast["dense"] >= fast["rejected"]

@pytest.mark.parametrize("hp_kwargs", WEIGHT_QP_VARIANTS)
def test_all_free_solution_matches_basis_inverse(hp_kwargs):
    # M0 b read off M0 [H0 x; 1'x] = [x; 0], against K0^-1 b solved in
    # extended precision: the basis's refined solves hold it to 2.5e-13,
    # where unrefined solves through L alone read up to 1.05e-12
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for qp, warm in weight_problem_sequence(seed, **hp_kwargs):
            steps = qp_solver._SchurSteps(qp)
            h0 = qp.h.fixed.dense()
            for x in [warm, _feasible_start(qp, rng.uniform(qp.lower, qp.upper))]:
                b = np.append(-(qp.h @ x + qp.c), qp.eq_sum - x.sum())
                expected = extended_kkt_solve(h0, b)
                assert np.abs(steps.all_free(x) - expected).max() <= \
                    5e-13 * np.abs(expected).max()


def test_singular_kkt_matrix_has_no_basis():
    # the Cholesky factor of S fails on H0 = 0 (as for c2 = 0) and on a
    # k = 1 ring (I - W with a null vector per component); the estimated
    # condition number refuses the nearly singular diagonal
    assert kkt_basis(DenseH0(np.zeros((4, 4)))) is None
    assert kkt_basis(DenseH0(np.diag([1.0, 1e-12, 1e-12]))) is None
    assert kkt_basis(DenseH0(np.eye(4))) is not None
    parts = gram_parts()
    ring = (parts["indices"], parts["coeffs"])
    assert ReconstructionHessian(*ring, 0.0, parts["features"]).basis is None
    two_rings = np.array([[1], [2], [0], [4], [5], [3]])
    assert ReconstructionHessian(two_rings, np.ones((6, 1)), 2.0, parts["features"]).basis is None
    assert ReconstructionHessian(*ring, 2.0, parts["features"]).basis is not None


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 80, 800])
def test_packed_factor_matches_lapack_cholesky(n):
    # L formed block row by block row from H0's sparse terms, against
    # LAPACK's factor of the whole S = H0 + alpha 11', at and around the
    # edges of the 64-row blocks
    sx = make_shifted_pair([2016, 0], n1=n, n2=n, n3=n // 10, m=20,
                           shift=1.5, rot_deg=30.0)[0]
    graph = build_graph(sx, 5)
    fixed = ReconstructionHessian(graph.indices, graph.coeffs, 2.0, sx)
    expected = np.linalg.cholesky(fixed.dense() + fixed.basis._alpha)
    factor = packed_factor(fixed.basis)
    assert np.abs(factor - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.array_equal(factor, np.tril(factor))


def test_kkt_basis_holds_no_square_array():
    # at n = 800 the packed factor holds about n^2 / 2 floats; factoring S
    # whole held S and L, about twice 8 n^2 bytes
    n = 800
    sx = make_shifted_pair([2016, 0], n1=n, n2=n, n3=n // 10, m=20,
                           shift=1.5, rot_deg=30.0)[0]
    graph = build_graph(sx, 5)
    tracemalloc.start()
    try:
        basis = ReconstructionHessian(graph.indices, graph.coeffs, 2.0, sx).basis
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis is not None
    assert peak <= 8 * n * n


def test_kkt_basis_columns_match_dense_inverse_at_fit_size():
    # a fit_large-sized source graph (n = 800, k = 10): M0 read through the
    # Cholesky factor against the explicit inverse of K0, whole and as
    # kept columns, which repeat bit for bit
    sx = make_shifted_pair([2016, 0], n1=800, n2=800, n3=80, m=20,
                           shift=1.5, rot_deg=30.0)[0]
    graph = build_graph(sx, 10)
    fixed = ReconstructionHessian(graph.indices, graph.coeffs, 2.0, sx)
    m0 = dense_kkt_inverse(fixed.dense())
    scale = np.abs(m0).max()
    assert np.abs(fixed.basis.solve(np.eye(801)) - m0).max() <= 1e-12 * scale
    idx = np.array([799, 0, 411, 5, 411])
    columns = fixed.basis.columns(idx)
    assert np.abs(columns - m0[idx]).max() <= 1e-12 * scale
    assert np.array_equal(fixed.basis.columns(idx[::-1]), columns[::-1])


def test_features_form_needs_matching_features():
    # coef must span the fit's feature dimension; G = coef F' is then formed
    # from the features H0 was built with
    parts = gram_parts()
    fixed = ReconstructionHessian(parts["indices"], parts["coeffs"], 2.0,
                                  features=np.arange(18.0).reshape(6, 3))
    with pytest.raises(ValidationError, match="shapes"):
        GramHessian(fixed, np.ones((2, 4)), 1.0)
    h = GramHessian(fixed, np.ones((2, 3)), 1.0)
    assert np.array_equal(h.gamma, np.ones((2, 3)) @ fixed.features.T)


def seeded_weight_problem(seed, n=30, **hp_kwargs):
    sx, sy, tx, ty = make_shifted_pair([seed, 1], n1=n, n2=n, n3=5, m=4,
                                       shift=1.5, rot_deg=30.0)
    pair = DatasetPair(sx, sy, tx, ty[:5])
    hp = Hyperparams(**hp_kwargs).resolved(pair.m)
    rng = np.random.default_rng(seed)
    theta = np.linalg.qr(rng.standard_normal((pair.m, hp.r)))[0].T
    return build_weight_problem(rng.standard_normal(pair.m), theta, weight_context(pair, hp))


@pytest.mark.parametrize("hp_kwargs", [
    {}, {"k": 1}, {"k": 29}, {"c2": 0.0}, {"c3": 0.0}, {"c2": 0.0, "c3": 0.0},
])
def test_gram_hessian_matches_dense_formula(hp_kwargs):
    for seed in range(3):
        problem = seeded_weight_problem(seed, **hp_kwargs)
        h = problem.h
        reference = h.fixed.dense() + h.b * (h.gamma.T @ h.gamma)
        assert h.shape == reference.shape
        rng = np.random.default_rng(seed)
        for v in [np.ones(problem.n), *rng.standard_normal((5, problem.n))]:
            expected = reference @ v
            assert np.abs(h @ v - expected).max() <= \
                1e-12 * max(1.0, np.abs(reference).max() * np.abs(v).sum())
        assert np.abs(h.diagonal() - np.diag(reference)).max() <= \
            1e-12 * max(1.0, np.abs(reference).max())
        assert np.array_equal(h.dense(), reference)


def gram_parts(n=6, k=2, r=2, m=3):
    """A ring graph's factors (indices, coeffs, a) with n x m features and
    a rank-r term's (coef, b)."""
    rng = np.random.default_rng(0)
    indices = np.array([[(i + 1 + j) % n for j in range(k)] for i in range(n)])
    coeffs = np.full((n, k), 1.0 / k)
    return dict(indices=indices, coeffs=coeffs, a=2.0, features=rng.standard_normal((n, m)),
                coef=rng.standard_normal((r, m)), b=3.0)


def loop_coefficients(indices, coeffs):
    """W with W[i, j] the coefficient of neighbor j of point i, row by row."""
    n = indices.shape[0]
    w = np.zeros((n, n))
    for i in range(n):
        for j, coeff in zip(indices[i], coeffs[i]):
            w[i, j] += coeff
    return w


def test_gram_hessian_parts_accepted():
    parts = gram_parts()
    fixed = ReconstructionHessian(parts["indices"], parts["coeffs"], parts["a"],
                                  parts["features"])
    h = GramHessian(fixed, parts["coef"], parts["b"])
    # G = coef F', formed by the constructor
    gamma = parts["coef"] @ parts["features"].T
    assert np.array_equal(h.gamma, gamma)
    r_mat = np.eye(6) - loop_coefficients(parts["indices"], parts["coeffs"])
    h0 = 2.0 * (r_mat.T @ r_mat)
    expected = h0 + 3.0 * gamma.T @ gamma
    v = np.arange(6.0)
    assert np.abs(fixed @ v - h0 @ v).max() <= 1e-12 * np.abs(h0).max() * 15
    assert np.abs(h @ v - expected @ v).max() <= 1e-12 * np.abs(expected).max() * 15
    assert np.abs(h.diagonal() - np.diag(expected)).max() <= 1e-12 * np.abs(expected).max()
    assert np.abs(fixed.residual(v) - r_mat @ v).max() <= 1e-12 * np.abs(v).max()
    assert h.fixed is fixed and h.basis is fixed.basis


@pytest.mark.parametrize("k, a", [(2, 2.0), (3, 0.6), (6, 1.0), (1, 2.0)])
def test_reconstruction_hessian_matches_loop(k, a):
    # H0 against a (I - W)'(I - W) with W scattered by a loop over the graph
    points = np.random.default_rng(k).standard_normal((12, 3))
    graph = build_graph(points, k)
    w = loop_coefficients(graph.indices, graph.coeffs)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-8
    assert np.all(np.diag(w) == 0.0)
    fixed = ReconstructionHessian(graph.indices, graph.coeffs, a, points)
    r_mat = np.eye(12) - w
    expected = a * (r_mat.T @ r_mat)
    assert fixed.dense().shape == (12, 12) and fixed.n == 12
    assert np.abs(fixed.dense() - expected).max() <= 1e-14 * np.abs(expected).max()
    assert np.array_equal(fixed.h0_diagonal, np.diag(fixed.dense()))
    if fixed.basis is not None:
        m0 = dense_kkt_inverse(expected)
        assert np.abs(fixed.basis.solve(np.eye(13)) - m0).max() <= 1e-12 * np.abs(m0).max()
    # the ring of a k = 1 graph leaves I - W a null vector per component
    assert (fixed.basis is None) == (k == 1)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_reconstruction_hessian_block_matches_slice(k):
    # H0[idx, idx] scattered from the terms inside the block repeats the
    # slice of the whole H0 bit for bit, for sorted and unsorted idx
    rng = np.random.default_rng(k)
    points = rng.standard_normal((30, 3))
    graph = build_graph(points, k)
    fixed = ReconstructionHessian(graph.indices, graph.coeffs, 0.6, points)
    whole = fixed.dense()
    subset = rng.choice(30, 11, replace=False)
    for idx in [np.array([], dtype=int), np.array([17]), subset, np.sort(subset),
                np.arange(30)]:
        block = fixed.dense(idx)
        assert block.shape == (idx.size, idx.size) and block.dtype == whole.dtype
        assert block.tobytes() == whole[np.ix_(idx, idx)].tobytes()


@pytest.mark.parametrize("hp_kwargs", [{}, {"k": 1}, {"c2": 0.0}, {"c3": 0.0}])
def test_gram_hessian_block_matches_formula(hp_kwargs):
    # H[idx, idx] is H0's block plus b G_F'G_F exactly; against the slice of
    # the whole H the Gram products round apart by a few ulps
    for seed in range(3):
        h = seeded_weight_problem(seed, **hp_kwargs).h
        whole = h.dense()
        rng = np.random.default_rng(seed)
        for idx in [np.array([4]), np.sort(rng.choice(h.shape[0], 12, replace=False)),
                    np.arange(h.shape[0])]:
            gamma = h.gamma[:, idx]
            block = h.dense(idx)
            assert np.array_equal(block, h.fixed.dense(idx) + h.b * (gamma.T @ gamma))
            sliced = whole[np.ix_(idx, idx)]
            assert np.abs(block - sliced).max() <= 1e-14 * np.abs(sliced).max()


class _SecondQp(Exception):
    """Stops a fit once its second weight QP is captured."""


def test_tight_box_weight_qp_holds_no_square_array(monkeypatch):
    # the second weight QP of an n = 400, delta = 1.05 fit ends with most
    # weights at a bound, so its steps solve the dense free-set system; with
    # the fit's basis and feature columns formed beforehand, solving it
    # allocates less than one n x n float array
    captured = []

    def capture(problem, warm_start=None):
        captured.append((problem, warm_start))
        if len(captured) == 2:
            raise _SecondQp
        return update_pi(problem, warm_start=warm_start)

    monkeypatch.setattr(trainer, "update_pi", capture)
    n = 400
    sx, sy, tx, ty = make_shifted_pair([2016, 0], n1=n, n2=n, n3=40, m=20,
                                       shift=1.5, rot_deg=30.0)
    with pytest.raises(_SecondQp):
        fit(DatasetPair(sx, sy, tx, ty[:40]), Hyperparams(delta=1.05))
    problem, warm = captured[1]
    used = problem.h.fixed
    fixed = ReconstructionHessian(used.indices, used.coeffs, used.a, used.features)
    # the parts formed once per fit, before the measured solve
    assert fixed.basis is not None
    assert fixed.feature_columns.shape == (n + 1, 20) and fixed.h0_diagonal.shape == (n,)
    qp = dataclasses.replace(problem, h=GramHessian(fixed, problem.h.coef, problem.h.b))
    counts = count_steps(monkeypatch)
    tracemalloc.start()
    try:
        x = solve(qp, warm_start=warm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts["dense"] > 0
    assert peak <= 8 * n * n
    assert kkt_residual(qp, x) <= 1e-8


@pytest.mark.parametrize("field, value, message", [
    ("a", -1.0, "nonnegative"),
    ("b", -1e-300, "nonnegative"),
    ("a", np.nan, "nonnegative"),
    ("b", np.inf, "nonnegative"),
    ("coef", np.array([[np.nan] * 3, [0.0] * 3]), "non-finite"),
    ("coeffs", np.array([[np.inf, 0.0]] + [[0.5, 0.5]] * 5), "non-finite"),
    ("indices", np.array([[1, 6]] + [[0, 1]] * 5), "out of range"),
    ("indices", np.array([[1, -1]] + [[2, 3]] * 5), "out of range"),
    ("indices", np.full((6, 2), 1.0), "out of range"),
    ("coeffs", np.full((6, 3), 0.5), "shapes"),
    ("indices", np.arange(6), "shapes"),
    # a coef of another feature dimension than the features'
    ("coef", np.zeros((2, 4)), "shapes"),
    ("coef", np.zeros(3), "shapes"),
    ("features", np.zeros((5, 2)), "shapes"),
    ("features", np.zeros(6), "shapes"),
    ("features", np.full((6, 2), np.inf), "non-finite"),
])
def test_gram_hessian_rejects_bad_parts(field, value, message):
    # the graph factors, a and the features are ReconstructionHessian's to
    # check, coef (with G = coef F') and b GramHessian's
    parts = gram_parts()
    parts[field] = value
    recon = {name: parts.pop(name) for name in ("indices", "coeffs", "a", "features")}
    if field in recon:
        with pytest.raises(ValidationError, match=message):
            ReconstructionHessian(**recon)
    else:
        fixed = ReconstructionHessian(**recon)
        with pytest.raises(ValidationError, match=message):
            GramHessian(fixed, **parts)


def test_reconstruction_hessian_rejects_flat_factors():
    # indices and coeffs of one shape, but not n x k
    with pytest.raises(ValidationError, match="shapes"):
        ReconstructionHessian(np.arange(6), np.full(6, 0.5), 2.0, np.zeros((6, 1)))


@pytest.mark.parametrize("hp_kwargs", WEIGHT_QP_VARIANTS)
def test_factored_weight_qp_matches_dense_reference(monkeypatch, hp_kwargs):
    # update_pi(problem) takes Schur steps on the fit's basis, which rides on
    # the problem, and makes no product with M0
    counts = count_steps(monkeypatch)
    formed = Counter()
    form_dense = GramHessian.dense

    def dense(self, idx=None):
        formed["whole" if idx is None else "block"] += 1
        return form_dense(self, idx)

    monkeypatch.setattr(GramHessian, "dense", dense)
    fast = Counter()
    for seed in range(3):
        for problem, warm in weight_problem_sequence(seed, **hp_kwargs):
            counts.clear()
            formed.clear()
            x = update_pi(problem, warm_start=warm)
            fast.update(counts)
            # each dense free-set step forms only its block H_FF, never all of H
            assert formed["whole"] == 0
            assert formed["block"] == counts["dense"]
            qp = dense_copy(problem)
            assert np.abs(x - solve(qp, warm_start=warm)).max() <= 1e-9
            assert kkt_residual(qp, x) <= 1e-8
    assert fast["schur"] > 0
    assert fast["rejected"] == 0
    assert fast["step_solves"] == 0 and fast["repeated"] == 0


def test_fit_builds_one_kkt_basis(monkeypatch):
    # S = H0 + alpha 11' is factored once, at the fit's first Schur step,
    # and the basis solves M0 [X_s; 0] once and each fixed index's column
    # at most once; with delta = 1 every weight starts at its upper bound, no step
    # is taken, and the no-weighting ablation factors nothing
    sx, sy, tx, ty = make_shifted_pair([5, 0], n1=60, n2=60, n3=10, m=5,
                                       shift=1.5, rot_deg=30.0)
    pair = DatasetPair(sx, sy, tx, ty[:10])
    factored = Counter()
    cholesky = np.linalg.cholesky

    def counted(a):
        factored["cholesky"] += np.shape(a) == (60, 60)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    solves = Counter()
    count_basis_solves(monkeypatch, solves)
    panel = qp_solver.KktBasis.solve

    def features_counted(self, rhs, *args, **kwargs):
        factored["features"] += np.array_equal(np.asarray(rhs)[:60], pair.source_x)
        return panel(self, rhs, *args, **kwargs)

    monkeypatch.setattr(qp_solver.KktBasis, "solve", features_counted)
    block = ReconstructionHessian.dense

    def blocks_only(self, idx=None):
        # the basis is factored from H0's rows: no fit forms all of H0
        assert idx is not None
        return block(self, idx)

    monkeypatch.setattr(ReconstructionHessian, "dense", blocks_only)
    for delta, formed in ((3.0, 1), (1.0, 0)):
        factored.clear()
        solves.clear()
        _, trace = fit(pair, Hyperparams(tol=1e-12, max_outer_iters=4, delta=delta))
        assert trace.n_iters == 4
        assert (factored["cholesky"], factored["features"]) == (formed, formed)
        assert solves["repeated"] == 0
        assert (solves["columns"] > 0) == (delta == 3.0)


K1_PANEL_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "k1_panel_seed{}.npz")


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_k1_panel_fixture_rebuilds_without_basis(seed):
    # the weight QP on which a k = 1 panel fit stops with "QP did not
    # converge", written by tests/data/capture_k1_panel.py
    with np.load(K1_PANEL_FIXTURE.format(seed)) as data:
        qp_data = dict(data)
    # the features G' with coef = I rebuild the saved G bit for bit
    gamma = qp_data["gamma"]
    fixed = ReconstructionHessian(qp_data["indices"], qp_data["coeffs"], qp_data["a"],
                                  gamma.T)
    # a k = 1 graph leaves I - W more than one null vector: the dense path
    assert fixed.indices.shape[1] == 1 and fixed.basis is None
    h = GramHessian(fixed, np.eye(gamma.shape[0]), qp_data["b"])
    assert h.basis is None and h.gamma.tobytes() == gamma.tobytes()
    qp = QpProblem(h, qp_data["c"], qp_data["lower"], qp_data["upper"], qp_data["eq_sum"])
    qp_solver._validate(qp)
    warm = qp_data["warm_start"]
    assert qp.n == 200 and warm.shape == (qp.n,)
    assert np.abs(_feasible_start(qp, warm) - warm).max() <= 1e-12
