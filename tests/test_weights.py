import dataclasses

import numpy as np
import pytest

from subadapt.classifier import ObjectiveContext
from subadapt.data_model import DatasetPair, Hyperparams
from subadapt.losses import loss_value
from subadapt.neighborhood import build_graph
from subadapt.qp_solver import GramHessian, QpProblem, ReconstructionHessian, solve
from subadapt.subspace import projected_means
from subadapt.trainer import full_objective
from subadapt.weights import build_weight_problem, update_pi


def make_instance(rng, n1=6, n2=5, m=3, **hp_kwargs):
    xs = rng.standard_normal((n1, m))
    ys = np.where(rng.random(n1) < 0.5, 1, -1)
    xt = rng.standard_normal((n2, m))
    yt = np.where(rng.random(2) < 0.5, 1, -1)
    pair = DatasetPair(xs, ys, xt, yt)
    hp_kwargs.setdefault("k", 2)
    hp = Hyperparams(**hp_kwargs).resolved(m)
    # the weight step reads only the source graph; the target one sizes the context
    ctx = ObjectiveContext(pair, build_graph(xs, hp.k), build_graph(xt, min(hp.k, n2 - 1)), hp)
    theta = np.linalg.qr(rng.standard_normal((m, hp.r)))[0].T
    phi_vec = rng.standard_normal(m)
    return pair, hp, ctx, theta, phi_vec


def projected_target_mean(pair, theta):
    """vartheta: the target mean in the subspace."""
    return (pair.target_x @ theta.T).mean(axis=0)


def matching_constant(pair, hp, theta):
    """0.5 c3 ||vartheta||^2: the weight objective's part that the QP leaves out."""
    vartheta = projected_target_mean(pair, theta)
    return 0.5 * hp.c3 * float(vartheta @ vartheta)


def random_feasible_pi(rng, n1, delta):
    pi = rng.uniform(0.0, min(delta, 2.0), n1)
    pi *= n1 / pi.sum()
    return np.clip(pi, 0.0, delta)


def test_tau_is_one_for_zero_hinge_classifier():
    rng = np.random.default_rng(0)
    pair, hp, ctx, theta, _ = make_instance(rng, loss="hinge")
    problem = build_weight_problem(np.zeros(3), theta, ctx)
    # c = tau - c3 gamma'vartheta
    matching = hp.c3 * (problem.h.gamma.T @ projected_target_mean(pair, theta))
    assert problem.c + matching == pytest.approx(np.ones(pair.n1), abs=1e-15)


def test_recon_quad_zero_without_c2():
    rng = np.random.default_rng(1)
    pair, hp, ctx, theta, phi_vec = make_instance(rng, c2=0.0)
    problem = build_weight_problem(phi_vec, theta, ctx)
    assert np.abs(ctx.fixed.dense()).max() == 0.0
    assert np.array_equal(problem.h.dense(),
                          hp.c3 * (problem.h.gamma.T @ problem.h.gamma))


def test_gamma_and_vartheta_definitions():
    rng = np.random.default_rng(2)
    pair, hp, ctx, theta, phi_vec = make_instance(rng)
    problem = build_weight_problem(phi_vec, theta, ctx)
    gamma = problem.h.gamma
    for i in range(pair.n1):
        assert gamma[:, i] == pytest.approx(
            theta @ pair.source_x[i] / pair.n1, abs=1e-12)
    # vartheta enters only through c = tau - c3 gamma'vartheta
    tau = loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec)
    vartheta = np.mean([theta @ x for x in pair.target_x], axis=0)
    assert problem.c == pytest.approx(tau - hp.c3 * (gamma.T @ vartheta), abs=1e-12)


def test_qp_matrices_consistent_with_objective_terms():
    # the assembled quadratic must reproduce the pi-dependent terms of the
    # full training objective at arbitrary feasible weights
    rng = np.random.default_rng(3)
    pair, hp, ctx, theta, phi_vec = make_instance(
        rng, c1=0.0, c2=0.8, c3=5.0, loss="logistic")
    problem = build_weight_problem(phi_vec, theta, ctx)
    h, c = problem.h.dense(), problem.c
    constant = matching_constant(pair, hp, theta)
    for _ in range(20):
        pi = random_feasible_pi(rng, pair.n1, hp.delta)
        qp_value = 0.5 * pi @ h @ pi + c @ pi + constant

        losses = loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec)
        direct = float(losses @ pi)
        resid = pi - np.array([ctx.fixed.coeffs[i] @ pi[ctx.fixed.indices[i]]
                               for i in range(pair.n1)])
        direct += hp.c2 * float(resid @ resid)
        means = projected_means(theta, pair, pi)
        gap = means.mu_s_pi - means.mu_t
        direct += 0.5 * hp.c3 * float(gap @ gap)

        assert abs(qp_value - direct) <= 1e-9
        assert abs(problem.objective(pi) + constant - direct) <= 1e-9


@pytest.mark.parametrize("hp_kwargs", [{}, {"k": 1}, {"k": 11}, {"c2": 0.0}, {"c3": 0.0}])
def test_objective_from_sparse_residual_matches_dense_formula(hp_kwargs):
    rng = np.random.default_rng(12)
    for _ in range(3):
        pair, hp, ctx, theta, phi_vec = make_instance(rng, n1=12, **hp_kwargs)
        problem = build_weight_problem(phi_vec, theta, ctx)
        assert problem.h.fixed is ctx.fixed and ctx.fixed.a == 2.0 * hp.c2
        tau = loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec)
        constant = matching_constant(pair, hp, theta)
        for pi in (np.ones(pair.n1), random_feasible_pi(rng, pair.n1, hp.delta)):
            gap = problem.h.gamma @ pi - projected_target_mean(pair, theta)
            dense = float(tau @ pi + 0.5 * (pi @ ctx.fixed.dense() @ pi)
                          + 0.5 * hp.c3 * (gap @ gap))
            assert abs(problem.objective(pi) + constant - dense) <= \
                1e-12 * max(1.0, abs(dense))


def test_uniform_weights_optimal_without_matching():
    # constant tau and rows summing to one leave no preference among
    # feasible weights; the solved point must tie the uniform objective
    rng = np.random.default_rng(4)
    pair, hp, ctx, theta, _ = make_instance(rng, c2=1.5, c3=0.0, loss="hinge")
    problem = build_weight_problem(np.zeros(3), theta, ctx)
    pi = update_pi(problem)
    uniform = np.ones(pair.n1)
    assert problem.objective(pi) <= problem.objective(uniform) + 1e-8
    assert problem.objective(pi) == pytest.approx(problem.objective(uniform), abs=1e-6)


def test_two_point_linear_corner():
    fixed = ReconstructionHessian(np.array([[1], [0]]), np.ones((2, 1)), 0.0, np.zeros((2, 1)))
    problem = QpProblem(GramHessian(fixed, np.zeros((1, 1)), 0.0), c=[0.0, 10.0],
                        lower=np.zeros(2), upper=np.full(2, 2.0), eq_sum=2.0)
    assert update_pi(problem) == pytest.approx([2.0, 0.0], abs=1e-10)


def test_update_pi_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        pair, hp, ctx, theta, phi_vec = make_instance(
            rng, n1=4, c2=0.6, c3=3.0, delta=1.5, loss="logistic")
        problem = build_weight_problem(phi_vec, theta, ctx)
        pi = update_pi(problem)
        h, c = problem.h.dense(), problem.c
        best = np.inf
        grid = np.arange(0.0, hp.delta + 1e-12, 0.01)
        g2, g3 = np.meshgrid(grid, grid, indexing="ij")
        for a in grid:
            g4 = 4.0 - a - g2 - g3
            keep = (g4 >= 0.0) & (g4 <= hp.delta)
            if not keep.any():
                continue
            pts = np.column_stack(
                [np.full(int(keep.sum()), a), g2[keep], g3[keep], g4[keep]])
            values = 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts) + pts @ c
            best = min(best, float(values.min()))
        assert problem.objective(pi) <= best + 1e-4


def test_update_pi_feasibility():
    rng = np.random.default_rng(6)
    pair, hp, ctx, theta, phi_vec = make_instance(rng, n1=9, c3=40.0)
    problem = build_weight_problem(phi_vec, theta, ctx)
    pi = update_pi(problem)
    assert pi.min() >= -1e-8
    assert pi.max() <= hp.delta + 1e-8
    assert abs(pi.sum() - pair.n1) <= 1e-8 * pair.n1


def test_update_pi_never_increases_full_objective():
    rng = np.random.default_rng(7)
    for trial in range(5):
        pair, hp, ctx, theta, phi_vec = make_instance(
            rng, n1=7, c2=0.5, c3=20.0, loss="hinge")
        w = rng.standard_normal(hp.r)
        varphi_vec = rng.standard_normal(3)
        pi0 = random_feasible_pi(rng, pair.n1, hp.delta)
        problem = build_weight_problem(phi_vec, theta, ctx)
        pi1 = update_pi(problem, warm_start=pi0)
        before = full_objective(theta, w, phi_vec, varphi_vec, pi0, ctx).total
        after = full_objective(theta, w, phi_vec, varphi_vec, pi1, ctx).total
        assert after <= before + 1e-8


def test_matching_improvement_over_uniform():
    rng = np.random.default_rng(8)
    for _ in range(5):
        pair, hp, ctx, theta, phi_vec = make_instance(rng, n1=8, c3=30.0)
        problem = build_weight_problem(phi_vec, theta, ctx)
        pi = update_pi(problem)
        assert problem.objective(pi) <= problem.objective(np.ones(pair.n1)) + 1e-8


def dense_reference(problem, warm_start):
    """The weight QP solved on the dense matrix of its Hessian."""
    return solve(dataclasses.replace(problem, h=problem.h.dense()), warm_start=warm_start)


@pytest.mark.parametrize("hp_kwargs", [{}, {"c3": 0.0}, {"delta": 1.05}])
def test_update_pi_with_fit_state_matches_standalone(hp_kwargs):
    # consecutive cycles of one fit share the fit's one KKT basis, which
    # rides on each problem; the dense H is the reference
    rng = np.random.default_rng(10)
    pair, hp, ctx, theta, phi_vec = make_instance(
        rng, n1=40, n2=30, m=5, k=4, **hp_kwargs)
    pi = np.ones(pair.n1)
    for _ in range(4):
        theta = np.linalg.qr(theta.T + 0.1 * rng.standard_normal(theta.T.shape))[0].T
        phi_vec = phi_vec + 0.1 * rng.standard_normal(phi_vec.shape)
        problem = build_weight_problem(phi_vec, theta, ctx)
        hessian = problem.h
        assert hessian.fixed is ctx.fixed and hessian.basis is ctx.fixed.basis
        fast = update_pi(problem, warm_start=pi)
        reference = dense_reference(problem, pi)
        assert np.abs(fast - reference).max() <= 1e-9
        pi = reference
    assert ctx.fixed.basis is not None


def test_update_pi_depends_only_on_the_problem():
    # two fits of the same size, with different graphs and c2: each problem
    # is solved against its own fit's fixed part, whatever was solved before
    rng = np.random.default_rng(13)
    instances = [make_instance(rng, n1=40, n2=30, m=5, k=4, c2=c2) for c2 in (1.0, 3.0)]
    problems = [build_weight_problem(phi_vec, theta, ctx)
                for pair, hp, ctx, theta, phi_vec in instances]
    assert all(instance[2].fixed.basis is not None for instance in instances)
    first = [update_pi(problem) for problem in problems]
    for problem, pi in zip(problems, first):
        assert np.abs(pi - dense_reference(problem, None)).max() <= 1e-9
    for problem, pi in zip(reversed(problems), reversed(first)):
        assert update_pi(problem).tobytes() == pi.tobytes()


@pytest.mark.parametrize("hp_kwargs", [{"c2": 0.0}, {"k": 1}])
def test_fit_state_has_no_basis_for_singular_kkt(hp_kwargs):
    # c2 = 0 leaves the fixed part zero; k = 1 gives (I - W) one null vector
    # per connected component of the nearest-neighbor graph
    rng = np.random.default_rng(11)
    _, _, ctx, _, _ = make_instance(
        rng, n1=40, n2=30, m=5, **hp_kwargs)
    assert ctx.fixed.basis is None
