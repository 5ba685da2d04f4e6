"""The outer block-coordinate loop: full-objective evaluation as five named
terms on the fit's one ``ObjectiveContext``, initialization, convergence,
and a monotonicity-auditable trace read off the terms after each block.

Block order per cycle: projection (exact eigen-step), shared classifier
(closed form), classifier vectors (backtracked descent), source weights
(constrained QP). Each exact block minimizes its subproblem globally, the
descent block only accepts improving steps, so the full objective is
nonincreasing across every block boundary up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .classifier import ObjectiveContext, recover_u_v, update_phi_varphi
from .data_model import DatasetPair, Hyperparams, ModelState, ValidationError, validate
from .losses import loss_value
from .neighborhood import build_graph
from .qp_solver import ReconstructionHessian
from .subspace import build_phi, projected_means, update_theta, update_w
from .weights import build_weight_problem, update_pi


@dataclass
class TrainingTrace:
    """Per-outer-iteration observability for the training loop.

    The three objective lists record the full objective after each block
    boundary of a cycle; flattened in order they form a nonincreasing
    sequence up to small slack. ``inner_steps``, ``inner_proposals`` and
    ``inner_hit_step_floor`` record each cycle's accepted descent steps, its
    scored proposals (accepted steps plus halvings), and whether the descent
    stopped because no halved step decreased the objective. The weight-step
    objective pair records the solved QP value against the value at uniform
    weights; the two are equal when delta = 1.
    """

    objective_after_subspace: list = field(default_factory=list)
    objective_after_classifier: list = field(default_factory=list)
    objective_after_weights: list = field(default_factory=list)
    terms_after_subspace: list = field(default_factory=list)
    terms_after_classifier: list = field(default_factory=list)
    terms_after_weights: list = field(default_factory=list)
    q_value: list = field(default_factory=list)
    pi_min: list = field(default_factory=list)
    pi_max: list = field(default_factory=list)
    pi_mean: list = field(default_factory=list)
    inner_steps: list = field(default_factory=list)
    inner_proposals: list = field(default_factory=list)
    inner_hit_step_floor: list = field(default_factory=list)
    pi_step_objective: list = field(default_factory=list)
    pi_step_objective_uniform: list = field(default_factory=list)
    n_iters: int = 0
    stop_reason: str = ""


@dataclass(frozen=True)
class IterationSnapshot:
    """Copies of the raw parameters after one full block cycle."""

    iteration: int
    theta: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    varphi: np.ndarray
    pi: np.ndarray


class ObjectiveTerms(NamedTuple):
    """The five terms of the training objective at one point."""

    source_loss: float
    target_loss: float
    adaptation: float
    reconstruction: float
    matching: float

    @property
    def total(self) -> float:
        # summed left to right in this order, so totals keep their exact bits
        return self.source_loss + self.target_loss + self.adaptation \
            + self.reconstruction + self.matching


def full_objective(theta, w, phi_vec, varphi_vec, pi,
                   ctx: ObjectiveContext) -> ObjectiveTerms:
    """The five named terms of the training objective at the given parameters."""
    pi = np.asarray(pi, dtype=float)
    if not np.isfinite(pi).all():
        raise ValidationError("non-finite pi in the objective")
    pair, hp = ctx.pair, ctx.hp

    source = float(loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec) @ pi)
    target = 0.0
    if pair.n3:
        target = float(loss_value(hp.loss, pair.target_y, ctx.xt_lab @ varphi_vec).sum())

    u, v = recover_u_v(theta, w, phi_vec, varphi_vec)
    adaptation = 0.5 * hp.c1 * (float(u @ u) + float(v @ v))

    pi_resid = ctx.graph_s.residual_vectors(pi[:, None])[:, 0]
    h_resid = ctx.target_resid @ varphi_vec
    reconstruction = hp.c2 * (float(pi_resid @ pi_resid) + float(h_resid @ h_resid))

    means = projected_means(theta, pair, pi)
    gap = means.mu_s_pi - means.mu_t
    return ObjectiveTerms(source, target, adaptation, reconstruction,
                          0.5 * hp.c3 * float(gap @ gap))


def block_cycle(theta, w, phi_vec, varphi_vec, pi, ctx: ObjectiveContext,
                weights: ReconstructionHessian, update_subspace=True):
    """Run one full block cycle. Returns the new (theta, w, phi, varphi, pi),
    the objective terms after each of the three blocks, the descent's
    InnerTrace, and the weight QP's (solved, uniform) objectives. ``weights``
    is the fit's fixed H0 of the weight QP."""
    pair, hp = ctx.pair, ctx.hp
    if update_subspace:
        phi_mat = build_phi(phi_vec, varphi_vec, pi, pair, hp)
        theta = update_theta(phi_mat, hp.r, prev_theta=theta)
        w = update_w(theta, phi_vec, varphi_vec)
    after_subspace = full_objective(theta, w, phi_vec, varphi_vec, pi, ctx)

    # hp goes by keyword: the benchmark's descent counter reads it there
    phi_vec, varphi_vec, inner = update_phi_varphi(
        phi_vec, varphi_vec, theta, w, pi, ctx, hp=hp)
    after_classifier = full_objective(theta, w, phi_vec, varphi_vec, pi, ctx)

    problem = build_weight_problem(phi_vec, theta, pair, weights, hp)
    pi = update_pi(problem, warm_start=pi)
    qp_objectives = (problem.objective(pi), problem.objective(np.ones(pair.n1)))
    after_weights = full_objective(theta, w, phi_vec, varphi_vec, pi, ctx)
    return ((theta, w, phi_vec, varphi_vec, pi),
            (after_subspace, after_classifier, after_weights), inner, qp_objectives)


def fit(pair: DatasetPair, hp: Hyperparams, *, update_subspace=True,
        iteration_callback=None):
    """Train the model by block-coordinate descent.

    Neighbor graphs are built once from the raw features. Classifier
    vectors and the shared classifier start at zero, weights at one, and
    the projection takes its first-update value. Stops when the relative
    objective change falls below ``hp.tol`` or after ``hp.max_outer_iters``
    cycles; hitting the cap is recorded, not raised.

    ``update_subspace=False`` skips the projection block, keeping an
    identity prefix projection with a zero shared classifier. The weight
    block always runs; ``hp.delta = 1`` makes its box hold only pi = 1, so
    that setting is the no-weighting ablation.

    Returns (ModelState, TrainingTrace).
    """
    validate(pair, hp)
    hp = hp.resolved(pair.m)
    graph_s = build_graph(pair.source_x, hp.k)
    graph_t = build_graph(pair.target_x, hp.k)
    ctx = ObjectiveContext(pair, graph_s, graph_t, hp)

    m, r = pair.m, hp.r
    phi_vec = np.zeros(m)
    varphi_vec = np.zeros(m)
    w = np.zeros(r)
    pi = np.ones(pair.n1)
    theta = None if update_subspace else np.eye(r, m)
    weights = ReconstructionHessian(graph_s.indices, graph_s.coeffs, 2.0 * hp.c2)

    trace = TrainingTrace()
    prev_objective = None
    stop_reason = "max_iters"

    for iteration in range(hp.max_outer_iters):
        (theta, w, phi_vec, varphi_vec, pi), terms, inner, qp_objectives = block_cycle(
            theta, w, phi_vec, varphi_vec, pi, ctx, weights,
            update_subspace=update_subspace)

        trace.objective_after_subspace.append(terms[0].total)
        trace.objective_after_classifier.append(terms[1].total)
        trace.objective_after_weights.append(terms[2].total)
        trace.terms_after_subspace.append(terms[0]._asdict())
        trace.terms_after_classifier.append(terms[1]._asdict())
        trace.terms_after_weights.append(terms[2]._asdict())
        trace.q_value.append(inner.q_values[-1])
        trace.inner_steps.append(inner.accepted_steps)
        trace.inner_proposals.append(inner.proposals)
        trace.inner_hit_step_floor.append(inner.hit_step_floor)
        trace.pi_step_objective.append(qp_objectives[0])
        trace.pi_step_objective_uniform.append(qp_objectives[1])
        trace.pi_min.append(float(pi.min()))
        trace.pi_max.append(float(pi.max()))
        trace.pi_mean.append(float(pi.mean()))
        trace.n_iters = iteration + 1

        if iteration_callback is not None:
            iteration_callback(IterationSnapshot(
                iteration=iteration, theta=theta.copy(), w=w.copy(),
                phi=phi_vec.copy(), varphi=varphi_vec.copy(), pi=pi.copy()))

        objective = trace.objective_after_weights[-1]
        if prev_objective is not None and \
                abs(objective - prev_objective) <= hp.tol * max(1.0, abs(prev_objective)):
            stop_reason = "converged"
            break
        prev_objective = objective

    trace.stop_reason = stop_reason
    state = ModelState.from_parameters(theta, w, phi_vec, varphi_vec, pi, hp.loss)
    return state, trace
