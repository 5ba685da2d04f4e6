"""The outer block-coordinate loop: full-objective evaluation as five named
terms on the fit's one ``ObjectiveContext``, initialization, convergence,
and a monotonicity-auditable trace read off the terms after each block.

Block order per cycle: projection (exact eigen-step), shared classifier
(closed form), classifier vectors (damped Newton for the smooth losses,
backtracked descent for hinge), source weights (constrained QP). Each exact
block minimizes its subproblem globally, the classifier block only accepts
improving steps, so the full objective is nonincreasing across every block
boundary up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .classifier import ObjectiveContext, recover_u_v, update_phi_varphi
from .data_model import DatasetPair, Hyperparams, ModelState, ValidationError, validate
from .losses import loss_value
from .neighborhood import build_graph
from .subspace import build_phi, projected_means, update_theta, update_w
from .weights import build_weight_problem, update_pi


@dataclass
class TrainingTrace:
    """Per-outer-iteration observability for the training loop.

    The three objective lists record the full objective after each block
    boundary of a cycle; flattened in order they form a nonincreasing
    sequence up to small slack. ``inner_steps``, ``inner_proposals``,
    ``inner_hit_step_floor`` and ``inner_capped`` record each cycle's
    accepted classifier-block steps (Newton steps for the smooth losses,
    descent steps for hinge), its scored proposals (accepted steps plus
    halvings), whether the run stopped because no halved step decreased the
    objective, and whether it stopped at the ``max_inner_iters`` cap; a
    Newton run with neither flag stopped on its decrement. The weight-step
    objective pair records the weight QP's value 0.5 pi'H pi + c'pi
    (``QpProblem.objective``, without the constant 0.5 c3 ||vartheta||^2)
    at the solved weights and at uniform weights; the two are equal when
    delta = 1.

    ``stop_reason`` is "max_iters" when the cycle cap ended the fit. When
    the objective changed by at most tol * max(1, |f|) over the last cycle,
    it is "stalled" if that cycle's classifier block accepted no step and
    hit its step floor (the block could not move, whether or not it sits at
    its minimum), and "converged" otherwise.
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
    inner_capped: list = field(default_factory=list)
    pi_step_objective: list = field(default_factory=list)
    pi_step_objective_uniform: list = field(default_factory=list)
    n_iters: int = 0
    stop_reason: str = ""


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


# full_objective's unscaled pieces that each block's parameters enter: the
# subspace block's theta and w, the classifier block's phi and varphi, the
# weight block's pi. The other pieces carry over that block bit for bit.
SUBSPACE_PIECES = ("adaptation", "matching")
CLASSIFIER_PIECES = ("source", "target", "target_reconstruction", "adaptation")
WEIGHT_PIECES = ("source", "pi_reconstruction", "matching")


def full_objective(theta, w, phi_vec, varphi_vec, pi, ctx: ObjectiveContext,
                   pieces=None) -> ObjectiveTerms:
    """The five named terms of the training objective at the given parameters.

    ``pieces``, when given, is a dict of unscaled pieces of the terms: the
    ones it holds are read instead of computed, and the ones it lacks are
    computed and stored in it. The caller keeps in it only pieces that its
    parameters leave unchanged: ``source`` depends on phi and pi alone,
    ``target`` and ``target_reconstruction`` on varphi, ``adaptation`` on
    theta, w and both classifier vectors, ``pi_reconstruction`` on pi and
    ``matching`` on theta and pi. The terms are combined in one fixed
    order, so a carried piece gives the total the same bits as a computed
    one.
    """
    pi = np.asarray(pi, dtype=float)
    if not np.isfinite(pi).all():
        raise ValidationError("non-finite pi in the objective")
    pair, hp = ctx.pair, ctx.hp
    pieces = {} if pieces is None else pieces

    if "source" not in pieces:
        pieces["source"] = float(
            loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec) @ pi)
    if "target" not in pieces:
        target = 0.0
        if pair.n3:
            target = float(loss_value(hp.loss, pair.target_y, ctx.xt_lab @ varphi_vec).sum())
        h_resid = ctx.target_resid @ varphi_vec
        pieces.update(target=target, target_reconstruction=float(h_resid @ h_resid))
    if "adaptation" not in pieces:
        u, v = recover_u_v(theta, w, phi_vec, varphi_vec)
        pieces["adaptation"] = 0.5 * hp.c1 * (float(u @ u) + float(v @ v))
    if "pi_reconstruction" not in pieces:
        pi_resid = ctx.fixed.residual(pi)
        pieces["pi_reconstruction"] = float(pi_resid @ pi_resid)
    if "matching" not in pieces:
        means = projected_means(theta, pair, pi)
        gap = means.mu_s_pi - means.mu_t
        pieces["matching"] = 0.5 * hp.c3 * float(gap @ gap)
    reconstruction = hp.c2 * (pieces["pi_reconstruction"] + pieces["target_reconstruction"])
    return ObjectiveTerms(pieces["source"], pieces["target"], pieces["adaptation"],
                          reconstruction, pieces["matching"])


def block_cycle(theta, w, phi_vec, varphi_vec, pi, ctx: ObjectiveContext, pieces=None):
    """Run one full block cycle. Returns the new (theta, w, phi, varphi, pi),
    the objective terms after each of the three blocks, the classifier
    block's InnerTrace, and the weight QP's (solved, uniform) objectives.

    The terms after each block carry over the ``full_objective`` pieces
    that block leaves unchanged from the terms before it. ``pieces``, when
    given, holds the pieces after the previous cycle's weight block, which
    the terms after the subspace block carry over; the call leaves in it
    the pieces after its own weight block. Without it the terms after the
    subspace block are computed in full."""
    pair, hp = ctx.pair, ctx.hp
    pieces = {} if pieces is None else pieces

    def evaluate(changed):
        """The terms at the current parameters, with the pieces named in
        ``changed`` recomputed."""
        for name in changed:
            pieces.pop(name, None)
        # pieces go positionally, so wrappers that pass on only positional
        # arguments see them
        return full_objective(theta, w, phi_vec, varphi_vec, pi, ctx, pieces)

    phi_mat = build_phi(phi_vec, varphi_vec, pi, pair, hp)
    theta = update_theta(phi_mat, hp.r, prev_theta=theta)
    w = update_w(theta, phi_vec, varphi_vec)
    after_subspace = evaluate(SUBSPACE_PIECES)

    # hp goes by keyword: the benchmark's classifier-step counter reads it there
    phi_vec, varphi_vec, inner = update_phi_varphi(
        phi_vec, varphi_vec, theta, w, pi, ctx, hp=hp)
    after_classifier = evaluate(CLASSIFIER_PIECES)

    problem = build_weight_problem(phi_vec, theta, ctx)
    pi = update_pi(problem, warm_start=pi)
    qp_objectives = (problem.objective(pi), problem.objective(np.ones(pair.n1)))
    after_weights = evaluate(WEIGHT_PIECES)
    return ((theta, w, phi_vec, varphi_vec, pi),
            (after_subspace, after_classifier, after_weights), inner, qp_objectives)


def fit(pair: DatasetPair, hp: Hyperparams):
    """Train the model by block-coordinate descent.

    Neighbor graphs are built once from the raw features. Classifier
    vectors start at zero and weights at one; the projection and the shared
    classifier take their first-update values. Stops when the relative
    objective change falls below ``hp.tol`` or after ``hp.max_outer_iters``
    cycles; either stop is recorded in ``TrainingTrace.stop_reason``, not
    raised.

    ``hp.delta = 1`` makes the weight box hold only pi = 1, so that
    setting is the no-weighting ablation.

    Returns (ModelState, TrainingTrace).
    """
    validate(pair, hp)
    hp = hp.resolved(pair.m)
    ctx = ObjectiveContext(pair, build_graph(pair.source_x, hp.k),
                           build_graph(pair.target_x, hp.k), hp)

    theta = w = None
    phi_vec = np.zeros(pair.m)
    varphi_vec = np.zeros(pair.m)
    pi = np.ones(pair.n1)

    trace = TrainingTrace()
    prev_objective = None
    stop_reason = "max_iters"
    # the objective pieces after the last weight block, carried from cycle
    # to cycle; positional, like block_cycle's other arguments
    pieces = {}

    for iteration in range(hp.max_outer_iters):
        (theta, w, phi_vec, varphi_vec, pi), terms, inner, qp_objectives = block_cycle(
            theta, w, phi_vec, varphi_vec, pi, ctx, pieces)

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
        trace.inner_capped.append(inner.capped)
        trace.pi_step_objective.append(qp_objectives[0])
        trace.pi_step_objective_uniform.append(qp_objectives[1])
        trace.pi_min.append(float(pi.min()))
        trace.pi_max.append(float(pi.max()))
        trace.pi_mean.append(float(pi.mean()))
        trace.n_iters = iteration + 1

        objective = trace.objective_after_weights[-1]
        if prev_objective is not None and \
                abs(objective - prev_objective) <= hp.tol * max(1.0, abs(prev_objective)):
            stalled = inner.hit_step_floor and not inner.accepted_steps
            stop_reason = "stalled" if stalled else "converged"
            break
        prev_objective = objective

    trace.stop_reason = stop_reason
    state = ModelState.from_parameters(theta, w, phi_vec, varphi_vec, pi, hp.loss)
    return state, trace
