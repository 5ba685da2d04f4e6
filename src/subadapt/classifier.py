"""Classifier-vector block: the joint objective in the two linear
classifiers, its subgradients, a backtracked subgradient descent update,
adaptation-vector recovery, and prediction, plus the per-fit
``ObjectiveContext`` that every block and the trainer's full objective read.

The block is one stacked system in x = [phi; varphi]. With the block design
matrix Z = blockdiag(source_x, labeled target_x), the row weights
c = [pi; 1], the fixed quadratic A = c1*I + blockdiag(0, 2*c2*R'R) (R the
target reconstruction residual R_t X_t) and the anchor term
b = c1*[theta'w; theta'w], the objective is

    q(x) = c . loss(y * Zx) + x'(A x / 2 - b) + c1*|theta'w|^2

and a subgradient is Z'(slope * (-y*c)) + (A x - b), where the slope
-d loss/d margin is read off the loss values by ``losses.margin_slope``.
Z and A are built once per fit, c and b once per block call, so scoring a
proposal takes one Z product, one loss pass, one A product and two dots.

The descent update keeps the plain fixed-step rule as its first candidate
and halves the step whenever the proposal fails to decrease the objective,
so the accepted trajectory is monotone even for the nonsmooth hinge loss.
The loss kind and the labels are checked once per fit, when the context is
built; each proposal is scored once, exactly from Z x, and the losses and
A x of the accepted one are reused for the next subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data_model import DatasetPair, Hyperparams, NumericError, ValidationError
from .losses import checked_labels, margin_loss, margin_slope
from .neighborhood import NeighborGraph

# proposals halve the step at most this many times before the update stops
MAX_STEP_HALVINGS = 20


@dataclass
class InnerTrace:
    """Accepted objective values of one descent run; q_values[0] is the start.
    ``proposals`` counts every scored proposal: accepted steps plus halvings."""

    q_values: list = field(default_factory=list)
    accepted_steps: int = 0
    proposals: int = 0
    hit_step_floor: bool = False


class BlockState(NamedTuple):
    """The per-call part of the stacked system: the row weights c = [pi; 1],
    the signed weights -y*c that scale the loss slopes, the anchor term
    b = c1*[theta'w; theta'w], and the constant c1*|theta'w|^2."""

    weights: np.ndarray
    signed_weights: np.ndarray
    anchor_term: np.ndarray
    const: float


class ObjectiveContext:
    """Per-fit constants of the training objective: the data, the source
    graph, the hyperparameters, the checked float labels [source_y; target_y],
    the labeled target block, the target residual R_t X_t, and the
    classifier block's stacked system: the block design matrix ``z`` and the
    fixed quadratic ``quad`` (see the module docstring)."""

    def __init__(self, pair: DatasetPair, graph_s: NeighborGraph,
                 graph_t: NeighborGraph, hp: Hyperparams):
        if graph_s.n != pair.n1:
            raise ValidationError("source graph size does not match the source set")
        if graph_t.n != pair.n2:
            raise ValidationError("target graph size does not match the target set")
        self.pair = pair
        self.graph_s = graph_s
        self.hp = hp
        self.y = checked_labels(hp.loss, np.concatenate([pair.source_y, pair.target_y]))
        self.xt_lab = pair.target_x[:pair.n3]
        self.target_resid = graph_t.residual_vectors(pair.target_x)
        n1, m = pair.n1, pair.m
        self.z = np.zeros((n1 + pair.n3, 2 * m))
        self.z[:n1, :m] = pair.source_x
        self.z[n1:, m:] = self.xt_lab
        self.quad = hp.c1 * np.eye(2 * m)
        self.quad[m:, m:] += 2.0 * hp.c2 * (self.target_resid.T @ self.target_resid)

    def block_state(self, phi_vec, varphi_vec, theta, w, pi):
        """Check the classifier block's arguments; return the stacked point
        x = [phi; varphi] and the block's ``BlockState``."""
        phi_vec, varphi_vec = _vectors(phi_vec, varphi_vec, self.pair.m)
        anchor = _anchor(theta, w, self.pair.m)
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (self.pair.n1,):
            raise ValidationError("pi length does not match the source set")
        if not np.isfinite(pi).all():
            raise ValidationError("non-finite pi in the classifier block")
        x = np.concatenate([phi_vec, varphi_vec])
        if not np.isfinite(x).all():
            raise ValidationError("non-finite classifier score: phi or varphi is not finite")
        weights = np.concatenate([pi, np.ones(self.pair.n3)])
        c1 = self.hp.c1
        return x, BlockState(weights, -self.y * weights,
                             c1 * np.concatenate([anchor, anchor]),
                             c1 * float(anchor @ anchor))

    def score(self, x, block: BlockState):
        """The objective at the stacked point x, with the losses and A x
        that ``subgradient`` takes for the subgradient there."""
        scores = self.z @ x
        if not np.isfinite(scores).all():
            raise ValidationError("non-finite classifier score")
        losses = margin_loss(self.hp.loss, self.y * scores)
        ax = self.quad @ x
        total = float(losses @ block.weights) + float(x @ (0.5 * ax - block.anchor_term))
        return total + block.const, losses, ax

    def subgradient(self, block: BlockState, losses, ax):
        """A subgradient in x, from the losses and A x of ``score`` at x."""
        slope = margin_slope(self.hp.loss, losses)
        return self.z.T @ (slope * block.signed_weights) + (ax - block.anchor_term)


def _vectors(phi_vec, varphi_vec, m):
    phi_vec = np.asarray(phi_vec, dtype=float)
    varphi_vec = np.asarray(varphi_vec, dtype=float)
    if phi_vec.shape != (m,) or varphi_vec.shape != (m,):
        raise ValidationError("classifier vectors do not match the feature dimension")
    return phi_vec, varphi_vec


def _anchor(theta, w, m):
    """The shared classifier theta'w in feature space, from a checked, finite
    r x m projection and length-r shared classifier."""
    theta = np.asarray(theta, dtype=float)
    w = np.asarray(w, dtype=float)
    if theta.ndim != 2:
        raise ValidationError("theta must be a 2-d matrix")
    if theta.shape[1] != m:
        raise ValidationError("theta columns do not match the feature dimension")
    if w.shape != (theta.shape[0],):
        raise ValidationError("w length does not match theta rows")
    if not (np.isfinite(theta).all() and np.isfinite(w).all()):
        raise ValidationError("non-finite theta or w")
    return theta.T @ w


def q_objective(phi_vec, varphi_vec, theta, w, pi, ctx: ObjectiveContext) -> float:
    """Weighted source losses + labeled target losses + anchor pull + target
    reconstruction smoothness, as a function of the two classifier vectors."""
    return ctx.score(*ctx.block_state(phi_vec, varphi_vec, theta, w, pi))[0]


def q_subgradients(phi_vec, varphi_vec, theta, w, pi, ctx: ObjectiveContext):
    """Subgradients of the classifier objective in (phi, varphi)."""
    x, block = ctx.block_state(phi_vec, varphi_vec, theta, w, pi)
    _, losses, ax = ctx.score(x, block)
    g = ctx.subgradient(block, losses, ax)
    return g[:ctx.pair.m], g[ctx.pair.m:]


def update_phi_varphi(phi_vec, varphi_vec, theta, w, pi, ctx: ObjectiveContext,
                      hp: Hyperparams):
    """Backtracked subgradient descent on both classifier vectors jointly.

    ``hp`` supplies the descent controls, ``step`` and ``max_inner_iters``;
    the objective comes from ``ctx``, and every other field of ``hp`` must
    equal ``ctx.hp``'s. Runs up to ``hp.max_inner_iters`` accepted steps.
    Each step proposes the fixed-step update and accepts only if the
    objective strictly decreases; otherwise the step is halved, and after
    MAX_STEP_HALVINGS failed halvings the whole update stops at the current
    point.
    """
    if replace(hp, step=ctx.hp.step, max_inner_iters=ctx.hp.max_inner_iters) != ctx.hp:
        raise ValidationError("hyperparameters other than step and max_inner_iters "
                              "differ from the objective context's")
    x, block = ctx.block_state(phi_vec, varphi_vec, theta, w, pi)
    q_cur, losses, ax = ctx.score(x, block)
    trace = InnerTrace(q_values=[q_cur])
    for _ in range(hp.max_inner_iters):
        g = ctx.subgradient(block, losses, ax)
        if not np.isfinite(g).all():
            raise NumericError("non-finite subgradient in the classifier update")
        step = hp.step
        for _ in range(MAX_STEP_HALVINGS + 1):
            x_try = x - step * g
            q_try, losses_try, ax_try = ctx.score(x_try, block)
            trace.proposals += 1
            if q_try < q_cur:
                x, q_cur, losses, ax = x_try, q_try, losses_try, ax_try
                trace.q_values.append(q_cur)
                trace.accepted_steps += 1
                break
            step *= 0.5
        else:
            trace.hit_step_floor = True
            break
    return x[:ctx.pair.m], x[ctx.pair.m:], trace


def recover_u_v(theta, w, phi_vec, varphi_vec):
    """Adaptation vectors: u = phi - theta.T w and v = varphi - theta.T w."""
    phi_vec, varphi_vec = _vectors(phi_vec, varphi_vec, np.size(phi_vec))
    anchor = _anchor(theta, w, phi_vec.shape[0])
    return phi_vec - anchor, varphi_vec - anchor


def _predict(vector, x):
    vector = np.asarray(vector, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(vector).all() and np.isfinite(x).all()):
        raise ValidationError("non-finite classifier or input value")
    if x.ndim == 1:
        if x.shape != vector.shape:
            raise ValidationError("input dimension does not match the classifier")
        score = float(vector @ x)
        return score, 1 if score >= 0 else -1
    if x.ndim != 2 or x.shape[1] != vector.shape[0]:
        raise ValidationError("input dimension does not match the classifier")
    scores = x @ vector
    return scores, np.where(scores >= 0, 1, -1)


def predict_source(phi_vec, x):
    """Score phi'x and its sign label (+1 on ties) for one row or a matrix."""
    return _predict(phi_vec, x)


def predict_target(varphi_vec, x):
    """Score varphi'x and its sign label (+1 on ties) for one row or a matrix."""
    return _predict(varphi_vec, x)
