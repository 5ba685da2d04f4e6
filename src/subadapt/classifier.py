"""Classifier-vector block: the joint objective in the two linear
classifiers, its subgradients, a backtracked subgradient descent update,
adaptation-vector recovery, and prediction, plus the per-fit
``ObjectiveContext`` that every block and the trainer's full objective read.

The descent update keeps the plain fixed-step rule as its first candidate
and halves the step whenever the proposal fails to decrease the objective,
so the accepted trajectory is monotone even for the nonsmooth hinge loss.
The loss kind and the labels are checked once per fit, when the context is
built; each proposal is scored once, and the margins of the accepted one
are reused for the next subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import DatasetPair, Hyperparams, NumericError, ValidationError
from .losses import checked_labels, margin_loss, margin_subgradient
from .neighborhood import NeighborGraph

# proposals halve the step at most this many times before the update stops
MAX_STEP_HALVINGS = 20


@dataclass
class InnerTrace:
    """Accepted objective values of one descent run; q_values[0] is the start."""

    q_values: list = field(default_factory=list)
    accepted_steps: int = 0
    hit_step_floor: bool = False


class ObjectiveContext:
    """Per-fit constants of the training objective: the data, the source
    graph, the hyperparameters, the checked float labels [source_y; target_y],
    the labeled target block, and the target residual R_t X_t with its Gram."""

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
        self.resid_gram = self.target_resid.T @ self.target_resid

    def block_state(self, phi_vec, varphi_vec, theta, w, pi):
        """Check the classifier block's arguments; return phi, varphi and the
        block's own state, the anchor theta'w and pi, as float arrays."""
        phi_vec, varphi_vec = _vectors(phi_vec, varphi_vec, self.pair.m)
        theta = np.asarray(theta, dtype=float)
        w = np.asarray(w, dtype=float)
        pi = np.asarray(pi, dtype=float)
        if theta.shape[1] != self.pair.m:
            raise ValidationError("theta columns do not match the feature dimension")
        if w.shape != (theta.shape[0],):
            raise ValidationError("w length does not match theta rows")
        if pi.shape != (self.pair.n1,):
            raise ValidationError("pi length does not match the source set")
        return phi_vec, varphi_vec, theta.T @ w, pi

    def point(self, phi_vec, varphi_vec, anchor, pi):
        """The classifier objective at (phi, varphi) and the margins y*f of
        its labeled points, which ``grads`` takes for the subgradient there."""
        n1, hp = self.pair.n1, self.hp
        scores = np.concatenate([self.pair.source_x @ phi_vec, self.xt_lab @ varphi_vec])
        if not np.isfinite(scores).all():
            raise ValidationError("non-finite classifier score")
        margins = self.y * scores
        losses = margin_loss(hp.loss, margins)
        total = float(losses[:n1] @ pi)
        if self.pair.n3:
            total += float(losses[n1:].sum())
        du = phi_vec - anchor
        dv = varphi_vec - anchor
        total += 0.5 * hp.c1 * (du @ du + dv @ dv)
        total += hp.c2 * float(varphi_vec @ self.resid_gram @ varphi_vec)
        return total, margins

    def grads(self, phi_vec, varphi_vec, anchor, pi, margins):
        n1, hp = self.pair.n1, self.hp
        g_loss = margin_subgradient(hp.loss, self.y, margins)
        g_phi = self.pair.source_x.T @ (g_loss[:n1] * pi) + hp.c1 * (phi_vec - anchor)
        g_varphi = hp.c1 * (varphi_vec - anchor) \
            + 2.0 * hp.c2 * (self.resid_gram @ varphi_vec)
        if self.pair.n3:
            g_varphi = g_varphi + self.xt_lab.T @ g_loss[n1:]
        return g_phi, g_varphi


def _vectors(phi_vec, varphi_vec, m):
    phi_vec = np.asarray(phi_vec, dtype=float)
    varphi_vec = np.asarray(varphi_vec, dtype=float)
    if phi_vec.shape != (m,) or varphi_vec.shape != (m,):
        raise ValidationError("classifier vectors do not match the feature dimension")
    return phi_vec, varphi_vec


def q_objective(phi_vec, varphi_vec, theta, w, pi, ctx: ObjectiveContext) -> float:
    """Weighted source losses + labeled target losses + anchor pull + target
    reconstruction smoothness, as a function of the two classifier vectors."""
    return ctx.point(*ctx.block_state(phi_vec, varphi_vec, theta, w, pi))[0]


def q_subgradients(phi_vec, varphi_vec, theta, w, pi, ctx: ObjectiveContext):
    """Subgradients of the classifier objective in (phi, varphi)."""
    state = ctx.block_state(phi_vec, varphi_vec, theta, w, pi)
    return ctx.grads(*state, ctx.point(*state)[1])


def update_phi_varphi(phi_vec, varphi_vec, theta, w, pi, ctx: ObjectiveContext,
                      hp: Hyperparams):
    """Backtracked subgradient descent on both classifier vectors jointly.

    ``hp`` supplies the descent controls; the objective comes from ``ctx``.
    Runs up to ``hp.max_inner_iters`` accepted steps. Each step proposes the
    fixed-step update and accepts only if the objective strictly decreases;
    otherwise the step is halved, and after MAX_STEP_HALVINGS failed
    halvings the whole update stops at the current point.
    """
    phi_vec, varphi_vec, anchor, pi = ctx.block_state(phi_vec, varphi_vec, theta, w, pi)
    phi_cur = phi_vec.copy()
    varphi_cur = varphi_vec.copy()
    q_cur, margins = ctx.point(phi_cur, varphi_cur, anchor, pi)
    trace = InnerTrace(q_values=[q_cur])
    for _ in range(hp.max_inner_iters):
        g_phi, g_varphi = ctx.grads(phi_cur, varphi_cur, anchor, pi, margins)
        if not (np.isfinite(g_phi).all() and np.isfinite(g_varphi).all()):
            raise NumericError("non-finite subgradient in the classifier update")
        step = hp.step
        accepted = False
        for _ in range(MAX_STEP_HALVINGS + 1):
            phi_try = phi_cur - step * g_phi
            varphi_try = varphi_cur - step * g_varphi
            q_try, margins_try = ctx.point(phi_try, varphi_try, anchor, pi)
            if q_try < q_cur:
                phi_cur, varphi_cur, q_cur, margins = phi_try, varphi_try, q_try, margins_try
                trace.q_values.append(q_cur)
                trace.accepted_steps += 1
                accepted = True
                break
            step *= 0.5
        if not accepted:
            trace.hit_step_floor = True
            break
    return phi_cur, varphi_cur, trace


def recover_u_v(theta, w, phi_vec, varphi_vec):
    """Adaptation vectors: u = phi - theta.T w and v = varphi - theta.T w."""
    theta = np.asarray(theta, dtype=float)
    w = np.asarray(w, dtype=float)
    phi_vec, varphi_vec = _vectors(phi_vec, varphi_vec, theta.shape[1])
    if w.shape != (theta.shape[0],):
        raise ValidationError("w length does not match theta rows")
    anchor = theta.T @ w
    return phi_vec - anchor, varphi_vec - anchor


def _predict(vector, x):
    vector = np.asarray(vector, dtype=float)
    x = np.asarray(x, dtype=float)
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
