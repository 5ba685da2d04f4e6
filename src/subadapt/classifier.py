"""Classifier-vector block: the joint objective in the two linear
classifiers, its subgradients and Hessian, one backtracking descent update
(damped Newton for the smooth losses, subgradient steps for hinge),
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

``update_phi_varphi`` minimizes q by one descent loop with a backtracking
line search (Boyd & Vandenberghe, Convex Optimization, 9.2-9.5), in which
the loss kind picks the direction d. For the smooth logistic and
exponential losses q is smooth and convex, and d is the damped Newton step
(9.5) for the Hessian Z' diag(c * curvature) Z + A, with the curvature
d2 loss/d margin2 read off the loss values by ``losses.margin_curvature``;
each step halves t from 1 until q strictly decreases and meets the Armijo
condition. Once the Newton decrement -g'd falls to NEWTON_DECREMENT_TOL
relative to |q|, the run tries the full step once more, keeps it if q
strictly decreases, and stops. A singular Hessian (possible when c1 = 0)
is solved on the numerical range of its Jacobi-scaled form, so no
direction is ever undefined.

For the nonsmooth hinge loss d = -g: the plain fixed-step rule is the
first candidate, and the step is halved whenever the proposal fails to
decrease the objective, so the accepted trajectory is monotone. Either way
a proposal whose scores, squared norm or objective overflow scores inf (or
nan), and the comparison rejects it like any other. The loss kind and the
labels are checked once per fit, when the context is built; each proposal
is scored once, exactly from Z x, and the losses and A x of the accepted
one are reused for the next gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data_model import DatasetPair, Hyperparams, NumericError, ValidationError
from .losses import checked_labels, margin_curvature, margin_loss, margin_slope
from .neighborhood import NeighborGraph
from .qp_solver import ReconstructionHessian

# proposals halve the step at most this many times before the update stops
MAX_STEP_HALVINGS = 20
# a Newton run stops once the decrement -g'd is at most this share of |q|
NEWTON_DECREMENT_TOL = 1e-13
# a Newton step is accepted when q falls by at least this share of t * (-g'd)
ARMIJO_FRACTION = 0.25
# eigenvalues of the Jacobi-scaled Hessian at or below this share of the
# largest are treated as zero; a squared Cholesky pivot at or below it sends
# the Newton solve to that eigen path
HESSIAN_RCOND = 1e-12


@dataclass
class InnerTrace:
    """Accepted objective values of one classifier-block run (Newton or
    subgradient steps); q_values[0] is the start. ``proposals`` counts every
    scored proposal: accepted steps plus halvings. ``hit_step_floor`` records
    a stop because no halved step decreased the objective, and ``capped`` a
    stop at the step cap ``max_inner_iters``; a Newton run with neither
    stopped on its decrement."""

    q_values: list = field(default_factory=list)
    accepted_steps: int = 0
    proposals: int = 0
    hit_step_floor: bool = False
    capped: bool = False


class BlockState(NamedTuple):
    """The per-call part of the stacked system: the row weights c = [pi; 1],
    the signed weights -y*c that scale the loss slopes, the anchor term
    b = c1*[theta'w; theta'w], and the constant c1*|theta'w|^2."""

    weights: np.ndarray
    signed_weights: np.ndarray
    anchor_term: np.ndarray
    const: float


class ObjectiveContext:
    """Per-fit constants of the training objective: the data, the
    hyperparameters, the checked float labels [source_y; target_y], the
    labeled target block, the two reconstruction operators (``fixed``, the
    source side's 2 c2 R_s'R_s with R_s = I - W_s, the fixed part of every
    weight QP, which also holds the source features that span every weight
    QP's matching term; and the target residual R_t X_t), and the
    classifier block's stacked system: the block design matrix ``z`` and
    the fixed quadratic ``quad`` (see the module docstring)."""

    def __init__(self, pair: DatasetPair, graph_s: NeighborGraph,
                 graph_t: NeighborGraph, hp: Hyperparams):
        if graph_s.n != pair.n1:
            raise ValidationError("source graph size does not match the source set")
        if graph_t.n != pair.n2:
            raise ValidationError("target graph size does not match the target set")
        self.pair = pair
        self.hp = hp
        self.target_resid = graph_t.residual_vectors(pair.target_x)
        # both reconstruction operators carry 2 c2; one that overflows is
        # a c2 too large for floating point
        with np.errstate(over="ignore", invalid="ignore"):
            target_quad = 2.0 * hp.c2 * (self.target_resid.T @ self.target_resid)
        if not (2.0 * hp.c2 < np.inf and np.isfinite(target_quad).all()):
            raise ValidationError(
                f"c2 = {hp.c2:g} overflows the reconstruction terms; use a smaller c2")
        self.fixed = ReconstructionHessian(graph_s.indices, graph_s.coeffs, 2.0 * hp.c2,
                                           features=pair.source_x)
        self.y = checked_labels(hp.loss, np.concatenate([pair.source_y, pair.target_y]))
        self.xt_lab = pair.target_x[:pair.n3]
        n1, m = pair.n1, pair.m
        self.z = np.zeros((n1 + pair.n3, 2 * m))
        self.z[:n1, :m] = pair.source_x
        self.z[n1:, m:] = self.xt_lab
        self.quad = hp.c1 * np.eye(2 * m)
        self.quad[m:, m:] += target_quad

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
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(self.z @ x).all():
                raise ValidationError("non-finite classifier score")
            if not _norm_carried(x):
                raise ValidationError("phi and varphi too large: their squared norm overflows")
        weights = np.concatenate([pi, np.ones(self.pair.n3)])
        c1 = self.hp.c1
        return x, BlockState(weights, -self.y * weights,
                             c1 * np.concatenate([anchor, anchor]),
                             c1 * float(anchor @ anchor))

    def score(self, x, block: BlockState):
        """The objective at the stacked point x, with the losses and A x
        that ``subgradient`` takes for the subgradient there. A point whose
        scores overflow (a hinge loss would read its infinite margins as a
        zero loss), or whose norm the later blocks cannot carry (see
        ``_norm_carried``), scores inf, which no descent step accepts."""
        scores = self.z @ x
        if not (np.isfinite(scores).all() and _norm_carried(x)):
            return np.inf, None, None
        losses = margin_loss(self.hp.loss, self.y * scores)
        ax = self.quad @ x
        total = float(losses @ block.weights) + float(x @ (0.5 * ax - block.anchor_term))
        return total + block.const, losses, ax

    def subgradient(self, block: BlockState, losses, ax):
        """A subgradient in x, from the losses and A x of ``score`` at x."""
        slope = margin_slope(self.hp.loss, losses)
        return self.z.T @ (slope * block.signed_weights) + (ax - block.anchor_term)

    def hessian(self, block: BlockState, losses):
        """The Hessian Z' diag(c * curvature) Z + A in x, from the losses of
        ``score`` at x (zero curvature for hinge)."""
        curvature = margin_curvature(self.hp.loss, losses) * block.weights
        return (self.z.T * curvature) @ self.z + self.quad


def _norm_carried(x) -> bool:
    """Whether 4 x'x is finite at the stacked point x. At such a point, and
    the block start x0 with the same property, the products the later
    blocks form from x stay finite even where c1 = 0 leaves q blind to them:
    |u|^2 + |v|^2 <= 2 x'x + 2 x0'x0 for the adaptation term, and
    |s|^2 <= 2 x'x for the projection step's s s'."""
    return 4.0 * float(x @ x) < np.inf


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


def _check_controls(ctx: ObjectiveContext, hp: Hyperparams):
    if replace(hp, step=ctx.hp.step, max_inner_iters=ctx.hp.max_inner_iters) != ctx.hp:
        raise ValidationError("hyperparameters other than step and max_inner_iters "
                              "differ from the objective context's")


def _checked_gradient(ctx: ObjectiveContext, block: BlockState, losses, ax):
    g = ctx.subgradient(block, losses, ax)
    if not np.isfinite(g).all():
        raise NumericError("non-finite subgradient in the classifier update")
    return g


def update_phi_varphi(phi_vec, varphi_vec, theta, w, pi, ctx: ObjectiveContext,
                      hp: Hyperparams):
    """Minimize the classifier objective in both classifier vectors jointly
    by the module's one backtracking loop. For the smooth losses x + t d
    takes the Newton direction d (see ``_newton_direction``) from t = 1 and
    must decrease q by ARMIJO_FRACTION * t * (-g'd); for hinge d = -g from
    t = ``hp.step``, and the decrement is taken as 0, so the test is a
    strict decrease. Each step halves t at most MAX_STEP_HALVINGS times; the
    run stops when no halved step is accepted, on the Newton decrement, or
    after ``hp.max_inner_iters`` steps.

    ``hp`` supplies the controls: ``max_inner_iters``, and ``step`` for hinge
    only. The objective comes from ``ctx``, and every other field of ``hp``
    must equal ``ctx.hp``'s.
    """
    _check_controls(ctx, hp)
    newton = ctx.hp.loss != "hinge"
    x, block = ctx.block_state(phi_vec, varphi_vec, theta, w, pi)
    q_cur, losses, ax = ctx.score(x, block)
    trace = InnerTrace(q_values=[q_cur])
    for _ in range(hp.max_inner_iters):
        g = _checked_gradient(ctx, block, losses, ax)
        if newton:
            d = _newton_direction(ctx.hessian(block, losses), g)
            decrement = -float(g @ d)
        else:
            d, decrement = -g, 0.0
        # a converged run tries the full step once more and stops either way:
        # that step cuts the gradient quadratically whenever q still tells its
        # decrease from rounding, and costs one score when it does not
        converged = newton and decrement <= NEWTON_DECREMENT_TOL * abs(q_cur)
        t = 1.0 if newton else hp.step
        for _ in range(1 if converged else MAX_STEP_HALVINGS + 1):
            # a proposal whose scores, norm or loss overflow scores inf (or
            # nan against a zero weight), which the comparisons below reject
            with np.errstate(over="ignore", invalid="ignore"):
                x_try = x + t * d
                q_try, losses_try, ax_try = ctx.score(x_try, block)
            trace.proposals += 1
            if q_try < q_cur and (converged
                                  or q_try <= q_cur - ARMIJO_FRACTION * t * decrement):
                x, q_cur, losses, ax = x_try, q_try, losses_try, ax_try
                trace.q_values.append(q_cur)
                trace.accepted_steps += 1
                break
            t *= 0.5
        else:
            trace.hit_step_floor = not converged
            break
        if converged:
            break
    else:
        trace.capped = True
    return x[:ctx.pair.m], x[ctx.pair.m:], trace


def _newton_direction(h, g):
    """The Newton direction -H^+ g of a symmetric positive semidefinite H,
    after Jacobi scaling S^-1 H S^-1 with S = sqrt(diag H), so that blocks of
    H on different scales are each judged on their own scale (a zero row of H
    keeps S = 1 and gets a zero step). The scaled system is solved directly
    when its Cholesky factorization succeeds with every squared pivot above
    HESSIAN_RCOND, and otherwise on the eigenvectors whose eigenvalues exceed
    HESSIAN_RCOND times the largest."""
    scale = np.sqrt(h.diagonal())
    scale[scale == 0.0] = 1.0
    h_s = h / np.outer(scale, scale)
    g_s = g / scale
    try:
        # a unit diagonal bounds every squared pivot by 1
        well_posed = np.linalg.cholesky(h_s).diagonal().min() ** 2 > HESSIAN_RCOND
    except np.linalg.LinAlgError:
        well_posed = False
    if well_posed:
        return -np.linalg.solve(h_s, g_s) / scale
    values, vectors = np.linalg.eigh(h_s)
    keep = values > HESSIAN_RCOND * values[-1]
    vectors = vectors[:, keep]
    return -(vectors @ ((vectors.T @ g_s) / values[keep])) / scale


def recover_u_v(theta, w, phi_vec, varphi_vec):
    """Adaptation vectors: u = phi - theta.T w and v = varphi - theta.T w."""
    phi_vec, varphi_vec = _vectors(phi_vec, varphi_vec, np.size(phi_vec))
    anchor = _anchor(theta, w, phi_vec.shape[0])
    return phi_vec - anchor, varphi_vec - anchor


def _predict(vector, x):
    vector = np.asarray(vector, dtype=float)
    x = np.asarray(x, dtype=float)
    if vector.ndim != 1:
        raise ValidationError("the classifier must be a 1-d vector")
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
