"""Per-point source weight step: assemble and solve the constrained QP.

The weights trade off three pulls: small per-point losses (linear term),
agreement with the neighborhood reconstruction of the weights (the Gram
term c2 ||(I - W) pi||^2 of the source graph), and matching the weighted
source mean to the target mean in the subspace (the Gram term
0.5 c3 ||gamma pi - vartheta||^2). The feasible set is the box [0, delta]
intersected with the plane sum(pi) = n1.

``build_weight_problem`` returns that QP as a ``QpProblem`` whose Hessian
is the ``GramHessian`` H0 + c3 gamma'gamma over the fit's fixed part H0,
the context's ``fixed``; its value 0.5 pi'H pi + c'pi leaves out the
constant 0.5 c3 ||vartheta||^2. With delta = 1 the feasible set is the
single point pi = 1: the no-weighting ablation.
"""

from __future__ import annotations

import numpy as np

from .classifier import ObjectiveContext
from .data_model import ValidationError
from .losses import loss_value
from .qp_solver import GramHessian, QpProblem, solve


def build_weight_problem(phi_vec, theta, ctx: ObjectiveContext) -> QpProblem:
    """The weight QP at the given classifier and projection. Column i of
    gamma is theta @ source_x[i] / n1, given to the Hessian as its coef
    theta / n1 over the fit's source features, and vartheta is the
    projected target mean."""
    pair, hp = ctx.pair, ctx.hp
    phi_vec = np.asarray(phi_vec, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if phi_vec.shape != (pair.m,):
        raise ValidationError("phi length does not match the feature dimension")
    if theta.ndim != 2 or theta.shape[1] != pair.m:
        raise ValidationError("theta columns do not match the feature dimension")
    tau = np.asarray(loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec),
                     dtype=float)
    hessian = GramHessian(ctx.fixed, theta / pair.n1, hp.c3)
    vartheta = (pair.target_x @ theta.T).mean(axis=0)
    return QpProblem(h=hessian, c=tau - hp.c3 * (hessian.gamma.T @ vartheta),
                     lower=np.zeros(pair.n1), upper=np.full(pair.n1, hp.delta),
                     eq_sum=pair.n1)


def update_pi(problem: QpProblem, warm_start=None) -> np.ndarray:
    """Solve the weight QP; feasible to QP tolerances. With delta = 1 the
    solution is exactly pi = 1."""
    return solve(problem, warm_start=warm_start)
