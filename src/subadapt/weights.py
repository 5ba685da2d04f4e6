"""Per-point source weight step: assemble and solve the constrained QP.

The weights trade off three pulls: small per-point losses (linear term),
agreement with the neighborhood reconstruction of the weights (the Gram
term c2 ||(I - W) pi||^2 of the source graph), and matching the weighted
source mean to the target mean in the subspace (the Gram term
0.5 c3 ||gamma pi - vartheta||^2). The feasible set is the box [0, delta]
intersected with the plane sum(pi) = n1.

The QP's Hessian is H0 + c3 gamma'gamma with H0 = 2 c2 (I - W)'(I - W)
fixed for the fit. The fit's ``ObjectiveContext`` holds H0 once, as the
``ReconstructionHessian`` ``fixed``, which forms its dense matrix and the
inverse of its bordered KKT matrix K0 at the first Schur step of the fit
and keeps both. Every ``WeightStepProblem`` carries it, so ``update_pi``
solves the Hessian in factored form (``GramHessian``) with that basis, and
each step is a rank-r update of K0 (q = r Schur columns). ``qp_matrices``
gives the same H densely: the reference that the tests solve. With
delta = 1 the feasible set is the single point pi = 1, which is also the
solver's start, so the weight step takes no step and forms neither H0 nor
its inverse: the no-weighting ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import ObjectiveContext
from .data_model import ValidationError
from .losses import loss_value
from .qp_solver import GramHessian, QpProblem, ReconstructionHessian, solve


@dataclass(frozen=True)
class WeightStepProblem:
    """Assembled quadratic pieces of the weight subproblem.

    ``gamma`` has column i equal to theta @ source_x[i] / n1 and
    ``vartheta`` is the projected target mean, so the matching penalty is
    0.5*c3*||gamma pi - vartheta||^2. ``fit`` is the fit's H0 = a R'R with
    a = 2 c2, through which the reconstruction penalty c2 ||R pi||^2 is
    applied.
    """

    tau: np.ndarray
    gamma: np.ndarray
    vartheta: np.ndarray
    c3: float
    delta: float
    n1: int
    fit: ReconstructionHessian

    def objective(self, pi) -> float:
        """Value of the weight subproblem at pi, constant term included."""
        pi = np.asarray(pi, dtype=float)
        gap = self.gamma @ pi - self.vartheta
        resid = self.fit.residual(pi)
        return float(self.tau @ pi + 0.5 * self.fit.a * (resid @ resid)
                     + 0.5 * self.c3 * (gap @ gap))

    def linear_term(self) -> np.ndarray:
        """c of the QP."""
        return self.tau - self.c3 * (self.gamma.T @ self.vartheta)

    def qp_matrices(self):
        """(H, c) such that 0.5 pi'H pi + c'pi matches the objective up to
        the constant 0.5*c3*||vartheta||^2; H dense."""
        return self.hessian().dense(), self.linear_term()

    def hessian(self) -> GramHessian:
        """H in factored form, with the fit's KKT basis."""
        return GramHessian(self.fit, self.gamma, self.c3)


def build_weight_problem(phi_vec, theta, ctx: ObjectiveContext) -> WeightStepProblem:
    """Per-point losses and matching pieces, over the context's fixed H0."""
    pair, hp = ctx.pair, ctx.hp
    phi_vec = np.asarray(phi_vec, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if phi_vec.shape != (pair.m,):
        raise ValidationError("phi length does not match the feature dimension")
    if theta.ndim != 2 or theta.shape[1] != pair.m:
        raise ValidationError("theta columns do not match the feature dimension")
    tau = np.asarray(loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec),
                     dtype=float)
    gamma = (theta @ pair.source_x.T) / pair.n1
    vartheta = (pair.target_x @ theta.T).mean(axis=0)
    return WeightStepProblem(tau=tau, gamma=gamma, vartheta=vartheta, c3=hp.c3,
                             delta=hp.delta, n1=pair.n1, fit=ctx.fixed)


def update_pi(problem: WeightStepProblem, warm_start=None) -> np.ndarray:
    """Solve the weight subproblem; feasible to QP tolerances. The factored
    Hessian carries the KKT basis of the fit's H0, so steps come from Schur
    complements whenever H0 has one. With delta = 1 the solution is exactly
    pi = 1. The upper bound is min(delta, n1): pi >= 0 and sum(pi) = n1
    already keep every pi_i <= n1, and a larger bound adds nothing but,
    near 1e308, overflows the solver's sums."""
    qp = QpProblem(h=problem.hessian(), c=problem.linear_term(),
                   lower=np.zeros(problem.n1),
                   upper=np.full(problem.n1, min(problem.delta, problem.n1)),
                   eq_sum=float(problem.n1))
    return solve(qp, warm_start=warm_start)
