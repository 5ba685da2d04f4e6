"""Per-point source weight step: assemble and solve the constrained QP.

The weights trade off three pulls: small per-point losses (linear term),
agreement with the neighborhood reconstruction of the weights (the Gram
term c2 ||(I - W) pi||^2 of the source graph), and matching the weighted
source mean to the target mean in the subspace (the Gram term
0.5 c3 ||gamma pi - vartheta||^2). The feasible set is the box [0, delta]
intersected with the plane sum(pi) = n1.

The QP's Hessian is H0 + c3 gamma'gamma with H0 = 2 c2 (I - W)'(I - W)
fixed for the fit. A ``WeightFitState`` holds the source graph, c2, the
dense H0 and the inverse of H0's bordered KKT matrix K0, built once per
fit. Every ``WeightStepProblem`` carries its fit's state, so ``update_pi``
solves the Hessian in factored form (``GramHessian``) with that basis, and
each step is a rank-r update of K0 (q = r Schur columns). ``qp_matrices``
gives the same H densely: the reference that the tests solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DatasetPair, Hyperparams, ValidationError
from .losses import loss_value
from .neighborhood import NeighborGraph
from .qp_solver import GramHessian, QpProblem, kkt_basis, solve


def reconstruction_quadratic(graph_s: NeighborGraph, c2: float) -> np.ndarray:
    """c2 (I - W)'(I - W) for the source graph's coefficient matrix W."""
    eye_minus_w = np.eye(graph_s.n) - graph_s.dense_coefficients()
    return c2 * (eye_minus_w.T @ eye_minus_w)


class WeightFitState:
    """The weight step's part fixed for one fit: the source graph, c2, the
    dense H0 = 2 c2 (I - W)'(I - W) and the KKT basis of H0.

    Every weight QP of the fit is H0 plus c3 gamma'gamma, a rank-r term, so
    the inverse of H0's bordered KKT matrix K0, built here once, serves all
    of them. ``basis`` is None when K0 is singular or ill-conditioned
    (c2 = 0, or a graph whose (I - W) has more than one null vector); every
    QP of the fit then takes the dense path.
    """

    def __init__(self, graph_s: NeighborGraph, hp: Hyperparams):
        self.graph = graph_s
        self.c2 = hp.c2
        self.h0 = 2.0 * reconstruction_quadratic(graph_s, hp.c2)
        self.basis = kkt_basis(self.h0)


@dataclass(frozen=True)
class WeightStepProblem:
    """Assembled quadratic pieces of the weight subproblem.

    ``gamma`` has column i equal to theta @ source_x[i] / n1 and
    ``vartheta`` is the projected target mean, so the matching penalty is
    0.5*c3*||gamma pi - vartheta||^2. ``fit`` holds the source graph and c2;
    the reconstruction penalty c2 ||(I - W) pi||^2 is applied through it.
    """

    tau: np.ndarray
    gamma: np.ndarray
    vartheta: np.ndarray
    c3: float
    delta: float
    n1: int
    fit: WeightFitState

    def objective(self, pi) -> float:
        """Value of the weight subproblem at pi, constant term included."""
        pi = np.asarray(pi, dtype=float)
        gap = self.gamma @ pi - self.vartheta
        resid = self.fit.graph.residual_vectors(pi[:, None])[:, 0]
        return float(self.tau @ pi + self.fit.c2 * (resid @ resid)
                     + 0.5 * self.c3 * (gap @ gap))

    def linear_term(self) -> np.ndarray:
        """c of the QP."""
        return self.tau - self.c3 * (self.gamma.T @ self.vartheta)

    def qp_matrices(self):
        """(H, c) such that 0.5 pi'H pi + c'pi matches the objective up to
        the constant 0.5*c3*||vartheta||^2; H dense."""
        return self.fit.h0 + self.c3 * (self.gamma.T @ self.gamma), self.linear_term()

    def hessian(self) -> GramHessian:
        """The H of ``qp_matrices`` in factored form, with the fit's KKT
        basis; its ``dense()`` has the same bits."""
        graph = self.fit.graph
        return GramHessian(graph.indices, graph.coeffs, 2.0 * self.fit.c2, self.gamma,
                           self.c3, self.fit.h0, self.fit.basis)


def build_weight_problem(phi_vec, theta, pair: DatasetPair,
                         fit: WeightFitState, hp: Hyperparams) -> WeightStepProblem:
    """Per-point losses and matching pieces, over the fit's source graph."""
    phi_vec = np.asarray(phi_vec, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if phi_vec.shape != (pair.m,):
        raise ValidationError("phi length does not match the feature dimension")
    if theta.ndim != 2 or theta.shape[1] != pair.m:
        raise ValidationError("theta columns do not match the feature dimension")
    if fit.graph.n != pair.n1:
        raise ValidationError("source graph size does not match the source set")
    tau = np.asarray(loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec),
                     dtype=float)
    gamma = (theta @ pair.source_x.T) / pair.n1
    vartheta = (pair.target_x @ theta.T).mean(axis=0)
    return WeightStepProblem(tau=tau, gamma=gamma, vartheta=vartheta, c3=hp.c3,
                             delta=hp.delta, n1=pair.n1, fit=fit)


def update_pi(problem: WeightStepProblem, warm_start=None) -> np.ndarray:
    """Solve the weight subproblem; feasible to QP tolerances. The factored
    Hessian carries the fit's KKT basis, so steps come from Schur
    complements whenever the fit has one."""
    qp = QpProblem(h=problem.hessian(), c=problem.linear_term(),
                   lower=np.zeros(problem.n1),
                   upper=np.full(problem.n1, problem.delta),
                   eq_sum=float(problem.n1))
    return solve(qp, warm_start=warm_start)
