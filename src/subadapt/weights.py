"""Per-point source weight step: assemble and solve the constrained QP.

The weights trade off three pulls: small per-point losses (linear term),
agreement with the neighborhood reconstruction of the weights (the Gram
term c2 ||(I - W) pi||^2 of the source graph), and matching the weighted
source mean to the target mean in the subspace (the Gram term
0.5 c3 ||gamma pi - vartheta||^2). The feasible set is the box [0, delta]
intersected with the plane sum(pi) = n1.

Within a fit the QP's Hessian 2 c2 (I - W)'(I - W) + c3 gamma'gamma is
passed in factored form (``GramHessian``): symmetric PSD by construction,
applied through the graph's (indices, coeffs) and gamma, and formed densely
only for dense free-set fallbacks. Its first part is fixed for the fit, so
the fit inverts that part's bordered KKT matrix K0 once and every weight QP
of the fit is a rank-r update of it (q = r Schur columns). A standalone
``update_pi`` solves the dense H of ``qp_matrices``, the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DatasetPair, Hyperparams, ValidationError
from .losses import loss_value
from .neighborhood import NeighborGraph
from .qp_solver import GramHessian, QpProblem, kkt_basis, solve


@dataclass(frozen=True)
class WeightStepProblem:
    """Assembled quadratic pieces of the weight subproblem.

    ``gamma`` has column i equal to theta @ source_x[i] / n1 and
    ``vartheta`` is the projected target mean, so the matching penalty is
    0.5*c3*||gamma pi - vartheta||^2. ``graph`` is the source graph; the
    reconstruction penalty c2 ||(I - W) pi||^2 is applied through it.
    """

    tau: np.ndarray
    gamma: np.ndarray
    vartheta: np.ndarray
    c3: float
    delta: float
    n1: int
    graph: NeighborGraph
    c2: float

    def objective(self, pi) -> float:
        """Value of the weight subproblem at pi, constant term included."""
        pi = np.asarray(pi, dtype=float)
        gap = self.gamma @ pi - self.vartheta
        resid = self.graph.residual_vectors(pi[:, None])[:, 0]
        return float(self.tau @ pi + self.c2 * (resid @ resid)
                     + 0.5 * self.c3 * (gap @ gap))

    def linear_term(self) -> np.ndarray:
        """c of the QP."""
        return self.tau - self.c3 * (self.gamma.T @ self.vartheta)

    def qp_matrices(self):
        """(H, c) such that 0.5 pi'H pi + c'pi matches the objective up to
        the constant 0.5*c3*||vartheta||^2; H dense."""
        h = 2.0 * reconstruction_quadratic(self.graph, self.c2) \
            + self.c3 * (self.gamma.T @ self.gamma)
        return h, self.linear_term()


def reconstruction_quadratic(graph_s: NeighborGraph, c2: float) -> np.ndarray:
    """c2 (I - W)'(I - W) for the source graph's coefficient matrix W."""
    eye_minus_w = np.eye(graph_s.n) - graph_s.dense_coefficients()
    return c2 * (eye_minus_w.T @ eye_minus_w)


class WeightFitState:
    """Weight-step data fixed for one fit: the reconstruction quadratic
    c2 (I - W)'(I - W) and the KKT basis of its Hessian part.

    Every weight QP of the fit is that fixed part plus c3 gamma'gamma, a
    rank-r term, so the inverse of the bordered KKT matrix K0 of
    2 c2 (I - W)'(I - W), built here once, serves all of them. ``basis`` is
    None when K0 is singular or ill-conditioned (c2 = 0, or a graph whose
    (I - W) has more than one null vector); every QP of the fit then takes
    the dense path.
    """

    def __init__(self, graph_s: NeighborGraph, hp: Hyperparams):
        self.recon_quad = reconstruction_quadratic(graph_s, hp.c2)
        self.basis = kkt_basis(2.0 * self.recon_quad)

    def hessian(self, problem: WeightStepProblem) -> GramHessian:
        """The H of ``problem.qp_matrices`` in factored form; its ``dense()``
        has the same bits."""
        return GramHessian(problem.graph.indices, problem.graph.coeffs,
                           2.0 * problem.c2, problem.gamma, problem.c3,
                           self.recon_quad)


def build_weight_problem(phi_vec, theta, pair: DatasetPair,
                         graph_s: NeighborGraph, hp: Hyperparams) -> WeightStepProblem:
    """Per-point losses and matching pieces, over the source graph."""
    phi_vec = np.asarray(phi_vec, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if phi_vec.shape != (pair.m,):
        raise ValidationError("phi length does not match the feature dimension")
    if theta.ndim != 2 or theta.shape[1] != pair.m:
        raise ValidationError("theta columns do not match the feature dimension")
    if graph_s.n != pair.n1:
        raise ValidationError("source graph size does not match the source set")
    tau = np.asarray(loss_value(hp.loss, pair.source_y, pair.source_x @ phi_vec),
                     dtype=float)
    gamma = (theta @ pair.source_x.T) / pair.n1
    vartheta = (pair.target_x @ theta.T).mean(axis=0)
    return WeightStepProblem(tau=tau, gamma=gamma, vartheta=vartheta, c3=hp.c3,
                             delta=hp.delta, n1=pair.n1, graph=graph_s, c2=hp.c2)


def update_pi(problem: WeightStepProblem, warm_start=None,
              fit_state: WeightFitState | None = None) -> np.ndarray:
    """Solve the weight subproblem; feasible to QP tolerances. Within a fit,
    ``fit_state`` supplies the factored Hessian and the KKT basis that speed
    up the solve; without it the dense H is solved."""
    if fit_state is None:
        (h, c), basis = problem.qp_matrices(), None
    else:
        h, c, basis = fit_state.hessian(problem), problem.linear_term(), fit_state.basis
    qp = QpProblem(h=h, c=c,
                   lower=np.zeros(problem.n1),
                   upper=np.full(problem.n1, problem.delta),
                   eq_sum=float(problem.n1))
    return solve(qp, warm_start=warm_start, basis=basis)
