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
only for the fit's first KKT basis and for dense free-set fallbacks. A
standalone ``update_pi`` solves the dense H of ``qp_matrices``, the
reference path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DatasetPair, Hyperparams, ValidationError
from .losses import loss_value
from .neighborhood import NeighborGraph
from .qp_solver import GramHessian, KktBasis, QpProblem, kkt_basis, solve


@dataclass(frozen=True)
class WeightStepProblem:
    """Assembled quadratic pieces of the weight subproblem.

    ``recon_quad`` already carries the c2 factor; ``gamma`` has column i
    equal to theta @ source_x[i] / n1 and ``vartheta`` is the projected
    target mean, so the matching penalty is 0.5*c3*||gamma pi - vartheta||^2.
    ``graph`` is the source graph with recon_quad = c2 (I - W)'(I - W);
    the objective and the factored Hessian apply (I - W) through it, so
    they need it and ``c2``. A problem built without both can only be
    solved through the dense ``qp_matrices``.
    """

    tau: np.ndarray
    recon_quad: np.ndarray
    gamma: np.ndarray
    vartheta: np.ndarray
    c3: float
    delta: float
    n1: int
    graph: NeighborGraph | None = None
    c2: float | None = None

    def __post_init__(self):
        if (self.graph is None) != (self.c2 is None):
            raise ValidationError("the source graph and c2 must be given together")

    def _require_graph(self) -> None:
        if self.graph is None:
            raise ValidationError("the sparse reconstruction term needs the source graph")

    def objective(self, pi) -> float:
        """Value of the weight subproblem at pi, constant term included."""
        self._require_graph()
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
        h = 2.0 * self.recon_quad + self.c3 * (self.gamma.T @ self.gamma)
        return h, self.linear_term()

    def gram_hessian(self) -> GramHessian:
        """The H of ``qp_matrices`` in factored form; its ``dense()`` has the
        same bits."""
        self._require_graph()
        return GramHessian(self.graph.indices, self.graph.coeffs, 2.0 * self.c2,
                           self.gamma, self.c3, self.recon_quad)


def reconstruction_quadratic(graph_s: NeighborGraph, c2: float) -> np.ndarray:
    """c2 (I - W)'(I - W) for the source graph's coefficient matrix W."""
    eye_minus_w = np.eye(graph_s.n) - graph_s.dense_coefficients()
    return c2 * (eye_minus_w.T @ eye_minus_w)


class WeightFitState:
    """Weight-step data fixed for one fit: the reconstruction quadratic, and
    the KKT basis of the fit's first weight QP.

    The weight QPs of one fit differ only in their matching term, so
    H_t - H_1 = c3 (gamma_t'gamma_t - gamma_1'gamma_1) has rank at most 2r and
    the first QP's KKT inverse serves every later one. When that basis is
    singular or ill-conditioned, every QP of the fit takes the dense path.
    """

    def __init__(self, graph_s: NeighborGraph, hp: Hyperparams):
        self.recon_quad = reconstruction_quadratic(graph_s, hp.c2)
        self._first = None  # (gamma, basis) of the first QP; False if unusable

    def basis(self, problem: WeightStepProblem, h) -> KktBasis | None:
        """Basis for the QP of ``problem``, whose Hessian is ``h`` (dense or
        a GramHessian, formed densely here on the first QP only)."""
        if self._first is None:
            basis = kkt_basis(h.dense() if isinstance(h, GramHessian) else h)
            self._first = False if basis is None else (problem.gamma, basis)
            return basis
        if self._first is False:
            return None
        gamma_1, basis = self._first
        if problem.c3 == 0.0:
            return basis
        r = gamma_1.shape[0]
        return basis.updated(np.concatenate([problem.gamma.T, gamma_1.T], axis=1),
                             problem.c3 * np.repeat([1.0, -1.0], r))


def build_weight_problem(phi_vec, theta, pair: DatasetPair,
                         graph_s: NeighborGraph, hp: Hyperparams,
                         recon_quad=None) -> WeightStepProblem:
    """Per-point losses, scattered reconstruction quadratic, and matching
    pieces; ``recon_quad`` reuses a fit's ``WeightFitState.recon_quad``."""
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
    if recon_quad is None:
        recon_quad = reconstruction_quadratic(graph_s, hp.c2)
    gamma = (theta @ pair.source_x.T) / pair.n1
    vartheta = (pair.target_x @ theta.T).mean(axis=0)
    return WeightStepProblem(tau=tau, recon_quad=recon_quad, gamma=gamma,
                             vartheta=vartheta, c3=hp.c3, delta=hp.delta,
                             n1=pair.n1, graph=graph_s, c2=hp.c2)


def update_pi(problem: WeightStepProblem, warm_start=None,
              fit_state: WeightFitState | None = None) -> np.ndarray:
    """Solve the weight subproblem; feasible to QP tolerances. Within a fit,
    ``fit_state`` selects the factored Hessian and supplies the KKT basis
    that speed up the solve; without it the dense H is solved."""
    if fit_state is None:
        h, c = problem.qp_matrices()
    else:
        h, c = problem.gram_hessian(), problem.linear_term()
    qp = QpProblem(h=h, c=c,
                   lower=np.zeros(problem.n1),
                   upper=np.full(problem.n1, problem.delta),
                   eq_sum=float(problem.n1))
    basis = None if fit_state is None else fit_state.basis(problem, qp.h)
    return solve(qp, warm_start=warm_start, basis=basis)
