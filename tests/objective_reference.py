"""Test-side access to the classifier block's objective, and an independent
reference for the loss derivative.

``q_objective`` and ``q_subgradients`` reach the kernels the fit runs
(``ObjectiveContext.block_state``, ``score`` and ``subgradient``) from the
block's parameters. ``margin_derivative`` computes d(loss)/df from the
margins, where the fit reads the slope off the loss values
(``losses.margin_slope``).
"""

import numpy as np


def q_objective(phi_vec, varphi_vec, theta, w, pi, ctx) -> float:
    """The classifier objective q at (phi, varphi), as the fit scores it."""
    return ctx.score(*ctx.block_state(phi_vec, varphi_vec, theta, w, pi))[0]


def q_subgradients(phi_vec, varphi_vec, theta, w, pi, ctx):
    """The fit's subgradient of q, split into its phi and varphi parts."""
    x, block = ctx.block_state(phi_vec, varphi_vec, theta, w, pi)
    _, losses, ax = ctx.score(x, block)
    g = ctx.subgradient(block, losses, ax)
    return g[:ctx.pair.m], g[ctx.pair.m:]


def masked_sigmoid(z):
    """1 / (1 + exp(-z)) by two masked branches, neither of which overflows."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def margin_derivative(kind, y, margin):
    """d(loss)/df for labels ``y`` and margins y*f; the hinge kink at margin
    1 takes the subgradient 0."""
    if kind == "hinge":
        return np.where(margin < 1.0, -y, 0.0)
    if kind == "logistic":
        return -y * masked_sigmoid(-margin)
    return -y * np.exp(-margin)
