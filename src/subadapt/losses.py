"""Margin losses for binary classification and their scalar subgradients.

All three losses act on the margin y*f of a {+1,-1} label with a real
classifier score; each is convex and nonincreasing in the margin. Inputs
may be scalars or arrays of matching shape.

``loss_value``/``loss_subgradient`` check their inputs; the margin kernels
``margin_loss``/``margin_subgradient`` hold the formulas and check nothing,
for callers that have passed the kind and labels through ``checked_labels``
once already. ``margin_slope``, also unchecked, reads the slope
-d(loss)/d(margin) off loss values a caller already holds, so a descent that
has scored a point needs no second pass over its margins for the subgradient.
"""

from __future__ import annotations

import numpy as np

from .data_model import LOSS_KINDS, ValidationError


def checked_labels(kind, y):
    """Check the loss kind and the {+1,-1} labels; return the labels as a
    1-d float array."""
    if kind not in LOSS_KINDS:
        raise ValidationError(f"unknown loss kind: {kind!r}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all(np.abs(y) == 1.0):
        raise ValidationError("label outside {+1,-1}")
    return y


def _checked(kind, y, f):
    scalar = np.ndim(y) == 0 and np.ndim(f) == 0
    y = checked_labels(kind, y)
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if not np.all(np.isfinite(f)):
        raise ValidationError("non-finite classifier score")
    return y, f, scalar


def _sigmoid(z):
    # 1 / (1 + exp(-z)) without overflow on either tail: exp(-|z|) is
    # exp(-z) for z >= 0 and exp(z) for z < 0
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def margin_loss(kind, margin):
    """Unchecked pointwise loss of margins y*f for a known ``kind``."""
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - margin)
    if kind == "logistic":
        return np.logaddexp(0.0, -margin)
    return np.exp(-margin)


def margin_subgradient(kind, y, margin):
    """Unchecked d(loss)/df for float labels ``y`` and margins y*f."""
    if kind == "hinge":
        return np.where(margin < 1.0, -y, 0.0)
    if kind == "logistic":
        return -y * _sigmoid(-margin)
    return -y * np.exp(-margin)


def margin_slope(kind, losses):
    """Unchecked -d(loss)/d(margin) from the loss values ``margin_loss``
    returned: [loss > 0] for hinge (its kink takes the slope 0), 1 - exp(-loss)
    for logistic, and the loss itself for exponential."""
    if kind == "hinge":
        return np.sign(losses)  # hinge losses are >= 0, so this is [loss > 0]
    if kind == "logistic":
        return -np.expm1(-losses)
    return losses


def loss_value(kind, y, f):
    """Pointwise loss: hinge max(0, 1-yf), logistic ln(1+exp(-yf)), or exp(-yf)."""
    y, f, scalar = _checked(kind, y, f)
    out = margin_loss(kind, y * f)
    return float(out[0]) if scalar else out


def loss_subgradient(kind, y, f):
    """d(loss)/df; the hinge kink at yf = 1 returns the subgradient 0."""
    y, f, scalar = _checked(kind, y, f)
    out = margin_subgradient(kind, y, y * f)
    return float(out[0]) if scalar else out
