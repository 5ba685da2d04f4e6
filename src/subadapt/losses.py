"""Margin losses for binary classification and their margin derivatives.

All three losses act on the margin y*f of a {+1,-1} label with a real
classifier score; each is convex and nonincreasing in the margin. Inputs
may be scalars or arrays of matching shape.

``loss_value`` checks its inputs; the margin kernel ``margin_loss`` holds
the formulas and checks nothing, for callers that have passed the kind and
labels through ``checked_labels`` once already. ``margin_slope`` and
``margin_curvature``, also unchecked, read the slope -d(loss)/d(margin) and
the curvature d2(loss)/d(margin)2 off loss values a caller already holds,
so an update that has scored a point needs no second pass over its margins
for the gradient or the Hessian; d(loss)/df is -y times the slope.
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


def margin_loss(kind, margin):
    """Unchecked pointwise loss of margins y*f for a known ``kind``."""
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - margin)
    if kind == "logistic":
        return np.logaddexp(0.0, -margin)
    return np.exp(-margin)


def margin_slope(kind, losses):
    """Unchecked -d(loss)/d(margin) from the loss values ``margin_loss``
    returned: [loss > 0] for hinge (its kink takes the slope 0), 1 - exp(-loss)
    for logistic, and the loss itself for exponential."""
    if kind == "hinge":
        return np.sign(losses)  # hinge losses are >= 0, so this is [loss > 0]
    if kind == "logistic":
        return -np.expm1(-losses)
    return losses


def margin_curvature(kind, losses):
    """Unchecked d2(loss)/d(margin)2 from the loss values ``margin_loss``
    returned: 0 for hinge (piecewise linear), exp(-loss) * (1 - exp(-loss))
    for logistic (sigmoid(m) * sigmoid(-m), as exp(-loss) = sigmoid(m)), and
    the loss itself for exponential."""
    if kind == "hinge":
        return np.zeros_like(losses)
    if kind == "logistic":
        return np.exp(-losses) * -np.expm1(-losses)
    return losses


def loss_value(kind, y, f):
    """Pointwise loss: hinge max(0, 1-yf), logistic ln(1+exp(-yf)), or exp(-yf)."""
    scalar = np.ndim(y) == 0 and np.ndim(f) == 0
    y = checked_labels(kind, y)
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if not np.all(np.isfinite(f)):
        raise ValidationError("non-finite classifier score")
    out = margin_loss(kind, y * f)
    return float(out[0]) if scalar else out
