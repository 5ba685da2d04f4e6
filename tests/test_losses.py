import math

import numpy as np
import pytest

from subadapt.data_model import ValidationError
from subadapt.losses import loss_value, margin_curvature, margin_loss, margin_slope

from objective_reference import margin_derivative


def slope_derivative(kind, y, f):
    """d(loss)/df as the fit forms it: -y times the slope ``margin_slope``
    reads off the loss values."""
    return -y * margin_slope(kind, margin_loss(kind, y * f))


def central_difference(kind, y, f, h=1e-6):
    return (loss_value(kind, y, f + h) - loss_value(kind, y, f - h)) / (2 * h)


def test_hinge_at_zero_score():
    assert loss_value("hinge", 1, 0.0) == 1.0


def test_logistic_at_zero_score():
    assert loss_value("logistic", 1, 0.0) == pytest.approx(math.log(2), abs=1e-12)


def test_exponential_at_zero_score():
    assert loss_value("exponential", -1, 0.0) == 1.0


def test_hinge_beyond_margin_is_zero():
    assert loss_value("hinge", 1, 2.0) == 0.0


def test_hinge_subgradient_inactive():
    assert slope_derivative("hinge", 1, 2.0) == 0.0


def test_hinge_subgradient_at_kink_is_zero():
    assert slope_derivative("hinge", 1, 1.0) == 0.0
    assert slope_derivative("hinge", -1, -1.0) == 0.0


def test_hinge_subgradient_active():
    assert slope_derivative("hinge", 1, 0.5) == -1.0
    assert slope_derivative("hinge", -1, 0.5) == 1.0


def test_logistic_subgradient_at_zero():
    assert slope_derivative("logistic", 1, 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_logistic_subgradient_matches_finite_difference():
    # frozen from the central-difference oracle at h = 1e-6
    g = slope_derivative("logistic", 1, 0.3)
    fd = central_difference("logistic", 1, 0.3)
    assert abs(g - fd) <= 1e-6 * max(1.0, abs(g))
    assert g == pytest.approx(-0.42555748318834100, abs=1e-12)


@pytest.mark.parametrize("kind", ["logistic", "exponential"])
def test_smooth_losses_match_finite_differences(kind):
    rng = np.random.default_rng(11)
    for _ in range(100):
        y = 1 if rng.random() < 0.5 else -1
        f = float(rng.uniform(-10, 10))
        g = slope_derivative(kind, y, f)
        fd = central_difference(kind, y, f)
        assert abs(g - fd) <= 1e-5 * max(1.0, abs(g))


@pytest.mark.parametrize("kind", ["hinge", "logistic", "exponential"])
def test_convexity_in_score(kind):
    rng = np.random.default_rng(12)
    for _ in range(200):
        y = 1 if rng.random() < 0.5 else -1
        f1, f2 = rng.uniform(-5, 5, size=2)
        t = float(rng.random())
        left = loss_value(kind, y, t * f1 + (1 - t) * f2)
        right = t * loss_value(kind, y, f1) + (1 - t) * loss_value(kind, y, f2)
        assert left <= right + 1e-12


@pytest.mark.parametrize("kind", ["hinge", "logistic", "exponential"])
def test_losses_nonnegative(kind):
    rng = np.random.default_rng(13)
    for _ in range(100):
        y = 1 if rng.random() < 0.5 else -1
        assert loss_value(kind, y, float(rng.uniform(-20, 20))) >= 0.0


def test_hinge_zero_iff_margin_at_least_one():
    rng = np.random.default_rng(14)
    for _ in range(200):
        y = 1 if rng.random() < 0.5 else -1
        f = float(rng.uniform(-3, 3))
        value = loss_value("hinge", y, f)
        assert (value == 0.0) == (y * f >= 1.0)


def test_logistic_stable_for_large_scores():
    assert loss_value("logistic", 1, -1000.0) == pytest.approx(1000.0, rel=1e-12)
    assert loss_value("logistic", 1, 1000.0) == 0.0
    assert slope_derivative("logistic", 1, -1000.0) == pytest.approx(-1.0, abs=1e-12)
    assert slope_derivative("logistic", 1, 1000.0) == 0.0


def test_vectorized_matches_scalar():
    y = np.array([1, -1, 1])
    f = np.array([0.2, -0.4, 1.5])
    for kind in ("hinge", "logistic", "exponential"):
        vec = loss_value(kind, y, f)
        assert vec.shape == (3,)
        for i in range(3):
            assert vec[i] == loss_value(kind, int(y[i]), float(f[i]))
        grad = slope_derivative(kind, y, f)
        assert grad.shape == (3,)
        for i in range(3):
            assert grad[i] == slope_derivative(kind, int(y[i]), float(f[i]))


def test_non_finite_score_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        loss_value("hinge", 1, np.nan)
    with pytest.raises(ValidationError, match="non-finite"):
        loss_value("logistic", 1, np.inf)


def test_bad_label_rejected():
    with pytest.raises(ValidationError, match="label"):
        loss_value("hinge", 0, 1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown loss"):
        loss_value("squared", 1, 1.0)


@pytest.mark.parametrize("kind", ["hinge", "logistic", "exponential"])
def test_margin_slope_matches_margin_subgradient(kind):
    # the slope read off the loss values against the subgradient computed
    # from the margins, over the whole range where exp(-margin) is finite
    # or overflows, plus the hinge kink and both signed zeros
    margins = np.concatenate([np.linspace(-745.0, 745.0, 20001),
                              [np.nextafter(1.0, 0.0), 1.0, 0.0, -0.0]])
    with np.errstate(over="ignore"):
        slope = margin_slope(kind, margin_loss(kind, margins))
        for y in (1.0, -1.0):
            labels = np.full_like(margins, y)
            expected = -margin_derivative(kind, labels, margins) * y
            assert np.array_equal(np.isfinite(slope), np.isfinite(expected))
            finite = np.isfinite(expected)
            if kind == "logistic":
                gap = np.abs(slope - expected)
                assert np.all(gap <= 1e-15 * np.abs(expected))
            else:
                assert np.array_equal(slope[finite], expected[finite])
    if kind == "exponential":
        assert not np.isfinite(slope).all()  # the overflow reaches the caller
    else:
        assert np.isfinite(slope).all()


@pytest.mark.parametrize("kind", ["hinge", "logistic", "exponential"])
def test_margin_curvature_matches_closed_form(kind):
    # the curvature read off the loss values against d2 loss/d margin2 from
    # the margins: 0, e/(1 + e)^2 with e = exp(-|m|), and exp(-m)
    margins = np.concatenate([np.linspace(-700.0, 745.0, 20001), [1.0, 0.0, -0.0]])
    curvature = margin_curvature(kind, margin_loss(kind, margins))
    if kind == "hinge":
        assert np.array_equal(curvature, np.zeros_like(margins))
        return
    if kind == "logistic":
        e = np.exp(-np.abs(margins))
        expected = e / (1.0 + e) ** 2
    else:
        expected = np.exp(-margins)
    assert np.all(curvature >= 0.0)
    assert np.all(np.abs(curvature - expected) <= 4e-15 * expected)


@pytest.mark.parametrize("kind", ["logistic", "exponential"])
def test_margin_curvature_is_the_slope_derivative(kind):
    margins = np.linspace(-20.0, 20.0, 401)
    h = 1e-5
    fd = -(margin_slope(kind, margin_loss(kind, margins + h))
           - margin_slope(kind, margin_loss(kind, margins - h))) / (2 * h)
    curvature = margin_curvature(kind, margin_loss(kind, margins))
    assert np.all(np.abs(curvature - fd) <= 1e-6 * np.maximum(1.0, curvature))
