import math

import numpy as np
import pytest

from subadapt.data_model import ValidationError
from subadapt.losses import (
    _sigmoid,
    loss_subgradient,
    loss_value,
    margin_loss,
    margin_slope,
    margin_subgradient,
)


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
    assert loss_subgradient("hinge", 1, 2.0) == 0.0


def test_hinge_subgradient_at_kink_is_zero():
    assert loss_subgradient("hinge", 1, 1.0) == 0.0
    assert loss_subgradient("hinge", -1, -1.0) == 0.0


def test_hinge_subgradient_active():
    assert loss_subgradient("hinge", 1, 0.5) == -1.0
    assert loss_subgradient("hinge", -1, 0.5) == 1.0


def test_logistic_subgradient_at_zero():
    assert loss_subgradient("logistic", 1, 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_logistic_subgradient_matches_finite_difference():
    # frozen from the central-difference oracle at h = 1e-6
    g = loss_subgradient("logistic", 1, 0.3)
    fd = central_difference("logistic", 1, 0.3)
    assert abs(g - fd) <= 1e-6 * max(1.0, abs(g))
    assert g == pytest.approx(-0.42555748318834100, abs=1e-12)


@pytest.mark.parametrize("kind", ["logistic", "exponential"])
def test_smooth_losses_match_finite_differences(kind):
    rng = np.random.default_rng(11)
    for _ in range(100):
        y = 1 if rng.random() < 0.5 else -1
        f = float(rng.uniform(-10, 10))
        g = loss_subgradient(kind, y, f)
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
    assert loss_subgradient("logistic", 1, -1000.0) == pytest.approx(-1.0, abs=1e-12)
    assert loss_subgradient("logistic", 1, 1000.0) == 0.0


def test_vectorized_matches_scalar():
    y = np.array([1, -1, 1])
    f = np.array([0.2, -0.4, 1.5])
    for kind in ("hinge", "logistic", "exponential"):
        vec = loss_value(kind, y, f)
        assert vec.shape == (3,)
        for i in range(3):
            assert vec[i] == loss_value(kind, int(y[i]), float(f[i]))
        grad = loss_subgradient(kind, y, f)
        for i in range(3):
            assert grad[i] == loss_subgradient(kind, int(y[i]), float(f[i]))


def test_non_finite_score_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        loss_value("hinge", 1, np.nan)
    with pytest.raises(ValidationError, match="non-finite"):
        loss_subgradient("logistic", 1, np.inf)


def test_bad_label_rejected():
    with pytest.raises(ValidationError, match="label"):
        loss_value("hinge", 0, 1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown loss"):
        loss_value("squared", 1, 1.0)


def test_sigmoid_bit_identical_to_masked_branches():
    def masked(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    edges = np.array([0.0, 1e-300, 1.0, 700.0, 1e4])
    z = np.concatenate([edges, -edges, np.random.default_rng(15).standard_normal(10_000)])
    assert _sigmoid(z).tobytes() == masked(z).tobytes()


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
            expected = -margin_subgradient(kind, labels, margins) * y
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
