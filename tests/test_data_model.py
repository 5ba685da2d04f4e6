from dataclasses import fields, replace

import numpy as np
import pytest

from subadapt.data_model import (
    MODEL_ARRAYS,
    DatasetPair,
    FeatureScaler,
    Hyperparams,
    ModelState,
    ValidationError,
    check_model_state,
    validate,
)


def small_pair(**overrides):
    rng = np.random.default_rng(0)
    data = dict(
        source_x=rng.standard_normal((4, 3)),
        source_y=np.array([1, -1, 1, -1]),
        target_x=rng.standard_normal((4, 3)),
        target_y=np.array([1, -1]),
    )
    data.update(overrides)
    return DatasetPair(**data)


def test_validate_accepts_consistent_pair():
    validate(small_pair(), Hyperparams(delta=2.0, r=2, k=1))


def test_counts_derive_from_shapes():
    pair = small_pair()
    assert (pair.n1, pair.n2, pair.n3, pair.m) == (4, 4, 2, 3)


def test_label_outside_pm_one_rejected():
    pair = small_pair(source_y=np.array([1, 0, 1, -1]))
    with pytest.raises(ValidationError, match=r"label outside \{\+1,-1\}"):
        validate(pair, Hyperparams(delta=2.0, r=2, k=1))


def test_fractional_label_rejected():
    pair = small_pair(target_y=np.array([1.0, -0.5]))
    with pytest.raises(ValidationError, match=r"label outside"):
        validate(pair, Hyperparams(delta=2.0, r=2, k=1))


def test_delta_below_one_rejected():
    with pytest.raises(ValidationError, match="delta < 1"):
        validate(small_pair(), Hyperparams(delta=0.5, r=2, k=1))


def test_r_at_least_m_rejected():
    with pytest.raises(ValidationError, match="r >= m"):
        validate(small_pair(), Hyperparams(r=3, k=1))


def test_non_finite_feature_rejected():
    x = np.zeros((4, 3))
    x[2, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        validate(small_pair(source_x=x), Hyperparams(r=2, k=1))


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(1)
    pair = small_pair(target_x=rng.standard_normal((4, 2)))
    with pytest.raises(ValidationError, match="dimension mismatch"):
        validate(pair, Hyperparams(r=1, k=1))


def test_excess_target_labels_rejected():
    pair = small_pair(target_y=np.array([1, -1, 1, -1, 1]))
    with pytest.raises(ValidationError, match="dimension mismatch"):
        validate(pair, Hyperparams(r=2, k=1))


def test_k_bound_uses_both_sets():
    validate(small_pair(), Hyperparams(r=2, k=3))
    with pytest.raises(ValidationError, match="k = 4 exceeds"):
        validate(small_pair(), Hyperparams(r=2, k=4))


def test_default_r_resolves_from_dimension():
    assert Hyperparams().resolved(5).r == 4
    assert Hyperparams().resolved(200).r == 10
    assert Hyperparams(r=3).resolved(200).r == 3


def test_defaults_match_documented_values():
    hp = Hyperparams()
    assert (hp.c1, hp.c2, hp.c3) == (10.0, 1.0, 100.0)
    assert (hp.k, hp.delta, hp.step) == (5, 3.0, 1e-3)
    assert (hp.max_outer_iters, hp.max_inner_iters, hp.tol) == (100, 50, 1e-5)


def test_pair_arrays_are_read_only():
    pair = small_pair()
    with pytest.raises(ValueError):
        pair.source_x[0, 0] = 99.0


def test_model_state_invariants():
    rng = np.random.default_rng(2)
    theta = np.linalg.qr(rng.standard_normal((5, 2)))[0].T
    state = ModelState.from_parameters(
        theta, rng.standard_normal(2), rng.standard_normal(5),
        rng.standard_normal(5), np.ones(6), "hinge")
    check_model_state(state, delta=3.0)


def test_model_arrays_are_the_state_fields():
    # the arrays check_model_state scans and the model file writes come from
    # ModelState's fields: the matrix theta, then the vectors, in field order
    assert MODEL_ARRAYS == tuple(f.name for f in fields(ModelState) if f.name != "loss")
    assert MODEL_ARRAYS[0] == "theta"


@pytest.mark.parametrize("name", MODEL_ARRAYS)
def test_model_state_detects_non_finite_array(name):
    state = ModelState.from_parameters(
        np.eye(2, 5), np.zeros(2), np.zeros(5), np.zeros(5), np.ones(4), "hinge")
    bad = getattr(state, name).copy()
    bad.flat[-1] = np.nan
    with pytest.raises(ValidationError, match=f"non-finite value in {name}$"):
        check_model_state(replace(state, **{name: bad}), delta=3.0)


@pytest.mark.parametrize("name, message", [
    ("c1", "c1 must be"), ("c2", "c2 must be"), ("c3", "c3 must be"),
    ("delta", "delta < 1"), ("step", "step must be"), ("tol", "tol must be"),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_validate_rejects_integers_beyond_float_range(name, message, sign):
    with pytest.raises(ValidationError, match=message):
        validate(small_pair(), Hyperparams(r=2, k=1, **{name: sign * 10 ** 400}))


def test_model_state_detects_bad_pi():
    theta = np.eye(2, 5)
    state = ModelState.from_parameters(
        theta, np.zeros(2), np.zeros(5), np.zeros(5), np.full(4, 2.0), "hinge")
    with pytest.raises(ValidationError, match="sum"):
        check_model_state(state, delta=3.0)


def test_model_state_detects_non_orthonormal_theta():
    theta = np.ones((2, 5))
    state = ModelState.from_parameters(
        theta, np.zeros(2), np.zeros(5), np.zeros(5), np.ones(4), "hinge")
    with pytest.raises(ValidationError, match="orthonormal"):
        check_model_state(state, delta=3.0)


def test_feature_scaler_round_trip():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 4)) * np.array([1.0, 5.0, 0.2, 1.0]) + 2.0
    scaler = FeatureScaler.fit(x)
    z = scaler.apply(x)
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12


def test_feature_scaler_constant_column_guard():
    x = np.ones((10, 2))
    z = FeatureScaler.fit(x).apply(x)
    assert np.all(np.isfinite(z))
