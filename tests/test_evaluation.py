import numpy as np
import pytest

from subadapt.cli import make_shifted_pair
from subadapt.data_model import Hyperparams, ValidationError
from subadapt.evaluation import (
    accuracy,
    argmax_class,
    half_label_mask,
    kfold_split,
    one_vs_all,
    run_cv,
)


def three_blob_data(rng, n_per_class, m=3, spread=0.6):
    centers = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]])[:, :m]
    xs, ys = [], []
    for cls in range(3):
        xs.append(centers[cls] + spread * rng.standard_normal((n_per_class, m)))
        ys.append(np.full(n_per_class, cls))
    perm = rng.permutation(3 * n_per_class)
    return np.vstack(xs)[perm], np.concatenate(ys)[perm]


def test_kfold_even_split():
    folds = kfold_split(20, 10, seed=0)
    assert len(folds) == 10
    assert all(len(f) == 2 for f in folds)
    assert sorted(np.concatenate(folds).tolist()) == list(range(20))


def test_kfold_singletons():
    folds = kfold_split(10, 10, seed=1)
    assert all(len(f) == 1 for f in folds)


def test_kfold_deterministic():
    a = kfold_split(23, 7, seed=42)
    b = kfold_split(23, 7, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_kfold_sizes_differ_by_at_most_one():
    folds = kfold_split(23, 7, seed=3)
    sizes = sorted(len(f) for f in folds)
    assert sizes[-1] - sizes[0] <= 1
    assert sorted(np.concatenate(folds).tolist()) == list(range(23))


def test_kfold_rejects_too_many_folds():
    with pytest.raises(ValidationError, match="folds"):
        kfold_split(5, 6, seed=0)


@pytest.mark.parametrize("folds", [0, 1, 21])
def test_run_cv_rejects_fold_counts_outside_two_to_n(folds):
    # one fold would hold out every target row and train on none
    sx, sy, tx, ty = make_shifted_pair(0, n1=20, n2=20, n3=20, m=3)
    with pytest.raises(ValidationError, match="2 <= folds <= n"):
        run_cv(sx, sy, tx, ty, Hyperparams(k=2), folds=folds, seed=0)


def test_run_cv_checks_seed_before_drawing_folds(monkeypatch):
    def draw(*args):
        raise AssertionError("folds drawn before the seed was checked")

    monkeypatch.setattr("subadapt.evaluation.kfold_split", draw)
    sx, sy, tx, ty = make_shifted_pair(0, n1=20, n2=20, n3=20, m=3)
    with pytest.raises(ValidationError, match="seed"):
        run_cv(sx, sy, tx, ty, Hyperparams(k=2), folds=4, seed=-1)


def test_half_label_even():
    labeled = half_label_mask(np.arange(18), seed=0)
    assert labeled.size == 9


def test_half_label_ceiling():
    assert half_label_mask(np.array([5]), seed=0).tolist() == [5]
    assert half_label_mask(np.arange(7), seed=1).size == 4


def test_half_label_deterministic():
    idx = np.arange(30, 60)
    a = half_label_mask(idx, seed=9)
    b = half_label_mask(idx, seed=9)
    assert np.array_equal(a, b)
    assert set(a.tolist()).issubset(set(idx.tolist()))


def test_half_label_rejects_empty():
    with pytest.raises(ValidationError, match="empty"):
        half_label_mask(np.array([], dtype=int), seed=0)


def test_accuracy_count_ratio():
    pred = np.array([1, 1, 1, -1, -1, 1, 1, 1, 1, -1])
    truth = np.array([1, 1, 1, 1, 1, 1, 1, 1, -1, -1])
    assert accuracy(pred, truth) == pytest.approx(0.7)


def test_argmax_tie_goes_to_lowest_class():
    picked = argmax_class(np.array([[0.3, 0.3, -1.0]]), [0, 1, 2])
    assert picked.tolist() == [0]


def test_run_cv_all_positive_target():
    rng = np.random.default_rng(0)
    # all labels +1 with positive-orthant features: the trained model
    # pushes every score positive
    sx = np.abs(rng.standard_normal((20, 3))) + 0.5
    tx = np.abs(rng.standard_normal((20, 3))) + 0.5
    sy = np.ones(20, dtype=np.int64)
    ty = np.ones(20, dtype=np.int64)
    hp = Hyperparams(k=2, max_outer_iters=20)
    report = run_cv(sx, sy, tx, ty, hp, folds=5, seed=0)
    assert report.fold_accuracies == [1.0] * 5


def test_run_cv_beats_chance_on_synthetic_pair():
    sx, sy, tx, ty = make_shifted_pair(7, n1=60, n2=60, n3=60, m=3,
                                       shift=0.5, rot_deg=15.0)
    hp = Hyperparams(k=3, max_outer_iters=20)
    report = run_cv(sx, sy, tx, ty, hp, folds=5, seed=7)
    assert report.mean_accuracy > 0.5


def test_run_cv_report_structure():
    sx, sy, tx, ty = make_shifted_pair(3, n1=30, n2=30, n3=30, m=3)
    hp = Hyperparams(k=2, max_outer_iters=5)
    report = run_cv(sx, sy, tx, ty, hp, folds=3, seed=5)
    assert len(report.fold_accuracies) == 3
    assert len(report.fold_seconds) == 3
    assert report.seed == 5
    flat = sorted(i for fold in report.folds for i in fold)
    assert flat == list(range(30))
    acc = np.asarray(report.fold_accuracies)
    assert report.mean_accuracy == pytest.approx(acc.mean())
    assert report.std_accuracy == pytest.approx(acc.std())
    assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)


def test_run_cv_never_trains_on_test_points(monkeypatch):
    sx, sy, tx, ty = make_shifted_pair(5, n1=24, n2=24, n3=24, m=3)
    hp = Hyperparams(k=2, max_outer_iters=3)
    seen = []

    import subadapt.evaluation as evaluation

    original = evaluation.fit

    def spy(pair, hp_inner, **kwargs):
        seen.append(pair.target_x.copy())
        return original(pair, hp_inner, **kwargs)

    monkeypatch.setattr(evaluation, "fit", spy)
    report = run_cv(sx, sy, tx, ty, hp, folds=4, seed=1)
    folds = [np.asarray(f) for f in report.folds]
    for fold_index, trained_x in enumerate(seen):
        test_rows = tx[folds[fold_index]]
        for row in test_rows:
            assert not np.any(np.all(np.isclose(trained_x, row), axis=1))


def test_run_cv_requires_full_labels():
    sx, sy, tx, ty = make_shifted_pair(2, n1=20, n2=20, n3=20, m=3)
    with pytest.raises(ValidationError, match="label for every target row"):
        run_cv(sx, sy, tx, ty[:5], Hyperparams(k=2))


def test_one_vs_all_three_blobs_beats_chance():
    rng = np.random.default_rng(10)
    sx, sy = three_blob_data(rng, 12)
    tx, ty = three_blob_data(rng, 12)
    hp = Hyperparams(k=3, max_outer_iters=10)
    model = one_vs_all(sx, sy, tx, ty, [0, 1, 2], hp)
    predicted = model.predict(tx)
    assert accuracy(predicted, ty) >= 1.0 / 3.0


def test_one_vs_all_predict_rejects_non_finite_rows():
    rng = np.random.default_rng(10)
    sx, sy = three_blob_data(rng, 8)
    tx, ty = three_blob_data(rng, 8)
    model = one_vs_all(sx, sy, tx, ty, [0, 1, 2], Hyperparams(k=2, max_outer_iters=3))
    tx[3, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        model.predict(tx)


def test_one_vs_all_degenerate_class_rejected():
    rng = np.random.default_rng(11)
    sx, sy = three_blob_data(rng, 8)
    sy = np.where(sy == 2, 1, sy)  # class 2 has no source positives
    tx, ty = three_blob_data(rng, 8)
    with pytest.raises(ValidationError, match="degenerate one-vs-all class"):
        one_vs_all(sx, sy, tx, ty, [0, 1, 2], Hyperparams(k=2, max_outer_iters=3))


def test_one_vs_all_needs_two_classes():
    rng = np.random.default_rng(12)
    sx, sy = three_blob_data(rng, 6)
    with pytest.raises(ValidationError, match="at least 2"):
        one_vs_all(sx, sy, sx, sy, [0], Hyperparams(k=2))


def test_two_class_argmax_matches_sign_decision():
    # with mirror-symmetric scores the argmax over {+1, -1} models equals
    # the binary sign rule, including the tie convention at zero
    rng = np.random.default_rng(15)
    score_pos = np.concatenate([rng.standard_normal(30), [0.0]])
    scores = np.column_stack([score_pos, -score_pos])
    picked = argmax_class(scores, [1, -1])
    assert np.array_equal(picked, np.where(score_pos >= 0, 1, -1))


def test_one_vs_all_scaling_invariance():
    rng = np.random.default_rng(13)
    scores = rng.standard_normal((40, 3))
    classes = [0, 1, 2]
    base = argmax_class(scores, classes)
    scaled = argmax_class(4.2 * scores, classes)
    assert np.array_equal(base, scaled)


def test_run_cv_multiclass_path():
    rng = np.random.default_rng(14)
    sx, sy = three_blob_data(rng, 10)
    tx, ty = three_blob_data(rng, 10)
    hp = Hyperparams(k=2, max_outer_iters=5)
    report = run_cv(sx, sy, tx, ty, hp, folds=3, seed=2)
    assert len(report.fold_accuracies) == 3
    assert report.mean_accuracy >= 1.0 / 3.0
