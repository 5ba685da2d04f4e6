"""Cross-validation protocol: seeded folds over the target set, training
folds with a randomly labeled half, binary or one-vs-all scoring.

Each fold in turn is held out; the remaining target points form the
training target set with half of them labeled (labeled points reordered to
a prefix). The source set is fully labeled and used in every fold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .classifier import predict_target
from .data_model import DatasetPair, FeatureScaler, Hyperparams, ValidationError
from .trainer import fit


@dataclass
class CvReport:
    """Per-fold accuracies with aggregates and the exact split used."""

    fold_accuracies: list
    mean_accuracy: float
    std_accuracy: float
    fold_seconds: list
    seed: int
    folds: list


@dataclass(frozen=True)
class OneVsAllModel:
    """One trained binary model per class; prediction takes the top score."""

    classes: tuple
    models: tuple

    def scores(self, x) -> np.ndarray:
        """n x n_classes matrix of per-class target scores."""
        x = np.asarray(x, dtype=float)
        cols = [predict_target(model.varphi, x)[0] for model in self.models]
        return np.column_stack(cols)

    def predict(self, x) -> np.ndarray:
        """Class with the largest score; ties go to the lowest class index."""
        return argmax_class(self.scores(x), self.classes)


def argmax_class(scores: np.ndarray, classes) -> np.ndarray:
    """Row-wise argmax over class scores; ties break to the lowest index."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    return np.asarray(classes)[np.argmax(scores, axis=1)]


def accuracy(predicted, truth) -> float:
    """Fraction of matching labels."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValidationError("prediction and truth sizes differ or are empty")
    return float(np.mean(predicted == truth))


def kfold_split(n: int, folds: int, seed) -> list:
    """Seeded random partition of range(n) into folds of near-equal size."""
    # one fold would leave no training rows
    if folds < 2 or folds > n:
        raise ValidationError(f"folds must satisfy 2 <= folds <= n, got {folds}, n = {n}")
    perm = np.random.default_rng(seed).permutation(n)
    sizes = np.full(folds, n // folds)
    sizes[: n % folds] += 1
    out = []
    start = 0
    for size in sizes:
        out.append(np.sort(perm[start:start + size]))
        start += size
    return out


def half_label_mask(train_indices, seed) -> np.ndarray:
    """Seeded subset of ceil(len/2) indices to keep labeled."""
    train_indices = np.asarray(train_indices)
    if train_indices.size == 0:
        raise ValidationError("cannot label an empty training set")
    count = (train_indices.size + 1) // 2
    perm = np.random.default_rng(seed).permutation(train_indices.size)
    return train_indices[np.sort(perm[:count])]


def _binary_labels(labels, positive):
    return np.where(np.asarray(labels) == positive, 1, -1)


def one_vs_all(source_x, source_y, target_x, target_y_labeled, classes,
               hp: Hyperparams, *, update_subspace=True) -> OneVsAllModel:
    """Train one full binary model per class (that class +1, the rest -1)."""
    classes = list(classes)
    if len(classes) < 2:
        raise ValidationError("one-vs-all needs at least 2 classes")
    source_y = np.asarray(source_y)
    target_y_labeled = np.asarray(target_y_labeled)
    known = set(classes)
    for name, labels in (("source", source_y), ("target", target_y_labeled)):
        if labels.size and not set(np.unique(labels)).issubset(known):
            raise ValidationError(f"{name} labels outside the class list")
    models = []
    for cls in classes:
        if not np.any(source_y == cls):
            raise ValidationError(f"degenerate one-vs-all class: {cls!r}")
        pair = DatasetPair(source_x, _binary_labels(source_y, cls),
                           target_x, _binary_labels(target_y_labeled, cls))
        state, _ = fit(pair, hp, update_subspace=update_subspace)
        models.append(state)
    return OneVsAllModel(classes=tuple(classes), models=tuple(models))


def _fold_training_order(train_idx, labeled_idx):
    labeled_set = set(labeled_idx.tolist())
    unlabeled = np.array([i for i in train_idx if i not in labeled_set],
                         dtype=np.int64)
    return np.concatenate([labeled_idx, unlabeled]), labeled_idx.size


def run_cv(source_x, source_y, target_x, target_y, hp: Hyperparams,
           folds: int = 10, seed: int = 0, *, normalize=False,
           update_subspace=True) -> CvReport:
    """Fold-wise train/score over a fully labeled target set.

    ``target_y`` must label every target row (it is the ground truth for
    scoring); the protocol itself hides the labels of half of each training
    fold. Binary data trains one model per fold, anything else goes through
    one-vs-all.
    """
    source_x = np.asarray(source_x, dtype=float)
    target_x = np.asarray(target_x, dtype=float)
    source_y = np.asarray(source_y)
    target_y = np.asarray(target_y)
    if target_y.shape != (target_x.shape[0],):
        raise ValidationError("run_cv needs a label for every target row")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    fold_sets = kfold_split(target_x.shape[0], folds, seed)
    classes = sorted(set(np.unique(source_y)) | set(np.unique(target_y)))
    binary = set(classes).issubset({-1, 1})

    fold_accuracies = []
    fold_seconds = []
    for fold_index, test_idx in enumerate(fold_sets):
        started = time.perf_counter()
        train_idx = np.concatenate(
            [fold_sets[j] for j in range(folds) if j != fold_index])
        labeled_idx = half_label_mask(train_idx, [seed, fold_index])
        ordered, n_labeled = _fold_training_order(train_idx, labeled_idx)

        sx, tx_train, tx_test = source_x, target_x[ordered], target_x[test_idx]
        if normalize:
            scaler = FeatureScaler.fit(np.vstack([source_x, target_x[ordered]]))
            sx = scaler.apply(source_x)
            tx_train = scaler.apply(tx_train)
            tx_test = scaler.apply(tx_test)

        labeled_y = target_y[ordered[:n_labeled]]
        if binary:
            pair = DatasetPair(sx, source_y, tx_train, labeled_y)
            state, _ = fit(pair, hp, update_subspace=update_subspace)
            _, predicted = predict_target(state.varphi, tx_test)
        else:
            model = one_vs_all(sx, source_y, tx_train, labeled_y, classes, hp,
                               update_subspace=update_subspace)
            predicted = model.predict(tx_test)
        fold_accuracies.append(accuracy(predicted, target_y[test_idx]))
        fold_seconds.append(time.perf_counter() - started)

    acc = np.asarray(fold_accuracies)
    return CvReport(fold_accuracies=[float(a) for a in fold_accuracies],
                    mean_accuracy=float(acc.mean()),
                    std_accuracy=float(acc.std()),
                    fold_seconds=fold_seconds,
                    seed=seed,
                    folds=[idx.tolist() for idx in fold_sets])
