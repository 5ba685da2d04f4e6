"""Dataset containers, hyperparameters, and the trained-model state.

The source set is fully labeled; the target set carries labels only on a
prefix of its rows. Labels are stored as {+1, -1} integers, unlabeled rows
carry no label value at all, and multiclass data never enters these
containers (the evaluation module reduces it to binary problems first).
"""

from __future__ import annotations

import sys
import typing
from dataclasses import dataclass, replace

import numpy as np

LOSS_KINDS = ("hinge", "logistic", "exponential")


class ValidationError(ValueError):
    """An input violates a documented contract (shapes, labels, settings)."""


class NumericError(RuntimeError):
    """A numeric routine could not meet its accuracy contract."""


def _frozen_matrix(values, name):
    arr = np.array(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-d array, got {arr.ndim}-d")
    arr.setflags(write=False)
    return arr


def _frozen_labels(values, name):
    arr = np.array(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d array, got {arr.ndim}-d")
    if arr.dtype.kind == "f" and arr.size and np.all(np.isfinite(arr)) \
            and np.all(arr == np.round(arr)):
        arr = arr.astype(np.int64)
    elif arr.dtype.kind in "iub":
        arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DatasetPair:
    """A fully labeled source set plus a partially labeled target set.

    ``target_y`` holds labels for the first ``n3 = len(target_y)`` target
    rows only; the remaining ``n2 - n3`` rows are unlabeled.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source_x", _frozen_matrix(self.source_x, "source_x"))
        object.__setattr__(self, "target_x", _frozen_matrix(self.target_x, "target_x"))
        object.__setattr__(self, "source_y", _frozen_labels(self.source_y, "source_y"))
        object.__setattr__(self, "target_y", _frozen_labels(self.target_y, "target_y"))

    @property
    def n1(self) -> int:
        return self.source_x.shape[0]

    @property
    def n2(self) -> int:
        return self.target_x.shape[0]

    @property
    def n3(self) -> int:
        return self.target_y.shape[0]

    @property
    def m(self) -> int:
        return self.source_x.shape[1]


@dataclass(frozen=True)
class Hyperparams:
    """Term weights and optimization controls.

    ``r`` may be left as None and is resolved to ``min(10, m - 1)`` once the
    feature dimension is known. ``max_inner_iters`` caps the classifier
    block's steps: Newton steps for the smooth logistic and exponential
    losses, descent steps for hinge. ``step`` is the descent's first step
    size, so it affects only the hinge loss.
    """

    c1: float = 10.0
    c2: float = 1.0
    c3: float = 100.0
    r: int | None = None
    k: int = 5
    delta: float = 3.0
    step: float = 1e-3
    loss: str = "hinge"
    max_outer_iters: int = 100
    max_inner_iters: int = 50
    tol: float = 1e-5
    seed: int = 0

    def resolved(self, m: int) -> "Hyperparams":
        """Return a copy with the subspace count filled in for dimension m."""
        if self.r is not None:
            return self
        return replace(self, r=min(10, m - 1))


def validate(pair: DatasetPair, hp: Hyperparams) -> None:
    """Check every container invariant; raise ValidationError on the first failure.

    Inputs that pass are exactly the ones on which the numeric modules'
    preconditions hold.
    """
    if pair.source_x.ndim != 2 or pair.target_x.ndim != 2:
        raise ValidationError("feature sets must be 2-d matrices")
    n1, m = pair.source_x.shape
    n2, m_t = pair.target_x.shape
    if n1 < 1 or n2 < 1:
        raise ValidationError("source and target sets must be nonempty")
    if m_t != m:
        raise ValidationError(
            f"dimension mismatch: source has {m} features, target has {m_t}")
    if pair.source_y.shape != (n1,):
        raise ValidationError(
            f"dimension mismatch: {n1} source rows but {pair.source_y.shape[0]} source labels")
    if pair.n3 > n2:
        raise ValidationError(
            f"dimension mismatch: {pair.n3} target labels exceed {n2} target rows")
    if not np.all(np.isfinite(pair.source_x)) or not np.all(np.isfinite(pair.target_x)):
        raise ValidationError("non-finite feature value")
    for name, labels in (("source", pair.source_y), ("target", pair.target_y)):
        if labels.dtype.kind not in "iu" or not np.all(np.abs(labels) == 1):
            raise ValidationError(f"label outside {{+1,-1}} in {name} labels")

    # bounded by the largest float: nan, inf and integers beyond float range fail
    for name in ("c1", "c2", "c3"):
        if not 0 <= getattr(hp, name) <= sys.float_info.max:
            raise ValidationError(f"{name} must be a nonnegative finite weight")
    if not 1 <= hp.delta <= sys.float_info.max:
        raise ValidationError("delta < 1 makes pi constraints infeasible")
    if not 0 < hp.step <= sys.float_info.max:
        raise ValidationError("step must be positive")
    if hp.loss not in LOSS_KINDS:
        raise ValidationError(f"unknown loss kind: {hp.loss!r}")
    if hp.max_outer_iters < 1 or hp.max_inner_iters < 1:
        raise ValidationError("iteration limits must be positive")
    if not 0 < hp.tol <= sys.float_info.max:
        raise ValidationError("tol must be positive")
    if hp.seed < 0:
        raise ValidationError("seed must be nonnegative")

    r = hp.resolved(m).r
    if r < 1:
        raise ValidationError("r must be at least 1")
    if r >= m:
        raise ValidationError(f"r >= m: {r} subspaces need a feature dimension above {r}")
    if hp.k < 1:
        raise ValidationError("k must be at least 1")
    if hp.k > min(n1, n2) - 1:
        raise ValidationError(
            f"k = {hp.k} exceeds min(n1, n2) - 1 = {min(n1, n2) - 1}")


@dataclass(frozen=True)
class ModelState:
    """All learned parameters of a trained binary model.

    ``u`` and ``v`` are redundant with ``phi - theta.T @ w`` and
    ``varphi - theta.T @ w``; they are stored so the two classifier forms
    can be cross-checked.
    """

    theta: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    varphi: np.ndarray
    u: np.ndarray
    v: np.ndarray
    pi: np.ndarray
    loss: str

    @classmethod
    def from_parameters(cls, theta, w, phi, varphi, pi, loss) -> "ModelState":
        theta = np.asarray(theta, dtype=float)
        w = np.asarray(w, dtype=float)
        phi = np.asarray(phi, dtype=float)
        varphi = np.asarray(varphi, dtype=float)
        anchor = theta.T @ w
        return cls(theta=theta, w=w, phi=phi, varphi=varphi,
                   u=phi - anchor, v=varphi - anchor,
                   pi=np.asarray(pi, dtype=float), loss=loss)

    @property
    def r(self) -> int:
        return self.theta.shape[0]

    @property
    def m(self) -> int:
        return self.theta.shape[1]


# ModelState's array fields in field order: the matrix theta, then the vectors
MODEL_ARRAYS = tuple(name for name, hint in typing.get_type_hints(ModelState).items()
                     if hint is np.ndarray)


def check_model_state(state: ModelState, delta: float) -> None:
    """Assert the trained-state invariants; raise ValidationError otherwise."""
    for name in MODEL_ARRAYS:
        if not np.isfinite(getattr(state, name)).all():
            raise ValidationError(f"non-finite value in {name}")
    if not np.isfinite(delta):
        raise ValidationError("non-finite delta")
    r = state.r
    gram = state.theta @ state.theta.T
    if r < 1 or np.abs(gram - np.eye(r)).max() > 1e-10:
        raise ValidationError("theta needs at least one row, all orthonormal within 1e-10")
    n1 = state.pi.shape[0]
    if state.pi.min() < -1e-8 or state.pi.max() > delta + 1e-8:
        raise ValidationError("pi violates its box bounds")
    if abs(state.pi.sum() - n1) > 1e-8 * n1:
        raise ValidationError("pi does not sum to n1")
    anchor = state.theta.T @ state.w
    if np.abs(state.u - (state.phi - anchor)).max() > 1e-10:
        raise ValidationError("u is inconsistent with phi - theta.T w")
    if np.abs(state.v - (state.varphi - anchor)).max() > 1e-10:
        raise ValidationError("v is inconsistent with varphi - theta.T w")
    if state.loss not in LOSS_KINDS:
        raise ValidationError(f"unknown loss kind: {state.loss!r}")


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature z-scoring parameters, stored with a model when enabled."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureScaler":
        features = np.asarray(features, dtype=float)
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std
