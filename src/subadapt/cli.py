"""Command-line surface: synthetic data generation, training, prediction,
cross-validation, and hyperparameter sweeps.

CSV contract: UTF-8, comma-separated, header ``label,f0,...,f{m-1}``. The
label column holds 1, -1, or is empty for unlabeled target rows; labeled
rows must precede unlabeled ones. Every command is deterministic given its
configuration and seed, and all file writes are whole-file atomic.

Exit codes: 0 success, 2 user or validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import types
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data_model import DatasetPair, FeatureScaler, Hyperparams, LOSS_KINDS, \
    ModelState, NumericError, ValidationError, check_model_state
from .classifier import predict_target
from .evaluation import run_cv
from .trainer import fit

MODEL_FORMAT = "subadapt-model-v1"

# The numeric hyperparameters in field order, each with the type its model
# file line is written and parsed as; ``loss`` is written first, apart.
_HP_KINDS = {name: float if hint is float else int
             for name, hint in typing.get_type_hints(Hyperparams).items()
             if name != "loss"}

SYNTH_DEFAULTS = dict(n1=100, n2=100, n3=20, m=5, shift=1.0, rot_deg=20.0)


# ---------------------------------------------------------------------------
# synthetic data

def make_shifted_pair(seed, n1=100, n2=100, n3=20, m=5, shift=1.0, rot_deg=20.0):
    """Deterministic two-class Gaussian pair with a rotated, shifted target.

    Source: balanced mixture with class means +/- 2*e1 and unit covariance.
    Target: fresh draws from the same mixture, rotated by rot_deg degrees in
    the first two coordinates, then translated by shift along e2. Row order
    is shuffled so the labeled prefix mixes both classes.

    Returns (source_x, source_y, target_x, target_y) with full target
    labels; n3 only governs how many target labels the CSV writer keeps.
    """
    if min(n1, n2, m) < 1 or n3 < 0 or n3 > n2:
        raise ValidationError("counts must be positive with n3 <= n2")
    if m < 2:
        raise ValidationError("the generator needs m >= 2 for its rotation plane")
    if not (math.isfinite(shift) and math.isfinite(rot_deg)):
        raise ValidationError("shift and rot_deg must be finite")
    try:
        rng = np.random.default_rng(seed)
    except ValueError:  # a negative seed entry
        raise ValidationError("seed must be nonnegative") from None

    def sample(n):
        base = np.concatenate([np.ones(n - n // 2, dtype=np.int64),
                               -np.ones(n // 2, dtype=np.int64)])
        labels = base[rng.permutation(n)]
        points = np.zeros((n, m))
        points[:, 0] = 2.0 * labels
        points += rng.standard_normal((n, m))
        return points, labels

    source_x, source_y = sample(n1)
    target_x, target_y = sample(n2)
    angle = math.radians(rot_deg)
    rot = np.eye(m)
    rot[0, 0] = rot[1, 1] = math.cos(angle)
    rot[0, 1] = -math.sin(angle)
    rot[1, 0] = math.sin(angle)
    target_x = target_x @ rot.T
    target_x[:, 1] += shift
    return source_x, source_y, target_x, target_y


# ---------------------------------------------------------------------------
# file formats

def _atomic_write(path, text):
    """Write through a uniquely named temporary file beside ``path``, then
    rename it over ``path``; concurrent writers never share a temporary."""
    directory, name = os.path.split(os.fspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        # mkstemp creates the file private; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _f17(value) -> str:
    return format(float(value), ".17g")


def write_feature_csv(path, features, labels=None):
    """Write the standard CSV; ``labels`` may cover only a prefix of rows."""
    features = np.asarray(features, dtype=float)
    n, m = features.shape
    n_labeled = 0 if labels is None else len(labels)
    lines = ["label," + ",".join(f"f{j}" for j in range(m))]
    for i in range(n):
        tag = str(int(labels[i])) if i < n_labeled else ""
        lines.append(tag + "," + ",".join(repr(float(v)) for v in features[i]))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_feature_csv(path, require_all_labeled=False):
    """Parse the standard CSV into (features, prefix labels).

    Ragged rows, non-numeric features, bad labels, and labeled rows after
    unlabeled ones are rejected with the offending line number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "label" or \
            header[1:] != [f"f{j}" for j in range(len(header) - 1)]:
        raise ValidationError(f"{path}: line 1: header must be label,f0,...,f{{m-1}}")
    m = len(header) - 1
    features, labels = [], []
    seen_unlabeled = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != m + 1:
            raise ValidationError(
                f"{path}: line {lineno}: expected {m + 1} fields, got {len(cells)}")
        tag = cells[0].strip()
        if tag == "":
            seen_unlabeled = True
        else:
            if seen_unlabeled:
                raise ValidationError(
                    f"{path}: line {lineno}: labeled row after unlabeled rows")
            try:
                label = int(tag)
            except ValueError:
                label = 0
            if label not in (1, -1):
                raise ValidationError(f"{path}: line {lineno}: label outside {{+1,-1}}")
            labels.append(label)
        try:
            features.append([float(c) for c in cells[1:]])
        except ValueError:
            raise ValidationError(f"{path}: line {lineno}: non-numeric feature")
    if not features:
        raise ValidationError(f"{path}: no data rows")
    if require_all_labeled and len(labels) != len(features):
        raise ValidationError(f"{path}: every row must be labeled")
    features = np.asarray(features, dtype=float)
    bad_rows = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad_rows.size:
        data_lines = [lineno for lineno, line in enumerate(lines[1:], start=2)
                      if line.strip()]
        raise ValidationError(
            f"{path}: line {data_lines[bad_rows[0]]}: non-finite feature")
    return features, np.asarray(labels, dtype=np.int64)


def _vector_lines(name, vec):
    return [f"{name} {len(vec)}", " ".join(_f17(v) for v in vec)]


def save_model(path, state: ModelState, hp: Hyperparams, scaler=None):
    """Text model file: explicit dimensions, row-major matrices, 17
    significant digits, the full hyperparameters, and a format version."""
    lines = [MODEL_FORMAT, f"loss {state.loss}"]
    for name, kind in _HP_KINDS.items():
        value = state.r if name == "r" else getattr(hp, name)
        lines.append(f"{name} {_f17(value) if kind is float else value}")
    lines.append(f"theta {state.r} {state.m}")
    for row in state.theta:
        lines.append(" ".join(_f17(v) for v in row))
    for name, vec in (("w", state.w), ("phi", state.phi),
                      ("varphi", state.varphi), ("u", state.u),
                      ("v", state.v), ("pi", state.pi)):
        lines.extend(_vector_lines(name, vec))
    lines.append(f"scaler {1 if scaler is not None else 0}")
    if scaler is not None:
        lines.extend(_vector_lines("mean", scaler.mean))
        lines.extend(_vector_lines("std", scaler.std))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_model(path):
    """Inverse of save_model. Returns (ModelState, Hyperparams, scaler|None)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    cursor = 0

    def number(kind, text, name):
        try:
            return kind(text)
        except ValueError:
            raise ValidationError(
                f"{path}: field {name!r} is not a valid {kind.__name__}: {text!r}"
            ) from None

    def take():
        nonlocal cursor
        if cursor >= len(lines):
            raise ValidationError(f"{path}: truncated model file")
        line = lines[cursor]
        cursor += 1
        return line

    def take_field(name):
        parts = take().split()
        if len(parts) != 2 or parts[0] != name:
            raise ValidationError(f"{path}: expected field {name!r}")
        return parts[1]

    def take_vector(name):
        parts = take().split()
        if len(parts) != 2 or parts[0] != name:
            raise ValidationError(f"{path}: expected vector {name!r}")
        count = number(int, parts[1], name)
        values = take().split()
        if len(values) != count:
            raise ValidationError(f"{path}: vector {name!r} has wrong length")
        return np.array([number(float, v, name) for v in values])

    if take() != MODEL_FORMAT:
        raise ValidationError(f"{path}: unknown model format")
    loss = take_field("loss")
    hp_kwargs = dict(loss=loss)
    for name, kind in _HP_KINDS.items():
        hp_kwargs[name] = number(kind, take_field(name), name)
    hp = Hyperparams(**hp_kwargs)

    parts = take().split()
    if len(parts) != 3 or parts[0] != "theta":
        raise ValidationError(f"{path}: expected the theta matrix")
    r, m = number(int, parts[1], "theta"), number(int, parts[2], "theta")
    if r < 0 or m < 0:
        raise ValidationError(f"{path}: field 'theta' has a negative dimension")
    theta = np.empty((r, m))
    for i in range(r):
        values = take().split()
        if len(values) != m:
            raise ValidationError(f"{path}: theta row {i} has wrong length")
        theta[i] = [number(float, v, "theta") for v in values]
    vectors = {name: take_vector(name)
               for name in ("w", "phi", "varphi", "u", "v", "pi")}
    for name, size in (("w", r), ("phi", m), ("varphi", m), ("u", m), ("v", m)):
        if vectors[name].size != size:
            raise ValidationError(f"{path}: vector {name!r} does not match theta {r} x {m}")
    if not vectors["pi"].size:
        raise ValidationError(f"{path}: vector 'pi' is empty")
    state = ModelState(theta=theta, w=vectors["w"], phi=vectors["phi"],
                       varphi=vectors["varphi"], u=vectors["u"],
                       v=vectors["v"], pi=vectors["pi"], loss=loss)
    scaler = None
    if number(int, take_field("scaler"), "scaler"):
        scaler = FeatureScaler(mean=take_vector("mean"), std=take_vector("std"))
        if scaler.mean.size != m or scaler.std.size != m:
            raise ValidationError(f"{path}: scaler vectors do not match theta {r} x {m}")
        if not (np.isfinite(scaler.mean).all() and np.isfinite(scaler.std).all()
                and (scaler.std > 0).all()):
            raise ValidationError(f"{path}: scaler needs a finite mean and a positive finite std")
    extra = next((i for i in range(cursor, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise ValidationError(f"{path}: line {extra + 1}: content after the last field")
    try:
        check_model_state(state, hp.delta)
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from None
    return state, hp, scaler


# ---------------------------------------------------------------------------
# run configuration

_HP_FIELDS = tuple(f.name for f in fields(Hyperparams))


@dataclass
class RunConfig:
    """Flat bag of every option a command can take; JSON round-trippable."""

    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    r: int | None = None
    k: int | None = None
    delta: float | None = None
    step: float | None = None
    loss: str | None = None
    max_outer_iters: int | None = None
    max_inner_iters: int | None = None
    tol: float | None = None
    seed: int | None = None
    folds: int | None = None
    normalize: bool | None = None
    source: str | None = None
    target: str | None = None
    model: str | None = None
    output: str | None = None
    report: str | None = None
    trace: str | None = None
    param: str | None = None
    grid: list[float] | None = None

    def to_json(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except ValueError as err:
            raise ValidationError(f"config is not valid JSON: {err}") from None
        if not isinstance(payload, dict):
            raise ValidationError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(f"unknown config fields: {unknown}")
        hints = typing.get_type_hints(cls)
        for name, value in payload.items():
            if not _json_fits(value, hints[name]):
                raise ValidationError(
                    f"config field {name!r} must be {hints[name]}, "
                    f"got {json.dumps(value)}")
        return cls(**payload)

    def hyperparams(self) -> Hyperparams:
        kwargs = {name: getattr(self, name) for name in _HP_FIELDS
                  if getattr(self, name) is not None}
        return Hyperparams(**kwargs)


def _json_fits(value, kind) -> bool:
    """Whether a decoded JSON value fits a field annotation such as
    ``float | None`` or ``list[float] | None``. An integer fits float;
    a boolean fits only bool."""
    args = typing.get_args(kind)
    origin = typing.get_origin(kind)
    if origin is types.UnionType:
        return any(_json_fits(value, option) for option in args)
    if origin is list:
        return isinstance(value, list) and all(_json_fits(v, args[0]) for v in value)
    if kind is type(None):
        return value is None
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _merge_config(args, option_names):
    """Resolve a RunConfig from --config or from explicit flags, never both."""
    explicit = {name: getattr(args, name) for name in option_names
                if getattr(args, name, None) is not None}
    if args.config is not None:
        if explicit:
            raise ValidationError(
                "pass either --config or explicit flags, not both "
                f"(got flags: {sorted(explicit)})")
        with open(args.config, "r", encoding="utf-8") as handle:
            return RunConfig.from_json(handle.read())
    return RunConfig(**explicit)


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    params = {name: getattr(args, name) for name in SYNTH_DEFAULTS}
    source_x, source_y, target_x, target_y = make_shifted_pair(args.seed, **params)
    os.makedirs(args.out_dir, exist_ok=True)
    write_feature_csv(os.path.join(args.out_dir, "source.csv"), source_x, source_y)
    write_feature_csv(os.path.join(args.out_dir, "target.csv"), target_x,
                      target_y[:args.n3])
    return 0


_TRAIN_OPTIONS = _HP_FIELDS + ("normalize", "source", "target", "model", "trace")


def cmd_train(args) -> int:
    config = _merge_config(args, _TRAIN_OPTIONS)
    for name in ("source", "target", "model"):
        if getattr(config, name) is None:
            raise ValidationError(f"train needs --{name}")
    hp = config.hyperparams()
    source_x, source_y = read_feature_csv(config.source, require_all_labeled=True)
    target_x, target_y = read_feature_csv(config.target)

    scaler = None
    if config.normalize:
        scaler = FeatureScaler.fit(np.vstack([source_x, target_x]))
        source_x = scaler.apply(source_x)
        target_x = scaler.apply(target_x)

    pair = DatasetPair(source_x, source_y, target_x, target_y)
    state, trace = fit(pair, hp)
    save_model(config.model, state, hp.resolved(pair.m), scaler)
    if config.trace is not None:
        payload = asdict(trace)
        _atomic_write(config.trace, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_predict(args) -> int:
    state, _, scaler = load_model(args.model)
    features, _ = read_feature_csv(args.input)
    if features.shape[1] != state.m:
        raise ValidationError(
            f"input has {features.shape[1]} features, model expects {state.m}")
    if scaler is not None:
        features = scaler.apply(features)
    scores, labels = predict_target(state.varphi, features)
    lines = ["score,label"]
    lines.extend(f"{_f17(s)},{int(l)}" for s, l in zip(scores, labels))
    _atomic_write(args.output, "\n".join(lines) + "\n")
    return 0


_EVAL_OPTIONS = _HP_FIELDS + ("normalize", "source", "target", "report", "folds")


def _run_eval(config) -> dict:
    for name in ("source", "target"):
        if getattr(config, name) is None:
            raise ValidationError(f"eval needs --{name}")
    hp = config.hyperparams()
    source_x, source_y = read_feature_csv(config.source, require_all_labeled=True)
    target_x, target_y = read_feature_csv(config.target, require_all_labeled=True)
    report = run_cv(source_x, source_y, target_x, target_y, hp,
                    folds=config.folds if config.folds is not None else 10,
                    seed=hp.seed, normalize=bool(config.normalize))
    return {
        "fold_accuracies": report.fold_accuracies,
        "mean_accuracy": report.mean_accuracy,
        "std_accuracy": report.std_accuracy,
        "seed": report.seed,
        "folds": report.folds,
        "hyperparams": {name: getattr(hp, name) for name in _HP_FIELDS},
    }


def cmd_eval(args) -> int:
    config = _merge_config(args, _EVAL_OPTIONS)
    if config.report is None:
        raise ValidationError("eval needs --report")
    payload = _run_eval(config)
    _atomic_write(config.report, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_sweep(args) -> int:
    config = _merge_config(args, _EVAL_OPTIONS + ("param", "grid"))
    if config.report is None:
        raise ValidationError("sweep needs --report")
    if config.param not in ("c1", "c2", "c3"):
        raise ValidationError("sweep --param must be one of c1, c2, c3")
    if not config.grid:
        raise ValidationError("sweep needs a nonempty --grid")
    rows = []
    for value in config.grid:
        point = RunConfig(**{**asdict(config), config.param: float(value),
                             "report": None, "param": None, "grid": None})
        result = _run_eval(point)
        rows.append({
            "value": float(value),
            "mean_accuracy": result["mean_accuracy"],
            "std_accuracy": result["std_accuracy"],
            "c1": result["hyperparams"]["c1"],
            "c2": result["hyperparams"]["c2"],
            "c3": result["hyperparams"]["c3"],
        })
    payload = {"param": config.param,
               "grid": [float(v) for v in config.grid],
               "rows": rows}
    _atomic_write(config.report, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# hyperparameter flags whose name is not the field name
_HP_FLAGS = {"r": "--subspace-dim", "k": "--neighbors", "max_outer_iters": "--max-iters"}


def _add_hyper_flags(parser):
    parser.add_argument("--config", help="JSON config file (exclusive with flags)")
    for name in _HP_FIELDS:
        parser.add_argument(_HP_FLAGS.get(name, "--" + name.replace("_", "-")), dest=name,
                            type=_HP_KINDS.get(name), choices=LOSS_KINDS if name == "loss" else None)
    parser.add_argument("--normalize", action="store_const", const=True,
                        dest="normalize")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subadapt",
        description="Shared-subspace transfer learning with weighted source points")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic domain pair")
    p_synth.add_argument("--seed", type=int, default=0)
    for name, default in SYNTH_DEFAULTS.items():
        flag = "--" + name.replace("_", "-")
        p_synth.add_argument(flag, type=type(default), default=default, dest=name)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a model from two CSV files")
    _add_hyper_flags(p_train)
    p_train.add_argument("--source", dest="source")
    p_train.add_argument("--target", dest="target")
    p_train.add_argument("--model", dest="model")
    p_train.add_argument("--trace", dest="trace")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="score rows with a trained model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)
    p_pred.add_argument("--output", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="cross-validate on a labeled target set")
    _add_hyper_flags(p_eval)
    p_eval.add_argument("--source", dest="source")
    p_eval.add_argument("--target", dest="target")
    p_eval.add_argument("--folds", type=int, dest="folds")
    p_eval.add_argument("--report", dest="report")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="cross-validate over a weight grid")
    _add_hyper_flags(p_sweep)
    p_sweep.add_argument("--source", dest="source")
    p_sweep.add_argument("--target", dest="target")
    p_sweep.add_argument("--folds", type=int, dest="folds")
    p_sweep.add_argument("--report", dest="report")
    p_sweep.add_argument("--param", dest="param")
    p_sweep.add_argument("--grid", dest="grid",
                         type=lambda s: [float(v) for v in s.split(",") if v.strip()])
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
