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
import inspect
import json
import math
import os
import sys
import tempfile
import types
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace

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

# the model file's vectors, in file order; each is the ModelState field of its name
_MODEL_VECTORS = ("w", "phi", "varphi", "u", "v", "pi")


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


SYNTH_DEFAULTS = {name: p.default
                  for name, p in inspect.signature(make_shifted_pair).parameters.items()
                  if p.default is not p.empty}


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


def _read_text(path):
    """The whole file as text, with universal newlines. Bytes that are not
    UTF-8 are a ValidationError naming the file, not a traceback."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise ValidationError(f"{path}: not UTF-8 text (byte {err.start})") from None


def _csv_width(path, lines):
    """Check the header line and return the feature count m."""
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "label" or \
            header[1:] != [f"f{j}" for j in range(len(header) - 1)]:
        raise ValidationError(f"{path}: line 1: header must be label,f0,...,f{{m-1}}")
    return len(header) - 1


def _label_cell(cell):
    """A label cell as 0 (empty: unlabeled), +1 or -1; anything else raises."""
    tag = cell.strip()
    if not tag:
        return 0
    label = int(tag)
    if label not in (1, -1):
        raise ValueError(f"label {tag!r} outside {{+1,-1}}")
    return label


def read_feature_csv(path, require_all_labeled=False):
    """Parse the standard CSV into (features, prefix labels).

    Ragged rows, non-numeric features, bad labels, and labeled rows after
    unlabeled ones are rejected with the offending line number.

    One ``np.loadtxt`` pass parses the rows: its float parser is the one
    ``float()`` uses, so the values are bit-equal, and it gets the lines
    ``str.splitlines`` made, so it sees the reference's rows. Whatever it
    rejects (``1_0``, non-ASCII digits, blank lines that are not empty) or
    the checks below refuse goes to ``_read_feature_csv_reference``, the
    only code that builds line-numbered errors; so both accept exactly the
    same files.
    """
    text = _read_text(path)
    lines = text.splitlines()
    m = _csv_width(path, lines)
    table = None
    # loadtxt strips "\x1f" around a number like other whitespace; float()
    # does not, so a text holding it goes to the reference.
    if "\x1f" not in text:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns when no data row is left
                # comments=None: the default '#' would accept "1.5#x". All
                # m + 1 columns are parsed and the width checked, because
                # usecols would drop extra cells. A list of lines, not
                # io.StringIO(text), spares a UCS-4 copy of the whole text.
                table = np.loadtxt(lines, delimiter=",", comments=None, skiprows=1,
                                   ndmin=2, converters={0: _label_cell})
        except (ValueError, UserWarning):  # any parse failure: the reference explains it
            pass
    if table is not None and table.shape[1] == m + 1:
        labels = table[:, 0]
        n_labeled = np.count_nonzero(labels)
        features = np.ascontiguousarray(table[:, 1:])
        if np.count_nonzero(labels[:n_labeled]) == n_labeled \
                and np.isfinite(features).all() \
                and not (require_all_labeled and n_labeled < len(labels)):
            return features, labels[:n_labeled].astype(np.int64)
    return _read_feature_csv_reference(path, require_all_labeled, lines)


def _read_feature_csv_reference(path, require_all_labeled=False, lines=None):
    """The per-line reader: ``read_feature_csv``'s reference and fallback,
    and the source of every line-numbered error. ``lines`` are the file's
    ``splitlines()`` when the caller has read it already."""
    if lines is None:
        lines = _read_text(path).splitlines()
    m = _csv_width(path, lines)
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
    for name in _MODEL_VECTORS:
        lines.extend(_vector_lines(name, getattr(state, name)))
    lines.append(f"scaler {1 if scaler is not None else 0}")
    if scaler is not None:
        lines.extend(_vector_lines("mean", scaler.mean))
        lines.extend(_vector_lines("std", scaler.std))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_model(path):
    """Inverse of save_model. Returns (ModelState, Hyperparams, scaler|None)."""
    lines = _read_text(path).splitlines()
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
    # rows are collected, not written into np.empty((r, m)): r and m are
    # untrusted, and a huge pair must be a truncated file, not a MemoryError
    rows = []
    for i in range(r):
        values = take().split()
        if len(values) != m:
            raise ValidationError(f"{path}: theta row {i} has wrong length")
        rows.append([number(float, v, "theta") for v in values])
    theta = np.array(rows, dtype=float).reshape(r, m)
    vectors = {name: take_vector(name) for name in _MODEL_VECTORS}
    for name, vec in vectors.items():
        # w has one entry per theta row, pi one per source point, the rest one per column
        if name != "pi" and vec.size != (r if name == "w" else m):
            raise ValidationError(f"{path}: vector {name!r} does not match theta {r} x {m}")
    if not vectors["pi"].size:
        raise ValidationError(f"{path}: vector 'pi' is empty")
    state = ModelState(theta=theta, loss=loss, **vectors)
    has_scaler = take_field("scaler")
    if has_scaler not in ("0", "1"):
        raise ValidationError(f"{path}: field 'scaler' must be 0 or 1, got {has_scaler!r}")
    scaler = None
    if has_scaler == "1":
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
    if hp.r != state.r:
        raise ValidationError(f"{path}: field 'r' is {hp.r} but theta has {state.r} rows")
    return state, hp, scaler


# ---------------------------------------------------------------------------
# run configuration

_HP_FIELDS = tuple(f.name for f in fields(Hyperparams))

# Each Hyperparams field as an optional override; None keeps its default.
_HyperparamOverrides = make_dataclass(
    "_HyperparamOverrides",
    [(name, hint | None, field(default=None))
     for name, hint in typing.get_type_hints(Hyperparams).items()])


@dataclass
class RunConfig(_HyperparamOverrides):
    """Flat bag of every option a command can take: the Hyperparams fields,
    then the command options, read from a JSON object by ``from_json``; None
    means unset."""

    normalize: bool | None = None
    source: str | None = None
    target: str | None = None
    model: str | None = None
    trace: str | None = None
    folds: int | None = None
    report: str | None = None
    param: str | None = None
    grid: list[float] | None = None

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


def _merge_config(args) -> RunConfig:
    """Resolve a RunConfig from --config or from the command's flags, never
    both, and check that it sets every option the command requires and no
    option of another command."""
    command = _COMMANDS[args.command]
    explicit = {name: getattr(args, name) for name in _HP_FIELDS + command.options
                if getattr(args, name) is not None}
    if args.config is not None:
        if explicit:
            raise ValidationError(
                "pass either --config or explicit flags, not both "
                f"(got flags: {sorted(explicit)})")
        config = RunConfig.from_json(_read_text(args.config))
        foreign = [f.name for f in fields(config) if getattr(config, f.name) is not None
                   and f.name not in _HP_FIELDS + command.options]
        if foreign:
            raise ValidationError(f"{args.command} does not take config fields: {foreign}")
    else:
        config = RunConfig(**explicit)
    for name in command.required:
        if getattr(config, name) is None:
            raise ValidationError(f"{args.command} needs --{name}")
    return config


# ---------------------------------------------------------------------------
# commands
#
# The commands call read_feature_csv, load_model and predict_target by their
# module-level names: the benchmark's tracer times them by patching those
# names on this module.

def cmd_synth(args) -> int:
    params = {name: getattr(args, name) for name in SYNTH_DEFAULTS}
    source_x, source_y, target_x, target_y = make_shifted_pair(args.seed, **params)
    os.makedirs(args.out_dir, exist_ok=True)
    write_feature_csv(os.path.join(args.out_dir, "source.csv"), source_x, source_y)
    write_feature_csv(os.path.join(args.out_dir, "target.csv"), target_x,
                      target_y[:args.n3])
    return 0


def cmd_train(args) -> int:
    config = _merge_config(args)
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
    # "%.17g" % x is format(x, ".17g"), the _f17 of every other writer
    rows = map("%.17g,%d\n".__mod__, zip(scores.tolist(), labels.tolist()))
    _atomic_write(args.output, "score,label\n" + "".join(rows))
    return 0


def _read_eval_data(config):
    """Both fully labeled CSVs as (source_x, source_y, target_x, target_y)."""
    source_x, source_y = read_feature_csv(config.source, require_all_labeled=True)
    target_x, target_y = read_feature_csv(config.target, require_all_labeled=True)
    return source_x, source_y, target_x, target_y


def _run_eval(config, data) -> dict:
    """Cross-validate on ``data`` from ``_read_eval_data``."""
    hp = config.hyperparams()
    report = run_cv(*data, hp,
                    folds=config.folds if config.folds is not None else 10,
                    seed=hp.seed, normalize=bool(config.normalize))
    return {
        "fold_accuracies": report.fold_accuracies,
        "mean_accuracy": report.mean_accuracy,
        "std_accuracy": report.std_accuracy,
        "seed": report.seed,
        "folds": report.folds,
        "hyperparams": asdict(hp),
    }


def cmd_eval(args) -> int:
    config = _merge_config(args)
    payload = _run_eval(config, _read_eval_data(config))
    _atomic_write(config.report, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# the term weights a sweep may vary; each sweep row reports all three
_SWEEP_PARAMS = ("c1", "c2", "c3")


def cmd_sweep(args) -> int:
    config = _merge_config(args)
    if config.param not in _SWEEP_PARAMS:
        raise ValidationError(f"sweep --param must be one of {', '.join(_SWEEP_PARAMS)}")
    if not config.grid:
        raise ValidationError("sweep needs a nonempty --grid")
    data = _read_eval_data(config)  # once for the whole grid
    rows = []
    for value in config.grid:
        result = _run_eval(replace(config, **{config.param: float(value)}), data)
        rows.append({
            "value": float(value),
            "mean_accuracy": result["mean_accuracy"],
            "std_accuracy": result["std_accuracy"],
            **{name: result["hyperparams"][name] for name in _SWEEP_PARAMS},
        })
    payload = {"param": config.param,
               "grid": [float(v) for v in config.grid],
               "rows": rows}
    _atomic_write(config.report, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

class _Command(typing.NamedTuple):
    handler: typing.Callable[[argparse.Namespace], int]
    help: str
    # RunConfig fields set by flags after the hyperparameter flags, in flag
    # order; a command with none takes no --config and defines its own flags
    options: tuple[str, ...] = ()
    required: tuple[str, ...] = ()


_COMMANDS = {
    "synth": _Command(cmd_synth, "generate a synthetic domain pair"),
    "train": _Command(cmd_train, "train a model from two CSV files",
                      ("normalize", "source", "target", "model", "trace"),
                      ("source", "target", "model")),
    "predict": _Command(cmd_predict, "score rows with a trained model"),
    "eval": _Command(cmd_eval, "cross-validate on a labeled target set",
                     ("normalize", "source", "target", "folds", "report"),
                     ("source", "target", "report")),
    "sweep": _Command(cmd_sweep, "cross-validate over a weight grid",
                      ("normalize", "source", "target", "folds", "report", "param", "grid"),
                      ("source", "target", "report", "param", "grid")),
}

# hyperparameter flags whose name is not the field name
_HP_FLAGS = {"r": "--subspace-dim", "k": "--neighbors", "max_outer_iters": "--max-iters"}


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subadapt",
        description="Shared-subspace transfer learning with weighted source points")
    sub = parser.add_subparsers(dest="command", required=True)
    hints = typing.get_type_hints(RunConfig)
    for name, command in _COMMANDS.items():
        p_command = sub.add_parser(name, help=command.help)
        p_command.set_defaults(func=command.handler)
        if not command.options:
            continue
        p_command.add_argument("--config", help="JSON config file (exclusive with flags)")
        # each flag parses its field's T of T | None: a bool is a switch, a
        # float list is comma-separated
        for option in _HP_FIELDS + command.options:
            flag = _HP_FLAGS.get(option, "--" + option.replace("_", "-"))
            kind = typing.get_args(hints[option])[0]
            if kind is bool:
                p_command.add_argument(flag, dest=option, action="store_const", const=True)
            else:
                p_command.add_argument(flag, dest=option,
                                       type=_float_list if kind == list[float] else kind,
                                       choices=LOSS_KINDS if option == "loss" else None)

    p_synth = sub.choices["synth"]
    p_synth.add_argument("--seed", type=int, default=0)
    for name, default in SYNTH_DEFAULTS.items():
        p_synth.add_argument("--" + name.replace("_", "-"), type=type(default),
                             default=default, dest=name)
    p_synth.add_argument("--out-dir", required=True)
    for flag in ("--model", "--input", "--output"):
        sub.choices["predict"].add_argument(flag, required=True)
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
