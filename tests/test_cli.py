import json
import os
import typing
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from subadapt import cli
from subadapt.classifier import predict_target
from subadapt.cli import (
    RunConfig,
    _atomic_write,
    _merge_config,
    build_parser,
    load_model,
    main,
    make_shifted_pair,
    read_feature_csv,
    save_model,
    write_feature_csv,
)
from subadapt.data_model import FeatureScaler, Hyperparams, ModelState, \
    check_model_state
from subadapt.trainer import TrainingTrace


def synth(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(["synth", "--seed", "7", "--n1", "40", "--n2", "40", "--n3", "40",
               "--m", "3", "--out-dir", str(out), *extra])
    assert rc == 0
    return out


def test_synth_deterministic_bytes(tmp_path):
    a = synth(tmp_path, "a")
    b = synth(tmp_path, "b")
    for name in ("source.csv", "target.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_balanced_classes(tmp_path):
    out = tmp_path / "bal"
    assert main(["synth", "--seed", "3", "--n1", "100", "--n2", "100",
                 "--n3", "100", "--out-dir", str(out)]) == 0
    _, sy = read_feature_csv(out / "source.csv")
    _, ty = read_feature_csv(out / "target.csv")
    assert (sy == 1).sum() == 50 and (sy == -1).sum() == 50
    assert (ty == 1).sum() == 50 and (ty == -1).sum() == 50


def test_synth_labels_only_prefix(tmp_path):
    out = tmp_path / "pref"
    assert main(["synth", "--seed", "1", "--n1", "20", "--n2", "20",
                 "--n3", "6", "--out-dir", str(out)]) == 0
    tx, ty = read_feature_csv(out / "target.csv")
    assert tx.shape == (20, 5) and ty.shape == (6,)


def test_synth_identity_shift_changes_only_draws():
    sx, sy, tx, ty = make_shifted_pair(9, n1=30, n2=30, n3=30, m=3,
                                       shift=0.0, rot_deg=0.0)
    # same distribution, independent draws
    assert sx.shape == tx.shape
    assert not np.array_equal(sx, tx)


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be nonnegative"),
    ("--rot-deg", "inf", "must be finite"),
    ("--shift", "nan", "must be finite"),
])
def test_synth_bad_parameter_exits_2(tmp_path, capsys, flag, value, message):
    out = tmp_path / "bad"
    assert main(["synth", "--n1", "10", "--n2", "10", "--n3", "5", "--m", "3",
                 flag, value, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, message", [
    ("eval", ["--folds", "1"], "2 <= folds <= n"),
    ("sweep", ["--folds", "1", "--param", "c3", "--grid", "1,2"], "2 <= folds <= n"),
    ("eval", ["--seed", "-1"], "seed must be nonnegative"),
])
def test_cv_bad_folds_or_seed_exits_2(tmp_path, capsys, command, extra, message):
    data = synth(tmp_path, "cv")
    capsys.readouterr()
    assert main([command, "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"),
                 "--report", str(tmp_path / "r.json"), *extra]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 4))
    y = np.where(rng.random(5) < 0.5, 1, -1)
    path = tmp_path / "data.csv"
    write_feature_csv(path, x, y)
    x2, y2 = read_feature_csv(path)
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)


def test_csv_ragged_row_diagnostic(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n1,0.5,0.25\n-1,0.5\n")
    from subadapt.data_model import ValidationError
    with pytest.raises(ValidationError, match="line 3"):
        read_feature_csv(path)


def test_csv_non_numeric_diagnostic(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0\n1,0.5\n1,abc\n")
    from subadapt.data_model import ValidationError
    with pytest.raises(ValidationError, match="line 3: non-numeric"):
        read_feature_csv(path)


def test_csv_labeled_after_unlabeled_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0\n1,0.5\n,0.25\n-1,0.125\n")
    from subadapt.data_model import ValidationError
    with pytest.raises(ValidationError, match="line 4: labeled row after"):
        read_feature_csv(path)


@pytest.mark.parametrize("loss, inner", [("hinge", "50"), ("logistic", "50"), ("logistic", "1")])
def test_trace_records_capped_classifier_runs(tmp_path, loss, inner):
    # inner_capped records a stop at --max-inner-iters; a Newton run (the
    # smooth losses) that is neither capped nor floored stopped on its
    # decrement
    data = synth(tmp_path, "d")
    trace_path = tmp_path / "trace.json"
    rc = main(["train", "--source", str(data / "source.csv"),
               "--target", str(data / "target.csv"), "--model", str(tmp_path / "model.txt"),
               "--trace", str(trace_path), "--neighbors", "3", "--max-iters", "6",
               "--loss", loss, "--max-inner-iters", inner])
    assert rc == 0
    trace = json.loads(trace_path.read_text())
    capped = trace["inner_capped"]
    assert len(capped) == trace["n_iters"] and all(type(c) is bool for c in capped)
    assert all(steps == int(inner) for steps, c in zip(trace["inner_steps"], capped) if c)
    if loss == "hinge":
        # the descent is capped exactly when it takes all its steps, and its
        # 1e-3 step rarely finishes the block
        assert capped == [steps == int(inner) for steps in trace["inner_steps"]]
        assert any(capped)
    elif inner == "1":
        assert capped[0]
    else:
        assert not any(capped) and not any(trace["inner_hit_step_floor"])


def test_train_model_reload_and_revalidate(tmp_path):
    data = synth(tmp_path, "d")
    model_path = tmp_path / "model.txt"
    trace_path = tmp_path / "trace.json"
    rc = main(["train", "--source", str(data / "source.csv"),
               "--target", str(data / "target.csv"),
               "--model", str(model_path), "--trace", str(trace_path),
               "--neighbors", "3", "--max-iters", "15"])
    assert rc == 0
    state, hp, scaler = load_model(model_path)
    assert scaler is None
    check_model_state(state, hp.delta)
    trace = json.loads(trace_path.read_text())
    assert set(trace) == {f.name for f in fields(TrainingTrace)}
    assert trace["n_iters"] >= 1
    assert len(trace["inner_hit_step_floor"]) == trace["n_iters"]
    term_names = ["source_loss", "target_loss", "adaptation", "reconstruction", "matching"]
    for block in ("subspace", "classifier", "weights"):
        recorded = trace[f"terms_after_{block}"]
        assert len(recorded) == trace["n_iters"]
        for terms, objective in zip(recorded, trace[f"objective_after_{block}"]):
            assert list(terms) == sorted(term_names)  # json.dumps(sort_keys=True)
            total = 0.0
            for name in term_names:
                total += terms[name]
            assert total == objective
    diffs = np.diff(trace["objective_after_weights"])
    assert np.all(diffs <= 1e-6)


def test_train_infeasible_delta_exits_2(tmp_path):
    data = synth(tmp_path, "d2")
    rc = main(["train", "--source", str(data / "source.csv"),
               "--target", str(data / "target.csv"),
               "--model", str(tmp_path / "m.txt"), "--delta", "0.5"])
    assert rc == 2


def test_train_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f0\n1,0.5\n1,oops\n")
    data = synth(tmp_path, "d3")
    rc = main(["train", "--source", str(bad),
               "--target", str(data / "target.csv"),
               "--model", str(tmp_path / "m.txt")])
    assert rc == 2


def test_train_overflowing_distances_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = {}
    for name in ("source", "target"):
        x = rng.standard_normal((30, 3)) * 1e200
        y = np.where(np.arange(30) % 2 == 0, 1, -1)
        rows = [f"{label},{','.join(map(repr, row))}" for label, row in zip(y, x.tolist())]
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("label,f0,f1,f2\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--source", str(paths["source"]),
                   "--target", str(paths["target"]),
                   "--model", str(tmp_path / "m.txt"), "--neighbors", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "overflows float64" in err and "Traceback" not in err
    assert not (tmp_path / "m.txt").exists()


def test_train_overflowing_neighbor_gram_exit_2(tmp_path, capsys):
    # finite distances, overflowing neighbor Gram: the cause is named
    rng = np.random.default_rng(0)
    paths = {}
    for name in ("source", "target"):
        x = 1e160 + 1e150 * rng.standard_normal((30, 3))
        y = np.where(np.arange(30) % 2 == 0, 1, -1)
        rows = [f"{label},{','.join(map(repr, row))}" for label, row in zip(y, x.tolist())]
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("label,f0,f1,f2\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--source", str(paths["source"]),
                   "--target", str(paths["target"]),
                   "--model", str(tmp_path / "m.txt"), "--neighbors", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "neighbor Gram" in err and "overflows float64" in err
    assert "Traceback" not in err and not (tmp_path / "m.txt").exists()


def test_model_file_round_trip_bytes(tmp_path):
    data = synth(tmp_path, "d4")
    model_path = tmp_path / "model.txt"
    assert main(["train", "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"),
                 "--model", str(model_path),
                 "--neighbors", "3", "--max-iters", "5"]) == 0
    state, hp, scaler = load_model(model_path)
    second = tmp_path / "model2.txt"
    save_model(second, state, hp, scaler)
    assert model_path.read_bytes() == second.read_bytes()


GOLDEN_V1_MODEL = """\
subadapt-model-v1
loss logistic
c1 0.10000000000000001
c2 2.5
c3 0.001
r 2
k 2
delta 1.75
step 0.01
max_outer_iters 7
max_inner_iters 9
tol 9.9999999999999995e-08
seed 3
theta 2 3
0.59999999999999998 0.80000000000000004 0
0 0 1
w 2
0.25 -1.5
phi 3
0.10000000000000001 -2 3
varphi 3
1 0.5 -0.125
u 3
-0.049999999999999989 -2.2000000000000002 4.5
v 3
0.84999999999999998 0.29999999999999999 1.375
pi 3
0.5 1.5 1
scaler 1
mean 3
1 -2 0.33333333333333331
std 3
0.5 1 2
"""


def test_model_file_matches_golden_v1_text(tmp_path):
    theta = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    state = ModelState.from_parameters(
        theta, np.array([0.25, -1.5]), np.array([0.1, -2.0, 3.0]),
        np.array([1.0, 0.5, -0.125]), np.array([0.5, 1.5, 1.0]), "logistic")
    hp = Hyperparams(c1=0.1, c2=2.5, c3=1e-3, k=2, delta=1.75, step=0.01,
                     loss="logistic", max_outer_iters=7, max_inner_iters=9,
                     tol=1e-7, seed=3)  # r left unset: the file takes it from theta
    scaler = FeatureScaler(mean=np.array([1.0, -2.0, 1.0 / 3.0]),
                           std=np.array([0.5, 1.0, 2.0]))
    model_path = tmp_path / "m.txt"
    save_model(model_path, state, hp, scaler)
    assert model_path.read_bytes() == GOLDEN_V1_MODEL.encode("utf-8")
    loaded, loaded_hp, loaded_scaler = load_model(model_path)
    assert loaded_hp == replace(hp, r=2)
    assert np.array_equal(loaded.theta, theta)
    assert np.array_equal(loaded_scaler.mean, scaler.mean)


def test_predict_zero_classifier_all_positive(tmp_path):
    theta = np.eye(2, 3)
    state = ModelState.from_parameters(theta, np.zeros(2), np.zeros(3),
                                       np.zeros(3), np.ones(4), "hinge")
    model_path = tmp_path / "zero.txt"
    save_model(model_path, state, Hyperparams(r=2), None)
    data_path = tmp_path / "rows.csv"
    rng = np.random.default_rng(1)
    write_feature_csv(data_path, rng.standard_normal((6, 3)))
    out_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--input",
                 str(data_path), "--output", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "score,label"
    assert all(line.endswith(",1") for line in lines[1:])


def test_predict_single_row_score(tmp_path):
    theta = np.eye(1, 3)
    state = ModelState.from_parameters(
        theta, np.zeros(1), np.zeros(3), np.array([2.0, 0.0, 0.0]),
        np.ones(4), "hinge")
    model_path = tmp_path / "m.txt"
    save_model(model_path, state, Hyperparams(r=1), None)
    rows = tmp_path / "rows.csv"
    write_feature_csv(rows, np.array([[1.0, 0.0, 0.0]]))
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--input", str(rows),
                 "--output", str(out)]) == 0
    score, label = out.read_text().splitlines()[1].split(",")
    assert float(score) == 2.0 and label == "1"


def test_predict_matches_in_process(tmp_path):
    data = synth(tmp_path, "d5")
    model_path = tmp_path / "model.txt"
    assert main(["train", "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"),
                 "--model", str(model_path),
                 "--neighbors", "3", "--max-iters", "10"]) == 0
    out_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path),
                 "--input", str(data / "target.csv"),
                 "--output", str(out_path)]) == 0
    state, _, _ = load_model(model_path)
    tx, _ = read_feature_csv(data / "target.csv")
    scores, labels = predict_target(state.varphi, tx)
    lines = out_path.read_text().splitlines()[1:]
    for line, score, label in zip(lines, scores, labels):
        file_score, file_label = line.split(",")
        assert float(file_score) == pytest.approx(score, abs=0.0)
        assert int(file_label) == label


def test_train_with_huge_delta_then_predict(tmp_path):
    # a model trained with delta = 1e12 passes predict's model checks: the
    # weight QP's lower-bound test is not scaled by delta
    data = tmp_path / "d"
    assert main(["synth", "--seed", "3", "--n1", "40", "--n2", "40", "--n3", "10",
                 "--m", "4", "--out-dir", str(data)]) == 0
    model_path = tmp_path / "model.txt"
    assert main(["train", "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"), "--model", str(model_path),
                 "--neighbors", "3", "--max-iters", "5", "--delta", "1e12"]) == 0
    assert main(["predict", "--model", str(model_path),
                 "--input", str(data / "target.csv"),
                 "--output", str(tmp_path / "pred.csv")]) == 0
    state, hp, _ = load_model(model_path)
    assert hp.delta == 1e12
    check_model_state(state, hp.delta)


def test_predict_output_bytes_match_17_digit_format(tmp_path):
    state = ModelState.from_parameters(np.eye(1, 3), np.zeros(1), np.zeros(3),
                                       np.array([1.0, 0.0, 0.0]), np.ones(4), "hinge")
    model_path = tmp_path / "m.txt"
    save_model(model_path, state, Hyperparams(r=1), None)
    first = np.array([0.0, -0.0, 5e-324, -1e308, 0.1, 1 / 3, -123456789.123456789, 2.0 ** 60])
    x = np.zeros((first.size, 3))
    x[:, 0] = first
    rows = tmp_path / "rows.csv"
    write_feature_csv(rows, x)
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--input", str(rows),
                 "--output", str(out)]) == 0
    scores, labels = predict_target(state.varphi, x)
    assert len(set(labels.tolist())) == 2 and len(set(scores.tolist())) == first.size - 1
    expected = "score,label\n" + "".join(
        f"{format(float(s), '.17g')},{int(l)}\n" for s, l in zip(scores, labels))
    assert out.read_bytes() == expected.encode()


def test_predict_output_across_row_blocks(tmp_path):
    # 4097 rows: one block of 4096 and one of a single row
    model_path = tmp_path / "m.txt"
    state = ModelState.from_parameters(np.eye(1, 2), np.zeros(1), np.zeros(2),
                                       np.array([1.0, -0.5]), np.ones(4), "hinge")
    save_model(model_path, state, Hyperparams(r=1), None)
    x = np.random.default_rng(2).standard_normal((4097, 2))
    rows, out = tmp_path / "rows.csv", tmp_path / "p.csv"
    write_feature_csv(rows, x)
    assert main(["predict", "--model", str(model_path), "--input", str(rows),
                 "--output", str(out)]) == 0
    scores, labels = predict_target(state.varphi, x)
    expected = "score,label\n" + "".join(
        f"{format(float(s), '.17g')},{int(l)}\n" for s, l in zip(scores, labels))
    assert out.read_bytes() == expected.encode()


def save_linear_model(path, m=3):
    state = ModelState.from_parameters(np.eye(1, m), np.zeros(1), np.zeros(m),
                                       np.zeros(m), np.ones(4), "hinge")
    save_model(path, state, Hyperparams(r=1), None)


def test_predict_non_finite_row_exits_2(tmp_path, capsys):
    model_path = tmp_path / "m.txt"
    save_linear_model(model_path)
    for bad in ("nan", "inf", "-inf"):
        rows = tmp_path / "rows.csv"
        rows.write_text(f"label,f0,f1,f2\n,1,2,3\n\n,0.5,{bad},1\n")
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model_path), "--input", str(rows),
                   "--output", str(out)])
        assert rc == 2
        assert "line 4: non-finite feature" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("field, offset, replacement", [
    ("scaler", 0, "scaler x"),
    ("scaler", 0, "scaler 7"),
    ("c1", 0, "c1 ten"),
    ("k", 0, "k 2.5"),
    ("seed", 0, "seed abc"),
    ("r", 0, "r 2"),
    ("theta", 0, "theta 1 three"),
    ("theta", 0, "theta -1 3"),
    ("theta", 1, "1 0 x"),
    ("phi", 0, "phi two"),
    ("varphi", 1, "0 zero 0"),
])
def test_malformed_model_field_exits_2(tmp_path, capsys, field, offset, replacement):
    model_path = tmp_path / "m.txt"
    save_linear_model(model_path)
    lines = model_path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.split()[0] == field)
    lines[index + offset] = replacement
    model_path.write_text("\n".join(lines) + "\n")
    rows = tmp_path / "rows.csv"
    write_feature_csv(rows, np.zeros((2, 3)))
    rc = main(["predict", "--model", str(model_path), "--input", str(rows),
               "--output", str(tmp_path / "p.csv")])
    assert rc == 2
    assert f"field {field!r}" in capsys.readouterr().err


def predict_with_edited_model(tmp_path, edit):
    """Train a small model, apply ``edit`` to its lines, then predict."""
    data = synth(tmp_path, "edited")
    model_path = tmp_path / "model.txt"
    assert main(["train", "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"), "--model", str(model_path),
                 "--neighbors", "3", "--max-iters", "3"]) == 0
    lines = model_path.read_text().splitlines()
    edit(lines)
    model_path.write_text("\n".join(lines) + "\n")
    return main(["predict", "--model", str(model_path),
                 "--input", str(data / "target.csv"), "--output", str(tmp_path / "p.csv")])


def test_model_failing_state_invariants_exits_2(tmp_path, capsys):
    def edit(lines):
        index = lines.index(next(line for line in lines if line.startswith("varphi ")))
        values = lines[index + 1].split()
        values[0] = "123.0"
        lines[index + 1] = " ".join(values)

    assert predict_with_edited_model(tmp_path, edit) == 2
    assert "v is inconsistent" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_huge_theta_entry_exits_2_without_overflow(tmp_path, capsys):
    # an orthonormal row has no entry above 1 in magnitude, so the entry is
    # rejected before theta theta' is formed, which a 1e308 entry overflowed
    def edit(lines):
        index = next(i for i, line in enumerate(lines) if line.startswith("theta "))
        values = lines[index + 1].split()
        values[0] = "1e308"
        lines[index + 1] = " ".join(values)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert predict_with_edited_model(tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert "orthonormal within 1e-10" in err and "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


def set_model_vector(lines, name, values):
    index = next(i for i, line in enumerate(lines) if line.split()[0] == name)
    lines[index:index + 2] = [f"{name} {len(values)}", " ".join(values)]


def no_theta_rows(lines):
    index = lines.index("theta 1 3")
    lines[index:index + 2] = ["theta 0 3"]
    set_model_vector(lines, "w", [])


def nan_varphi_and_v(lines):
    set_model_vector(lines, "varphi", ["nan", "0", "0"])
    set_model_vector(lines, "v", ["nan", "0", "0"])


@pytest.mark.parametrize("edit, scaler, message", [
    (no_theta_rows, None, "theta needs at least one row"),
    (lambda lines: set_model_vector(lines, "pi", ["nan", "1", "1", "1"]), None,
     "non-finite value in pi"),
    (nan_varphi_and_v, None, "non-finite value in varphi"),
    (lambda lines: lines.__setitem__(lines.index("delta 3"), "delta nan"), None,
     "non-finite delta"),
    (None, (np.zeros(2), np.ones(2)), "scaler vectors do not match theta 1 x 3"),
    (None, (np.zeros(3), np.array([1.0, 0.0, 1.0])), "positive finite std"),
    (None, (np.array([0.0, np.inf, 0.0]), np.ones(3)), "finite mean"),
], ids=["no-theta-rows", "nan-pi", "nan-varphi-v", "nan-delta", "short-scaler",
        "zero-std", "inf-mean"])
def test_malformed_model_values_exit_2(tmp_path, capsys, edit, scaler, message):
    state = ModelState.from_parameters(np.eye(1, 3), np.zeros(1), np.zeros(3),
                                       np.zeros(3), np.ones(4), "hinge")
    model_path = tmp_path / "m.txt"
    save_model(model_path, state, Hyperparams(r=1),
               None if scaler is None else FeatureScaler(*scaler))
    if edit is not None:
        lines = model_path.read_text().splitlines()
        edit(lines)
        model_path.write_text("\n".join(lines) + "\n")
    rows = tmp_path / "rows.csv"
    write_feature_csv(rows, np.ones((2, 3)))
    out = tmp_path / "p.csv"
    rc = main(["predict", "--model", str(model_path), "--input", str(rows),
               "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_model_with_trailing_content_exits_2(tmp_path, capsys):
    assert predict_with_edited_model(tmp_path, lambda lines: lines.append("garbage here")) == 2
    assert "content after the last field" in capsys.readouterr().err


def test_predict_dimension_mismatch_exits_2(tmp_path):
    theta = np.eye(1, 3)
    state = ModelState.from_parameters(theta, np.zeros(1), np.zeros(3),
                                       np.zeros(3), np.ones(4), "hinge")
    model_path = tmp_path / "m.txt"
    save_model(model_path, state, Hyperparams(r=1), None)
    rows = tmp_path / "rows.csv"
    write_feature_csv(rows, np.zeros((2, 5)))
    rc = main(["predict", "--model", str(model_path), "--input", str(rows),
               "--output", str(tmp_path / "p.csv")])
    assert rc == 2


def test_eval_report_contents_and_determinism(tmp_path):
    data = synth(tmp_path, "d6")
    report_path = tmp_path / "report.json"
    args = ["eval", "--source", str(data / "source.csv"),
            "--target", str(data / "target.csv"),
            "--report", str(report_path),
            "--folds", "4", "--neighbors", "3", "--max-iters", "8",
            "--seed", "7"]
    assert main(args) == 0
    first = report_path.read_bytes()
    payload = json.loads(first)
    assert len(payload["fold_accuracies"]) == 4
    assert payload["seed"] == 7
    assert sorted(i for fold in payload["folds"] for i in fold) == list(range(40))
    assert "fold_seconds" not in payload
    assert main(args) == 0
    assert report_path.read_bytes() == first


def test_eval_requires_fully_labeled_target(tmp_path):
    out = tmp_path / "short"
    assert main(["synth", "--seed", "2", "--n1", "30", "--n2", "30",
                 "--n3", "10", "--m", "3", "--out-dir", str(out)]) == 0
    rc = main(["eval", "--source", str(out / "source.csv"),
               "--target", str(out / "target.csv"),
               "--report", str(tmp_path / "r.json")])
    assert rc == 2


def test_normalize_flag_stores_scaler(tmp_path):
    data = synth(tmp_path, "d7")
    model_path = tmp_path / "model.txt"
    assert main(["train", "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"),
                 "--model", str(model_path), "--normalize",
                 "--neighbors", "3", "--max-iters", "5"]) == 0
    _, _, scaler = load_model(model_path)
    assert isinstance(scaler, FeatureScaler)
    assert scaler.mean.shape == (3,)


def test_sweep_rows_in_grid_order(tmp_path):
    data = synth(tmp_path, "d8")
    report_path = tmp_path / "sweep.json"
    args = ["sweep", "--source", str(data / "source.csv"),
            "--target", str(data / "target.csv"),
            "--report", str(report_path), "--param", "c1",
            "--grid", "0.01,0.1,1,10,100",
            "--folds", "3", "--neighbors", "3", "--max-iters", "5",
            "--c2", "2.0", "--c3", "50.0"]
    assert main(args) == 0
    payload = json.loads(report_path.read_text())
    assert [row["value"] for row in payload["rows"]] == [0.01, 0.1, 1.0, 10.0, 100.0]
    for row in payload["rows"]:
        assert row["c2"] == 2.0 and row["c3"] == 50.0
        assert row["c1"] == row["value"]
    first = report_path.read_bytes()
    assert main(args) == 0
    assert report_path.read_bytes() == first


def test_sweep_reads_each_csv_once(tmp_path, monkeypatch):
    data = synth(tmp_path, "d8b")
    calls = []
    real = cli.read_feature_csv

    def counting(path, *args, **kwargs):
        calls.append(os.path.basename(path))
        return real(path, *args, **kwargs)
    monkeypatch.setattr(cli, "read_feature_csv", counting)
    assert main(["sweep", "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"),
                 "--report", str(tmp_path / "s.json"), "--param", "c3",
                 "--grid", "1,10,100", "--folds", "2", "--neighbors", "3",
                 "--max-iters", "3"]) == 0
    assert calls == ["source.csv", "target.csv"]


def test_sweep_empty_grid_exits_2(tmp_path):
    data = synth(tmp_path, "d9")
    rc = main(["sweep", "--source", str(data / "source.csv"),
               "--target", str(data / "target.csv"),
               "--report", str(tmp_path / "s.json"), "--param", "c1",
               "--grid", ""])
    assert rc == 2


def test_config_file_and_flags_conflict(tmp_path):
    data = synth(tmp_path, "d10")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"source": str(data / "source.csv"),
                                       "target": str(data / "target.csv"),
                                       "model": str(tmp_path / "m.txt"),
                                       "k": 3, "max_outer_iters": 5}))
    assert main(["train", "--config", str(config_path)]) == 0
    rc = main(["train", "--config", str(config_path), "--c1", "5.0"])
    assert rc == 2


COMMAND_OPTIONS = ("normalize", "source", "target", "model", "trace", "folds",
                   "report", "param", "grid")


def test_run_config_fields_are_hyperparams_then_command_options():
    hp_names = [f.name for f in fields(Hyperparams)]
    assert [f.name for f in fields(RunConfig)] == hp_names + list(COMMAND_OPTIONS)
    hints, hp_hints = typing.get_type_hints(RunConfig), typing.get_type_hints(Hyperparams)
    assert all(hints[name] == hp_hints[name] | None for name in hp_names)
    assert all(value is None for value in asdict(RunConfig()).values())


# One value per RunConfig field, and the flags that set it.
CONFIG_VALUES = dict(c1=0.5, c2=2.0, c3=30.0, r=2, k=3, delta=2.5, step=0.01,
                     loss="logistic", max_outer_iters=4, max_inner_iters=6, tol=1e-6,
                     seed=9, normalize=True, source="s.csv", target="t.csv",
                     model="m.txt", trace="tr.json", folds=3, report="r.json",
                     param="c2", grid=[0.5, 2.0])
HYPER_FLAGS = ["--c1", "0.5", "--c2", "2", "--c3", "30", "--subspace-dim", "2",
               "--neighbors", "3", "--delta", "2.5", "--step", "0.01", "--loss", "logistic",
               "--max-iters", "4", "--max-inner-iters", "6", "--tol", "1e-6", "--seed", "9",
               "--normalize"]
COMMAND_FLAGS = {
    "train": ["--source", "s.csv", "--target", "t.csv", "--model", "m.txt",
              "--trace", "tr.json"],
    "eval": ["--source", "s.csv", "--target", "t.csv", "--folds", "3", "--report", "r.json"],
    "sweep": ["--source", "s.csv", "--target", "t.csv", "--folds", "3", "--report", "r.json",
              "--param", "c2", "--grid", "0.5,2"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_every_flag_gives_the_config_file_value(tmp_path, command):
    flags = COMMAND_FLAGS[command]
    names = [f.name for f in fields(Hyperparams)] + ["normalize"] + \
        [flag[2:] for flag in flags if flag.startswith("--")]
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({name: CONFIG_VALUES[name] for name in names}))
    from_flags = _merge_config(build_parser().parse_args([command, *HYPER_FLAGS, *flags]))
    from_file = _merge_config(build_parser().parse_args([command, "--config", str(config_path)]))
    assert from_flags == from_file
    assert asdict(from_flags) == {name: CONFIG_VALUES[name] if name in names else None
                                  for name in CONFIG_VALUES}


REQUIRED_OPTIONS = [("train", name) for name in ("source", "target", "model")] + \
    [("eval", name) for name in ("source", "target", "report")] + \
    [("sweep", name) for name in ("source", "target", "report", "param", "grid")]


@pytest.mark.parametrize("command, missing", REQUIRED_OPTIONS)
def test_missing_required_option_names_the_command(tmp_path, capsys, command, missing):
    given = dict(source=str(tmp_path / "s.csv"), target=str(tmp_path / "t.csv"),
                 model=str(tmp_path / "m.txt"), report=str(tmp_path / "r.json"),
                 param="c3", grid="1")
    argv = [command]
    for name, value in given.items():
        if name != missing and (command, name) in REQUIRED_OPTIONS:
            argv += [f"--{name}", value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {command} needs --{missing}\n"


# each command with each option that only other commands take
FOREIGN_OPTIONS = [("train", name) for name in ("folds", "report", "param", "grid")] + \
    [("eval", name) for name in ("model", "trace", "param", "grid")] + \
    [("sweep", name) for name in ("model", "trace")]


@pytest.mark.parametrize("command, name", FOREIGN_OPTIONS)
def test_config_field_of_another_command_exits_2(tmp_path, capsys, command, name):
    flags = COMMAND_FLAGS[command]
    payload = {flag[2:]: CONFIG_VALUES[flag[2:]] for flag in flags if flag.startswith("--")}
    payload.update({hp: CONFIG_VALUES[hp] for hp in ("c1", "k", "max_outer_iters")})
    payload[name] = CONFIG_VALUES[name]
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(payload))
    assert main([command, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {command} does not take config fields: ['{name}']\n"


@pytest.mark.parametrize("argv", [
    ["train", "--folds", "3"], ["train", "--grid", "1"], ["eval", "--model", "m.txt"],
    ["eval", "--param", "c1"], ["synth", "--out-dir", "d", "--c1", "1"],
    ["predict", "--model", "m.txt", "--input", "i.csv", "--output", "o.csv",
     "--config", "c.json"],
])
def test_flag_of_another_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_config_round_trip():
    fields = dict(c1=0.5, c3=20.0, r=3, loss="logistic", seed=11,
                  folds=5, normalize=True, source="s.csv", grid=[0.1, 1.0])
    assert RunConfig.from_json(json.dumps(fields)) == RunConfig(**fields)


def test_run_config_rejects_unknown_fields():
    from subadapt.data_model import ValidationError
    with pytest.raises(ValidationError, match="unknown config"):
        RunConfig.from_json('{"c9": 1.0}')


@pytest.mark.parametrize("payload", [
    '{"c1": "abc"}', '{"k": 2.5}', '{"normalize": 1}', '{"c2": true}',
    '{"grid": [0.1, "x"]}', '{"source": 3}', '[1, 2]', '{"c1": ',
])
def test_config_of_wrong_json_type_exits_2(tmp_path, capsys, payload):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(payload)
    assert main(["train", "--config", str(config_path)]) == 2
    assert "config" in capsys.readouterr().err


def test_run_config_accepts_integers_for_floats():
    # an integer for a float field is read as the float its flag gives
    config = RunConfig.from_json('{"c1": 2, "tol": 1e-6, "k": 3, "grid": [1, 0.5]}')
    assert config.c1 == 2 and config.k == 3 and config.grid == [1, 0.5]
    assert type(config.c1) is float and type(config.k) is int
    assert [type(v) for v in config.grid] == [float, float]


@pytest.mark.parametrize("command, payload", [
    ("train", {"c1": 10 ** 400}), ("train", {"tol": 10 ** 400}),
    ("sweep", {"param": "c1", "grid": [1, 10 ** 400]}),
])
def test_config_integer_beyond_float_range_exits_2(tmp_path, capsys, command, payload):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(payload))
    assert main([command, "--config", str(config_path)]) == 2
    name = next(iter(payload)) if command == "train" else "grid"
    assert capsys.readouterr().err == f"error: config field {name!r} is beyond float range\n"


@pytest.mark.parametrize("command, given, flags", [
    ("eval", {"c1": 10}, ["--c1", "10"]),
    ("sweep", {"param": "c3", "grid": [1, 10]}, ["--param", "c3", "--grid", "1,10"]),
])
def test_config_integer_weight_reports_as_its_flag(tmp_path, command, given, flags):
    # integers given for floats in a config file write the report the
    # flags write: 10.0, not 10
    data = synth(tmp_path, "d6b")
    common = dict(source=str(data / "source.csv"), target=str(data / "target.csv"),
                  folds=2, k=3, max_outer_iters=3)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({**common, **given, "report": str(tmp_path / "a.json")}))
    assert main([command, "--config", str(config_path)]) == 0
    assert main([command, "--source", common["source"], "--target", common["target"],
                 "--folds", "2", "--neighbors", "3", "--max-iters", "3", *flags,
                 "--report", str(tmp_path / "b.json")]) == 0
    first = (tmp_path / "a.json").read_bytes()
    assert b": 10.0" in first and b": 10," not in first and b": 10\n" not in first
    assert first == (tmp_path / "b.json").read_bytes()


def test_atomic_write_ignores_a_stale_temporary_name(tmp_path):
    target = tmp_path / "out.txt"
    (tmp_path / "out.txt.tmp").mkdir()
    _atomic_write(target, "first\n")
    _atomic_write(target, "second\n")
    assert target.read_text() == "second\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "out.txt.tmp"]


def test_atomic_write_failure_leaves_no_temporary(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        _atomic_write(tmp_path / "taken", "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_atomic_write_of_a_chunk_that_raises_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.csv"
    _atomic_write(target, "old\n")

    def chunks():
        yield "new\n" * 10_000
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(target, chunks())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_missing_input_file_exits_2(tmp_path):
    rc = main(["train", "--source", str(tmp_path / "nope.csv"),
               "--target", str(tmp_path / "nope.csv"),
               "--model", str(tmp_path / "m.txt")])
    assert rc == 2
