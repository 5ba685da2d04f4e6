"""The CLI's input edges: the vectorized CSV reader against its per-line
reference, the streamed reader and writer, undecodable bytes, and an
exit-code fuzz over every file kind."""

import gzip
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from subadapt import cli
from subadapt.cli import _read_feature_csv_reference, main, read_feature_csv, \
    write_feature_csv
from subadapt.data_model import ValidationError


def fuzz(max_examples):
    """Deterministic and bounded, so the fuzz is the same on every run."""
    return settings(max_examples=max_examples, derandomize=True, deadline=None,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


# The line breaks str.splitlines knows besides \n and \r.
LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def outcome(reader, path, require_all_labeled=False):
    """What a reader makes of a file: the exact array bytes, or its error."""
    try:
        x, y = reader(path, require_all_labeled=require_all_labeled)
    except ValidationError as err:
        return "error", str(err)
    return x.shape, x.dtype.str, x.tobytes(), y.shape, y.dtype.str, y.tobytes()


def both(path, require_all_labeled=False):
    fast = outcome(read_feature_csv, path, require_all_labeled)
    assert fast == outcome(_read_feature_csv_reference, path, require_all_labeled)
    return fast


def accepted(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=np.int64)
    return x.shape, x.dtype.str, x.tobytes(), y.shape, y.dtype.str, y.tobytes()


@pytest.mark.parametrize("text, expected", [
    # loadtxt's default comments='#' would read this as 1.5
    ("label,f0\n1,1.5#x\n", "line 2: non-numeric feature"),
    # usecols would drop a uniform or a ragged extra column
    ("label,f0\n1,1,2\n-1,3,4\n", "line 2: expected 2 fields, got 3"),
    ("label,f0,f1\n,1,2\n,3,4,9\n", "line 3: expected 3 fields, got 4"),
    ("label,f0,f1\n1,2\x0c,3\n", "line 2: expected 3 fields, got 2"),
    ("label,f0\r\n1,2\r\n,3\r\n", accepted([[2], [3]], [1])),
    ("label,f0\r1,2\r", accepted([[2]], [1])),
    ("label,f0\n1,2\n  \n\t\n\n,3\n", accepted([[2], [3]], [1])),
    ("label,f0\n1,1_0\n", accepted([[10]], [1])),
    ("label,f0\n1,١٢\n", accepted([[12]], [1])),
    ("label,f0\n1, 2 \n-1,\xa03\n", accepted([[2], [3]], [1, -1])),
    ("label,f0\n+1,2\n", accepted([[2]], [1])),
    ("label,f0\n -1 ,2\n", accepted([[2]], [-1])),
    ("label,f0\n1.0,2\n", "line 2: label outside {+1,-1}"),
    ("label,f0\n2,2\n", "line 2: label outside {+1,-1}"),
    ("label,f0\n,1\n1,2\n", "line 3: labeled row after unlabeled rows"),
    ("label,f0\n1,\n", "line 2: non-numeric feature"),
    ("label,f0\n1,2\x00\n", "line 2: non-numeric feature"),
    # loadtxt strips "\x1f" like whitespace, float() does not
    ("label,f0\n1,\x1f7\n", "line 2: non-numeric feature"),
    ("label,f0\n\x1f1,7\n", accepted([[7]], [1])),
    ("label,f0\n1,2\n-1,1e400\n", "line 3: non-finite feature"),
    ("label,f0\n1,nan\n", "line 2: non-finite feature"),
    ("label,f0\n", "no data rows"),
    ("label,f0\n\n \n", "no data rows"),
    ("", "empty file"),
    ("label,f1\n1,2\n", "line 1: header"),
    ("label,f0,f1\n-1,0.5,2\n", accepted([[0.5, 2]], [-1])),
] + [(f"label,f0\n1,2{sep}-1,3{sep},4\n", accepted([[2], [3], [4]], [1, -1]))
     for sep in LINE_BREAKS])
def test_fast_path_agrees_with_reference(tmp_path, text, expected):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    result = both(path)
    if isinstance(expected, str):
        assert result[0] == "error" and expected in result[1]
        assert result[1].startswith(f"{path}: ")
    else:
        assert result == expected


def test_every_row_labeled_is_checked_on_both_paths(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("label,f0\n1,2\n,3\n")
    assert both(path, require_all_labeled=True) == \
        ("error", f"{path}: every row must be labeled")
    assert both(path) == accepted([[2], [3]], [1])


def test_well_formed_files_never_reach_the_reference(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4)) * np.logspace(-300, 300, 4)
    partial, full = tmp_path / "partial.csv", tmp_path / "full.csv"
    write_feature_csv(partial, x, np.where(rng.random(20) < 0.5, 1, -1))
    write_feature_csv(full, x, np.where(rng.random(50) < 0.5, 1, -1))
    expected = [outcome(_read_feature_csv_reference, p, all_labeled)
                for p, all_labeled in ((partial, False), (full, True))]

    def refuse(*args, **kwargs):
        raise AssertionError("fell back to the per-line reader")
    monkeypatch.setattr(cli, "_read_feature_csv_reference", refuse)
    assert [outcome(read_feature_csv, p, all_labeled)
            for p, all_labeled in ((partial, False), (full, True))] == expected


# Cells the two parsers could disagree on, beside random doubles and text.
TRICKY_CELLS = ["", " ", "1", "-1", "+1", " -1 ", "1.0", "0", "2", "0.5",
                "-3.25e-7", "1e400", "nan", "-inf", "Infinity", "1_0", "_1",
                "١٢", "1.5#x", "#", " 2 ", "\xa03\xa0", " 4",
                "1d5", "0x10", "4\x00", "abc", '"5"', "1e", ".", "5.", ".5",
                "--1", "1 2", "\t6\t", "\x1f7"]
LABELS = ["1", "-1", "", "", "+1", " 1", "0", "1.0", "x"]
SEPARATORS = ["\n", "\n", "\r\n", "\r", "\n\n", "\n \n"] + list(LINE_BREAKS)


@st.composite
def csv_texts(draw):
    """A well-formed CSV of random doubles, then up to three edits to it."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 5))
    n_labeled = draw(st.integers(0, n))
    header = ["label"] + [f"f{j}" for j in range(m)]
    rows = [[draw(st.sampled_from(["1", "-1"])) if i < n_labeled else ""]
            + [repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
               for _ in range(m)] for i in range(n)]
    cell = st.one_of(st.sampled_from(TRICKY_CELLS),
                     st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows or [header]))
        edit = draw(st.sampled_from(["cell", "label", "extra", "drop", "header"]))
        if edit == "cell" and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(cell)
        elif edit == "label" and row:
            row[0] = draw(st.sampled_from(LABELS))
        elif edit == "extra":
            row.append(draw(cell))
        elif edit == "drop" and row:
            row.pop()
        elif edit == "header" and header:
            header[draw(st.integers(0, len(header) - 1))] = \
                draw(st.sampled_from(["f0", "label", ""]))
    sep = draw(st.sampled_from(SEPARATORS))
    lines = [",".join(cells) for cells in [header] + rows]
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


@fuzz(400)
@given(text=csv_texts(), require_all_labeled=st.booleans())
def test_fast_path_agrees_with_reference_on_random_text(tmp_path_factory, text,
                                                        require_all_labeled):
    path = tmp_path_factory.getbasetemp() / "random.csv"
    path.write_bytes(text.encode("utf-8"))
    both(path, require_all_labeled)


# ---------------------------------------------------------------------------
# the streamed reader and writer

def test_reader_and_writer_hold_the_arrays_not_the_text(tmp_path):
    # the text of a 20 000 x 20 file is about 2.5 times its array, so a
    # reader or writer holding the text, or a list of its lines, beside the
    # array goes past the bound
    x = np.random.default_rng(5).standard_normal((20_000, 20))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_feature_csv(path, x)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        features, labels = read_feature_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(features, x) and labels.size == 0
    assert write_peak <= 3 * x.nbytes
    assert read_peak <= 3 * x.nbytes


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
@pytest.mark.parametrize("sep", ["\n", "\x0c"])  # the fast path and the reference
def test_a_named_pipe_reads_like_the_regular_file(tmp_path, sep):
    regular, fifo = tmp_path / "data.csv", tmp_path / "fifo.csv"
    text = sep.join(["label,f0,f1", "1,0.5,-2", "-1,3e-300,1e300", ",7,8"]) + sep
    regular.write_text(text, newline="")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as handle:
            handle.write(regular.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    from_pipe = outcome(read_feature_csv, fifo)
    writer.join(timeout=10)
    assert from_pipe == both(regular) == accepted([[0.5, -2], [3e-300, 1e300], [7, 8]],
                                                  [1, -1])


def test_a_gzip_file_is_not_utf8_text(tmp_path):
    # loadtxt, given the path, would gunzip a name ending in .gz
    path = tmp_path / "data.csv.gz"
    path.write_bytes(gzip.compress(b"label,f0\n1,2\n"))
    assert both(path) == ("error", f"{path}: not UTF-8 text (byte 1)")


def per_row_csv(features, labels=None):
    """The bytes of the CSV writer that built the file one row at a time."""
    features = np.asarray(features, dtype=float)
    n, m = features.shape
    n_labeled = 0 if labels is None else len(labels)
    lines = ["label," + ",".join(f"f{j}" for j in range(m))]
    for i in range(n):
        tag = str(int(labels[i])) if i < n_labeled else ""
        lines.append(tag + "," + ",".join(repr(float(v)) for v in features[i]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("labeled", ["none", "prefix", "all"])
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])  # the edges of a row block
def test_writer_bytes_match_the_per_row_writer(tmp_path, n, labeled):
    rng = np.random.default_rng(n)
    x = rng.choice([-1.0, 1.0], (n, 3)) * 10.0 ** rng.uniform(-300, 300, (n, 3))
    x.flat[:6] = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e-300][:x.size]
    y = rng.choice([-1, 1], n)
    labels = {"none": None, "prefix": y[:max(n - 1, 0)], "all": y}[labeled]
    path = tmp_path / "data.csv"
    write_feature_csv(path, x, labels)
    assert path.read_bytes() == per_row_csv(x, labels)


# ---------------------------------------------------------------------------
# undecodable bytes and the exit-code fuzz

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small trained model with its data, and the bytes of a config."""
    root = tmp_path_factory.mktemp("cli_inputs")
    data = root / "data"
    assert main(["synth", "--seed", "4", "--n1", "30", "--n2", "30", "--n3", "10",
                 "--m", "3", "--out-dir", str(data)]) == 0
    model = root / "model.txt"
    assert main(["train", "--source", str(data / "source.csv"),
                 "--target", str(data / "target.csv"), "--model", str(model),
                 "--neighbors", "3", "--max-iters", "3", "--normalize"]) == 0
    # The files a fuzzed config names do not exist, so no example trains.
    config = json.dumps({"source": str(root / "absent.csv"), "target": str(root / "absent.csv"),
                         "model": str(root / "never.txt"), "c1": 1.0, "k": 3,
                         "loss": "logistic", "normalize": True, "grid": [0.1, 1]})
    return dict(root=root, csv=data / "target.csv", model=model, config=config.encode())


def predict_argv(files, model=None, rows=None):
    return ["predict", "--model", str(model or files["model"]),
            "--input", str(rows or files["csv"]),
            "--output", str(files["root"] / "scores.csv")]


@pytest.mark.parametrize("kind", ["csv", "model", "config"])
def test_invalid_utf8_exits_2_naming_the_file(files, capsys, kind):
    bad = files["root"] / f"bad_{kind}"
    source = files["config"] if kind == "config" else files[kind].read_bytes()
    bad.write_bytes(source[:20] + b"\xff" + source[20:])
    argv = {"csv": predict_argv(files, rows=bad),
            "model": predict_argv(files, model=bad),
            "config": ["train", "--config", str(bad)]}[kind]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text (byte 20)\n"


def test_huge_theta_dimensions_are_a_truncated_file(files, capsys):
    text = files["model"].read_text().splitlines()
    row = next(i for i, line in enumerate(text) if line.startswith("theta "))
    text[row] = "theta 1000000 10000000"
    bad = files["root"] / "huge.txt"
    bad.write_text("\n".join(text) + "\n")
    assert main(predict_argv(files, model=bad)) == 2
    assert "wrong length" in capsys.readouterr().err


CHUNKS = [b"\xff", b"\xc3", b"9", b"-", b"0", b".", b",", b"\n", b"\r", b" ",
          b"\x0c", b"nan", b"inf", b"1e999", b"99999999999", b"\"", b"{", b"]",
          b"null", b"true"]


@st.composite
def mutations(draw, base):
    """``base`` with a few bytes replaced, inserted or deleted, or truncated."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.one_of(st.sampled_from(CHUNKS), st.binary(min_size=1, max_size=3)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        if edit == "replace":
            data[at:at + len(chunk)] = chunk
        elif edit == "insert":
            data[at:at] = chunk
        elif edit == "delete":
            del data[at:at + len(chunk)]
        else:
            del data[at:]
    return bytes(data)


@pytest.mark.parametrize("kind", ["csv", "model", "config"])
@fuzz(150)
@given(data=st.data())
def test_main_exits_0_2_or_3_on_any_file_bytes(files, kind, data):
    base = files["config"] if kind == "config" else files[kind].read_bytes()
    blob = data.draw(st.one_of(mutations(base), st.binary(max_size=64)))
    path = files["root"] / f"fuzz_{kind}"
    path.write_bytes(blob)
    argv = {"csv": predict_argv(files, rows=path),
            "model": predict_argv(files, model=path),
            "config": ["train", "--config", str(path)]}[kind]
    assert main(argv) in (0, 2, 3)
