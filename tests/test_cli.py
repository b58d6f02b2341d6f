"""Command-line interface tests: ingestion, schemas, exit codes."""

import csv
import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import transfarm.cli
import transfarm.solver
from transfarm.cli import UsageError, ingest_dataset, main, write_dataset
from transfarm.inference import full_inference
from transfarm.numerics import RngStream
from transfarm.simlab import SimConfig, SimResult
from transfarm.transfer import Dataset, TransferConfig, detect_sources, two_step_fit

from _oracles import IngestError, ingest_rows


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def make_files(tmp_path, seed=0, n=50, p=8, n_sources=2):
    """Write rank-2 factor datasets as CSVs; return paths and Dataset objects."""
    rng = RngStream(seed, 9)
    beta = np.zeros(p)
    beta[:3] = 0.6
    paths, datasets = [], []
    for k in range(n_sources + 1):
        gen = rng.generator(k)
        loadings = gen.uniform(-1.0, 1.0, (p, 2))
        factors = gen.standard_normal((n, 2))
        u = gen.standard_normal((n, p))
        x = factors @ loadings.T + u
        y = u @ beta + factors @ np.array([0.5, 0.5]) + gen.standard_normal(n)
        path = str(tmp_path / (f"target.csv" if k == 0 else f"source{k}.csv"))
        write_dataset(path, x, y)
        paths.append(path)
        datasets.append(Dataset(x=x, y=y))
    return paths, datasets


def pipeline_defaults(seed=0):
    return TransferConfig(seed=seed)


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------


def test_ingest_roundtrip_is_exact(tmp_path):
    gen = np.random.default_rng(3)
    x = gen.standard_normal((7, 4)) / 3.0
    y = gen.standard_normal(7) * 1e-7
    path = str(tmp_path / "d.csv")
    write_dataset(path, x, y)
    # the response is stripped like the header cells; " y" was never found
    for response in ("y", " y", "y\t"):
        x2, y2 = ingest_dataset(path, response)
        assert np.array_equal(x, x2) and np.array_equal(y, y2)


BOM = "\ufeff".encode()  # Excel's "CSV UTF-8" export starts the file with it


def test_ingest_drops_a_byte_order_mark(tmp_path):
    # the header's first cell read "\ufeffy", so the response was not found
    paths, _ = make_files(tmp_path, n_sources=0)
    marked = tmp_path / "marked.csv"
    with open(paths[0], "rb") as fh:
        marked.write_bytes(BOM + fh.read())
    x, y = ingest_dataset(paths[0])
    x2, y2 = ingest_dataset(str(marked))
    assert x2.tobytes() == x.tobytes() and y2.tobytes() == y.tobytes()


def test_write_dataset_matches_per_cell_format(tmp_path):
    gen = np.random.default_rng(4)
    x = gen.standard_normal((5, 5)) * 10.0 ** gen.integers(-300, 300, (5, 5))
    x[0] = [-0.0, 5e-324, 1e308, 1 / 3, 2.0]
    y = gen.standard_normal(5)
    path = str(tmp_path / "d.csv")
    write_dataset(path, x, y)
    cells = [["y", "x1", "x2", "x3", "x4", "x5"]]
    cells += [[transfarm.cli._fmt(v) for v in [y[i], *x[i]]] for i in range(5)]
    with open(path, newline="") as fh:
        assert fh.read() == "".join(",".join(row) + "\n" for row in cells)
    x2, y2 = ingest_dataset(path)
    assert x2.tobytes() == x.tobytes() and y2.tobytes() == y.tobytes()


def test_write_dataset_rejects_mismatched_shapes(tmp_path):
    # the file would read back with rows cut or not at all
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError, match="x has 4 rows but y has 3"):
        write_dataset(str(path), np.ones((4, 3)), np.ones(3))
    assert not path.exists()


@pytest.mark.parametrize(
    "x, y, message",
    [
        (np.array([[1.0, np.nan]]), np.ones(1), "x contains non-finite entries"),
        (np.ones((2, 2)), np.array([1.0, np.inf]), "y contains non-finite entries"),
        (np.ones(3), np.ones(3), r"x must be 2-dimensional, got shape \(3,\)"),
        (np.ones((3, 1)), np.ones((3, 1)), r"y must be 1-dimensional, got shape \(3, 1\)"),
    ],
    ids=["x-nan", "y-inf", "x-1d", "y-2d"],
)
def test_write_dataset_rejects_bad_arrays(tmp_path, x, y, message):
    # a non-finite cell would write a file ingest_dataset refuses
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError, match=message):
        write_dataset(str(path), x, y)
    assert not path.exists()


def test_writer_files_take_the_fast_path(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("row loop ran on a write_dataset file")

    gen = np.random.default_rng(5)
    x, y = gen.standard_normal((40, 6)), gen.standard_normal(40)
    path = str(tmp_path / "d.csv")
    write_dataset(path, x, y)
    monkeypatch.setattr(transfarm.cli, "_read_rows", refuse)
    x2, y2 = ingest_dataset(path)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)


def test_ingest_reads_response_from_any_column(tmp_path):
    path = str(tmp_path / "d.csv")
    path_ = path
    with open(path_, "w") as fh:
        fh.write("x1,y,x2\n1,10,2\n3,20,4\n5,30,6\n")
    x, y = ingest_dataset(path_)
    assert x.shape == (3, 2)
    assert np.array_equal(y, [10.0, 20.0, 30.0])
    assert np.array_equal(x, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "file is empty"),
        ("a,b\n1,2\n3,4\n", "response column 'y' not found"),
        ("y,y,x1\n1,1,2\n3,3,4\n", "appears twice"),
        ("y\n1\n2\n", "no feature columns"),
        ("y,x1\n1,2,9\n3,4\n", "row 1 has 3 cells, expected 2"),
        ("y,x1,x2\n1,2,3\n4,oops,6\n", "non-numeric value at row 2, column x1"),
        ("y,x1\n1,inf\n2,3\n", "non-finite value at row 1, column x1"),
        ("y,x1\n1,2\n", "need at least 2 data rows"),
        ("y,x1\n1,2\n\n3,4\n", "row 2 has 0 cells, expected 2"),
        ("y,x1\n1,2#3\n3,4\n", "non-numeric value at row 1, column x1"),
    ],
)
def test_ingest_rejects_malformed_input(tmp_path, content, message):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write(content)
    with pytest.raises(Exception, match=re.escape(message)):
        ingest_dataset(path)


def test_ingest_missing_file():
    with pytest.raises(Exception, match="input file not found"):
        ingest_dataset("/nonexistent/nope.csv")


@pytest.mark.parametrize(
    "name,content,argv",
    [
        ("data.csv", b"y,x1\n1,2\n3,\xff4\n", ["--target", "{f}"]),
        ("header.csv", b"y,x\xff1\n1,2\n3,4\n", ["--target", "{f}"]),
        ("run.cfg", b"lambda_c = 0.\xff5\n", ["--target", "{t}", "--config", "{f}"]),
    ],
    ids=["data-row", "header", "config"],
)
def test_undecodable_bytes_exit_1_naming_the_file(tmp_path, capsys, name, content, argv):
    paths, _ = make_files(tmp_path, n_sources=0)
    bad = tmp_path / name
    bad.write_bytes(content)
    out = tmp_path / "out"
    argv = [a.replace("{f}", str(bad)).replace("{t}", paths[0]) for a in argv]
    assert main(["fit", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "numerical failure" not in err
    assert not out.exists()


_NUMBERS = st.one_of(
    st.builds(
        lambda v, spelling: spelling % v,
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(["%r", "%.17g", "%.3e", "%.6E", "%.2f", "%+g"]),
    ),
    st.integers(-10**6, 10**6).map(str),
)
_ODD_CELLS = st.sampled_from([
    "+.5", "-.5e-3", "1E+2", '"1.5"', '"2', "1_0", "1_000", "\u0661\u0662", "nan", "-inf",
    "Infinity", "1e500", "1e-400", "1#2", "0x10", "", " ", "abc", "1,5", "1\n2",
])
_PADDING = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\u3000"])
_CELLS = st.builds(
    lambda pad, cell, tail: pad + cell + tail,
    _PADDING,
    # one cell in 16 is odd, so that about half the files are accepted
    st.integers(0, 15).flatmap(lambda k: _ODD_CELLS if k == 0 else _NUMBERS),
    _PADDING,
)


@st.composite
def csv_texts(draw):
    """Small CSVs: mostly well-formed rows, with ragged, blank and odd lines."""
    width = draw(st.integers(2, 4))
    header = [f"x{j}" for j in range(1, width)]
    header.insert(draw(st.integers(0, width - 1)), "y")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 24 + ["ragged", "blank", "spaces"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t ", " " * width])))
        else:
            cells = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            lines.append(",".join(draw(st.lists(_CELLS, min_size=cells, max_size=cells))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ending = draw(st.sampled_from(["", newline, newline, newline, newline * 2]))
    return newline.join(lines) + ending


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
@example("y,x1\n1.5e3,-2E-2\n+.5,  7 \n")
@example('y,x1\n"1.5",2\n1_0,\u0661\n')
@example("y,x1\r\n1,2\r\n3,4\r\n")
@example("y,x1\n1,2\n\n3,4\n")
@example("y,x1\n1,2\n  \n3,4\n")
@example("y,x1\n1,2\n3,4\n\n")
@example("y,x1\n1,2#3\n3,4\n")
@example("y,x1\n1,nan\n3,inf\n")
@example("y,x1\n1,2,3\n4\n")
@example("y,x1\n")
def test_ingest_matches_the_row_loop(tmp_path, text):
    path = str(tmp_path / "d.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    try:
        x, y, _ = ingest_rows(path)
    except IngestError as exc:
        with pytest.raises(UsageError) as got:
            ingest_dataset(path)
        assert str(got.value) == str(exc)
        return
    x2, y2 = ingest_dataset(path)
    for want, have in ((x, x2), (y, y2)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# subcommand output schemas
# ---------------------------------------------------------------------------


def test_fit_uses_every_source_and_matches_library(tmp_path):
    paths, datasets = make_files(tmp_path)
    out = tmp_path / "out"
    rc = main([
        "fit", "--target", paths[0], "--source", paths[1], "--source", paths[2],
        "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_rows(out / "fit.csv")
    assert header == ["index", "w_hat", "delta_hat", "beta_hat"]
    assert [r[0] for r in rows] == [str(j + 1) for j in range(8)]
    fit = two_step_fit(datasets[0], datasets[1:], (1, 2), pipeline_defaults())
    got = np.array([[float(c) for c in r[1:]] for r in rows])
    assert np.array_equal(got[:, 0], fit.pooled_coef)
    assert np.array_equal(got[:, 1], fit.correction_coef)
    assert np.array_equal(got[:, 2], fit.coef)


def test_fit_without_sources_is_target_only(tmp_path):
    paths, datasets = make_files(tmp_path, n_sources=0)
    out = tmp_path / "out"
    assert main(["fit", "--target", paths[0], "--out", str(out)]) == 0
    _, rows = read_rows(out / "fit.csv")
    fit = two_step_fit(datasets[0], [], (), pipeline_defaults())
    got = np.array([float(r[3]) for r in rows])
    assert np.array_equal(got, fit.coef)


def test_detect_schema_matches_library(tmp_path):
    paths, datasets = make_files(tmp_path, seed=4)
    out = tmp_path / "out"
    rc = main([
        "detect", "--target", paths[0], "--source", paths[1], "--source", paths[2],
        "--out", str(out), "--seed", "5",
    ])
    assert rc == 0
    header, rows = read_rows(out / "detection.csv")
    assert header == ["k", "loss", "included"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert rows[0][2] == "1"
    report = detect_sources(datasets[0], datasets[1:], pipeline_defaults(seed=5))
    assert float(rows[0][1]) == report.target_loss
    for k in (1, 2):
        assert float(rows[k][1]) == report.source_losses[k - 1]
        assert rows[k][2] == ("1" if k in report.selected else "0")


def test_transfer_writes_fit_and_detection(tmp_path):
    paths, _ = make_files(tmp_path)
    out = tmp_path / "out"
    rc = main([
        "transfer", "--target", paths[0], "--source", paths[1], "--source", paths[2],
        "--out", str(out),
    ])
    assert rc == 0
    assert (out / "fit.csv").is_file() and (out / "detection.csv").is_file()


def test_mode_and_threshold_reach_the_library(tmp_path):
    # --mode is case-blind; --threshold eps0:<v> is TransferConfig(eps0=v)
    paths, datasets = make_files(tmp_path, seed=4)
    out = tmp_path / "out"
    rc = main([
        "detect", "--target", paths[0], "--source", paths[1], "--source", paths[2],
        "--out", str(out), "--mode", "FARM", "--threshold", "eps0:0.5",
    ])
    assert rc == 0
    _, rows = read_rows(out / "detection.csv")
    report = detect_sources(datasets[0], datasets[1:], TransferConfig(eps0=0.5))
    assert [float(r[1]) for r in rows] == [report.target_loss, *report.source_losses]
    assert [r[2] for r in rows[1:]] == ["1" if k in report.selected else "0" for k in (1, 2)]


def test_infer_stdout_and_intervals(tmp_path, capsys):
    paths, _ = make_files(tmp_path, n=60)
    out = tmp_path / "out"
    rc = main([
        "infer", "--target", paths[0], "--source", paths[1], "--source", paths[2],
        "--out", str(out), "--B", "150", "--group", "1,3",
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(
        r"reject=(true|false) statistic=\S+ critical=\S+", line
    )
    header, rows = read_rows(out / "intervals.csv")
    assert header == ["index", "beta_tilde", "lo", "hi"]
    assert [r[0] for r in rows] == ["1", "3"]
    for r in rows:
        lo, mid, hi = float(r[2]), float(r[1]), float(r[3])
        assert lo <= mid <= hi


def test_simulate_schema(tmp_path):
    out = tmp_path / "out"
    args = [
        "simulate", "--out", str(out), "--sim-n0", "40", "--sim-nk", "40",
        "--sim-p", "30", "--sim-s", "4", "--sim-k-sources", "2",
        "--sim-a-size", "0,1", "--sim-eta", "2.0", "--sim-replications", "2",
        "--sim-roster", "only-Lasso,Oracle-Trans-Lasso", "--seed", "3",
    ]
    assert main(args) == 0
    header, rows = read_rows(out / "results.csv")
    assert header == ["estimator", "A_size", "replication", "l1_error", "l2_error", "seconds"]
    assert len(rows) == 2 * 2 * 2
    header, rows = read_rows(out / "summary.csv")
    assert header == [
        "estimator", "A_size", "replications", "l1_mean", "l1_stderr", "l2_mean", "l2_stderr",
    ]
    assert len(rows) == 2 * 2
    assert all(r[2] == "2" for r in rows)


# SimConfig field -> (--sim-* flag text, value the config must carry); every
# value differs from the field's default
SIM_FLAG_VALUES = {
    "n0": ("41", 41),
    "nk": ("42", 42),
    "p": ("43", 43),
    "s": ("4", 4),
    "k_sources": ("3", 3),
    "eta": ("2.5", 2.5),
    "rank": ("1", 1),
    "signal": ("0.7", 0.7),
    "gamma0": ("0.25", (0.25,)),
    "gamma_jitter_informative": ("0.2", 0.2),
    "gamma_jitter_adversarial": ("0.6", 0.6),
    "adversarial_mult": ("3.0", 3.0),
    "rho": ("0.4", 0.4),
    "cov_spike": ("0.2", 0.2),
    "loading_width": ("1.5", 1.5),
    "replications": ("2", 2),
    "roster": ("only-FARM,Trans-Lasso", ("only-FARM", "Trans-Lasso")),
    "fix_rank": ("true", True),
    "redraw_informative": ("false", False),
}


def capture_sim_configs(monkeypatch):
    configs = []

    def fake_run(config, threads=1):
        configs.append(config)
        return SimResult(config=config, rows=[], informative_sets=[], failures=[])

    monkeypatch.setattr(transfarm.cli, "run_experiment", fake_run)
    return configs


def test_every_sim_config_field_reaches_its_flag(tmp_path, monkeypatch):
    shared = {"a_size", "base_seed", "lambda_c", "folds", "eps0"}
    assert set(SIM_FLAG_VALUES) | shared == {f.name for f in dataclasses.fields(SimConfig)}
    configs = capture_sim_configs(monkeypatch)
    argv = ["simulate", "--out", str(tmp_path), "--sim-a-size", "0,2", "--seed", "7",
            "--lambda-c", "0.6", "--folds", "4", "--threshold", "eps0:1.5"]
    for name, (text, _) in SIM_FLAG_VALUES.items():
        argv += ["--sim-" + name.replace("_", "-"), text]
    assert main(argv) == 0
    values = {name: value for name, (_, value) in SIM_FLAG_VALUES.items()}
    assert configs == [
        SimConfig(**values, a_size=a_size, base_seed=7, lambda_c=0.6, folds=4, eps0=1.5)
        for a_size in (0, 2)
    ]


def test_simulate_defaults_are_sim_config_defaults(tmp_path, monkeypatch):
    configs = capture_sim_configs(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate"]) == 0
    assert configs == [SimConfig(base_seed=0)]


# TransferConfig field -> (flag, flag text, value the config must carry);
# every value differs from the field's default
PIPELINE_FLAG_VALUES = {
    "lambda_c": ("--lambda-c", "0.6", 0.6),
    "rank": ("--rank", "1", 1),
    "mode": ("--mode", "LASSO", "lasso"),
    "folds": ("--folds", "4", 4),
    "eps0": ("--threshold", "eps0:1.5", 1.5),
    "seed": ("--seed", "7", 7),
}


def capture_transfer_configs(monkeypatch):
    """Record the TransferConfig each library call of the CLI receives."""
    configs = []
    for name in ("two_step_fit", "detect_sources", "detect_and_fit", "full_inference"):
        def spy(*args, real=getattr(transfarm.cli, name), **kwargs):
            configs.extend(a for a in args if isinstance(a, TransferConfig))
            return real(*args, **kwargs)

        monkeypatch.setattr(transfarm.cli, name, spy)
    return configs


@pytest.mark.parametrize("command", ["fit", "detect", "transfer", "infer"])
def test_every_transfer_config_field_reaches_its_flag(tmp_path, monkeypatch, command):
    assert set(PIPELINE_FLAG_VALUES) == {f.name for f in dataclasses.fields(TransferConfig)}
    paths, _ = make_files(tmp_path)
    configs = capture_transfer_configs(monkeypatch)
    argv = [command, "--target", paths[0], "--source", paths[1], "--source", paths[2],
            "--out", str(tmp_path / "out")]
    for flag, text, _ in PIPELINE_FLAG_VALUES.values():
        argv += [flag, text]
    assert main(argv + (["--B", "50"] if command == "infer" else [])) == 0
    values = {name: value for name, (_, _, value) in PIPELINE_FLAG_VALUES.items()}
    assert configs == [TransferConfig(**values)]
    assert all(values[f.name] != f.default for f in dataclasses.fields(TransferConfig))


def test_bare_infer_passes_full_inference_defaults(tmp_path, monkeypatch):
    paths, _ = make_files(tmp_path, n_sources=0)
    calls = []

    def spy(target, sources, config, **kwargs):
        calls.append((config, kwargs))
        return full_inference(target, sources, config, **kwargs)

    monkeypatch.setattr(transfarm.cli, "full_inference", spy)
    assert main(["infer", "--target", paths[0], "--out", str(tmp_path / "out")]) == 0
    params = inspect.signature(full_inference).parameters
    defaults = {name: params[name].default for name in ("group", "alpha", "studentized", "draws")}
    assert calls == [(TransferConfig(), defaults)]


# each subcommand's flags besides --help and --config; a config key is its
# flag's name with underscores for dashes
PIPELINE_FLAGS = {
    "--out", "--threads", "--target", "--source", "--response", "--rank", "--lambda-c",
    "--folds", "--threshold", "--mode", "--seed",
}
COMMAND_FLAGS = {
    "fit": PIPELINE_FLAGS,
    "detect": PIPELINE_FLAGS,
    "transfer": PIPELINE_FLAGS,
    "infer": PIPELINE_FLAGS | {"--alpha", "--B", "--group", "--studentized"},
    "simulate": {
        "--out", "--threads", "--seed", "--lambda-c", "--folds", "--threshold",
        "--sim-n0", "--sim-nk", "--sim-p", "--sim-s", "--sim-k-sources", "--sim-a-size",
        "--sim-eta", "--sim-rank", "--sim-signal", "--sim-gamma0",
        "--sim-gamma-jitter-informative", "--sim-gamma-jitter-adversarial",
        "--sim-adversarial-mult", "--sim-rho", "--sim-cov-spike", "--sim-loading-width",
        "--sim-replications", "--sim-roster", "--sim-fix-rank", "--sim-redraw-informative",
    },
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_flags_and_config_keys_of_each_command(tmp_path, monkeypatch, capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert flags == {"--help", "--config", *COMMAND_FLAGS[command]}
    # no command gets far: fit and the rest have no target, and simulate
    # does not run its experiment
    capture_sim_configs(monkeypatch)
    monkeypatch.chdir(tmp_path)
    for flag in COMMAND_FLAGS[command]:
        key = flag[2:].replace("-", "_")
        (tmp_path / "run.cfg").write_text(f"{key} = 1\n")
        main([command, "--config", "run.cfg"])
        assert "unknown config key" not in capsys.readouterr().err, key


def test_simulate_gamma0_follows_rank(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "simulate", "--out", str(out), "--sim-n0", "40", "--sim-nk", "40",
        "--sim-p", "30", "--sim-s", "4", "--sim-k-sources", "1",
        "--sim-a-size", "1", "--sim-rank", "1", "--sim-replications", "1",
        "--sim-roster", "only-FARM",
    ])
    assert rc == 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_reruns_are_byte_identical(tmp_path, capsys):
    paths, _ = make_files(tmp_path, seed=6)
    outputs = []
    lines = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main([
            "infer", "--target", paths[0], "--source", paths[1],
            "--source", paths[2], "--out", str(out), "--B", "100", "--seed", "11",
        ])
        assert rc == 0
        lines.append(capsys.readouterr().out)
        outputs.append((out / "intervals.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert lines[0] == lines[1]


def test_simulate_rerun_identical_up_to_seconds(tmp_path):
    args = lambda out: [
        "simulate", "--out", out, "--sim-n0", "40", "--sim-nk", "40",
        "--sim-p", "30", "--sim-s", "4", "--sim-k-sources", "2",
        "--sim-a-size", "1", "--sim-eta", "2.0", "--sim-replications", "2",
        "--sim-roster", "only-Lasso,Trans-Lasso", "--seed", "9",
    ]
    assert main(args(str(tmp_path / "a"))) == 0
    assert main(args(str(tmp_path / "b"))) == 0
    assert (tmp_path / "a/summary.csv").read_bytes() == (tmp_path / "b/summary.csv").read_bytes()

    def strip_seconds(path):
        header, rows = read_rows(path)
        return header, [r[:-1] for r in rows]

    assert strip_seconds(tmp_path / "a/results.csv") == strip_seconds(tmp_path / "b/results.csv")


# ---------------------------------------------------------------------------
# config files, precedence, exit codes
# ---------------------------------------------------------------------------


def test_flag_overrides_config_file_overrides_default(tmp_path):
    paths, _ = make_files(tmp_path, seed=2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nlambda_c = 0.9\nseed = 3\n")

    def run(out, *extra):
        rc = main([
            "fit", "--target", paths[0], "--source", paths[1],
            "--source", paths[2], "--out", str(out), *extra,
        ])
        assert rc == 0
        return (out / "fit.csv").read_bytes()

    flag_and_file = run(tmp_path / "o1", "--config", str(cfg), "--lambda-c", "0.7")
    flag_only = run(tmp_path / "o2", "--lambda-c", "0.7")
    file_only = run(tmp_path / "o3", "--config", str(cfg))
    default = run(tmp_path / "o4")
    assert flag_and_file == flag_only
    assert file_only != flag_only
    assert default != file_only


def test_config_file_with_a_byte_order_mark(tmp_path):
    # the first key read "\ufefftarget" and was refused as unknown
    paths, _ = make_files(tmp_path, seed=2)
    text = f"target = {paths[0]}\nlambda_c = 0.9\n".encode()
    written = []
    for name, content in (("plain", text), ("marked", BOM + text)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(content)
        out = tmp_path / name
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        written.append((out / "fit.csv").read_bytes())
    assert written[1] == written[0]


def test_unknown_flag_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["fit", "--target", "t.csv", "--out", str(out), "--bogus", "1"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_1(tmp_path, capsys):
    paths, _ = make_files(tmp_path, n_sources=0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim_p = 10\n")
    rc = main(["fit", "--target", paths[0], "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key 'sim_p'" in capsys.readouterr().err


@pytest.mark.parametrize("key, line", [("source", 3), ("seed", 4)])
def test_repeated_config_key_exits_1(tmp_path, capsys, key, line):
    # the last value won: two source lines scored only the second file,
    # and a second seed line silently replaced the first
    paths, _ = make_files(tmp_path)
    lines = [f"target = {paths[0]}", f"source = {paths[1]}", "seed = 1"]
    lines.insert(line - 1, f"source = {paths[2]}" if key == "source" else "seed = 2")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{cfg}: line {line} repeats config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_lists_sources_as_one_comma_list(tmp_path):
    paths, _ = make_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"target = {paths[0]}\nsource = {paths[1]},{paths[2]}\n")
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    flags = ["--target", paths[0], "--source", paths[1], "--source", paths[2]]
    assert main(["detect", *flags, "--out", str(tmp_path / "flags")]) == 0
    written = [(tmp_path / name / "detection.csv").read_bytes() for name in ("file", "flags")]
    assert written[0] == written[1]


def test_missing_target_exits_1(capsys):
    assert main(["fit"]) == 1
    assert "--target is required" in capsys.readouterr().err


def test_invalid_alpha_exits_1(tmp_path, capsys):
    paths, _ = make_files(tmp_path, n_sources=0)
    rc = main(["infer", "--target", paths[0], "--alpha", "1.5"])
    assert rc == 1
    assert "alpha must lie strictly inside (0, 1), got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["infer", "--target", "{t}", "--group", "7"], "group indices must lie in [1, 6], got 7"),
        (["infer", "--target", "{t}", "--B", "0"], "draws must be an integer of at least 1, got 0"),
        *(
            ([command, "--target", "{t}", "--source", "{s}", "--folds", "1"],
             "folds must be at least 2")
            for command in ("fit", "detect", "transfer", "infer")
        ),
        (["simulate", "--sim-a-size", ""], "sim_a_size needs at least one integer"),
        (["simulate", "--sim-p", "10", "--sim-s", "20"], "s = 20 exceeds p = 10"),
        (["simulate", "--sim-roster", ""], "roster must name at least one estimator"),
        (["simulate", "--threads", "-3"], "threads must be an integer of at least 1, got -3"),
        (["simulate", "--folds", "1"], "folds must be at least 2, got 1"),
        (["simulate", "--lambda-c", "-1"], "lambda_c must be at least 0, got -1.0"),
        (["simulate", "--sim-max-rank", "3"], "unrecognized arguments: --sim-max-rank 3"),
        (["simulate", "--sim-nk", "1"], "nk must be at least 2, got 1"),
        (["simulate", "--sim-s", "-1"], "s must be at least 0, got -1"),
        (["simulate", "--sim-rho", "1"], "rho must lie in [0, 1), got 1.0"),
        (["simulate", "--sim-gamma0", "nan,0.5"], "gamma0 must be finite"),
        *(
            ([command, "--target", "{t}", "--source", "{s}", "--seed", "-1"],
             "seed must be at least 0, got -1")
            for command in ("fit", "detect", "transfer", "infer")
        ),
        (["simulate", "--seed", "-1"], "base_seed must be at least 0, got -1"),
        (["simulate", "--sim-n0", "5"], "need at least 6 target rows for 3 folds, got 5"),
        (["fit", "--target", "{t}", "--mode", "bogus"], "mode must be 'farm' or 'lasso', got 'bogus'"),
        (["detect", "--target", "{t}", "--rank", "-1"], "rank must be at least 0, got -1"),
        (["transfer", "--target", "{t}", "--threshold", "eps0:-1"],
         "eps0 must be at least 0, got -1.0"),
        (["simulate", "--threshold", "eps0:-1"], "eps0 must be at least 0, got -1.0"),
        (["simulate", "--sim-rank", "3", "--sim-gamma0", "0.5,0.5"],
         "gamma0 has length 2, expected rank 3"),
        # a bad flag value exits before any CSV is read: these targets do not exist
        *(
            ([command, "--target", "{t}.missing", "--folds", "1"], "folds must be at least 2")
            for command in ("fit", "detect", "transfer", "infer")
        ),
        (["infer", "--target", "{t}.missing", "--alpha", "1.5"],
         "alpha must lie strictly inside (0, 1), got 1.5"),
        (["infer", "--target", "{t}.missing", "--B", "0"],
         "draws must be an integer of at least 1, got 0"),
        # the converters parse only; each value rule is the library's
        (["fit", "--target", "{t}", "--lambda-c", "inf"], "lambda_c must be finite, got inf"),
        (["infer", "--target", "{t}", "--alpha", "nan"],
         "alpha must lie strictly inside (0, 1), got nan"),
        (["simulate", "--sim-eta", "nan"], "eta must be finite, got nan"),
        (["fit", "--target", "{t}", "--threads", "0"],
         "threads must be an integer of at least 1, got 0"),
    ],
    ids=["infer-group", "infer-B", "fit-folds", "detect-folds", "transfer-folds", "infer-folds",
         "simulate-empty-a-size", "simulate-s-above-p", "simulate-empty-roster",
         "simulate-threads-below-1", "simulate-folds", "simulate-lambda-c",
         "simulate-max-rank", "simulate-nk", "simulate-s-negative", "simulate-rho-1",
         "simulate-gamma0-nan", "fit-seed", "detect-seed", "transfer-seed", "infer-seed",
         "simulate-seed", "simulate-n0-below-folds", "fit-mode", "detect-rank",
         "transfer-eps0", "simulate-eps0", "simulate-gamma0-length", "fit-folds-before-ingest",
         "detect-folds-before-ingest", "transfer-folds-before-ingest",
         "infer-folds-before-ingest", "infer-alpha-before-ingest", "infer-B-before-ingest",
         "fit-lambda-c-inf", "infer-alpha-nan", "simulate-eta-nan", "fit-threads-0"],
)
def test_bad_flag_value_exits_1(tmp_path, capsys, argv, message):
    paths, _ = make_files(tmp_path, p=6, n_sources=1)
    out = tmp_path / "out"
    argv = [a.replace("{t}", paths[0]).replace("{s}", paths[1]) for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_out_naming_a_file_exits_1(tmp_path, capsys, monkeypatch, command):
    paths, _ = make_files(tmp_path, n_sources=0)
    out = tmp_path / "out.csv"
    out.write_text("kept\n")

    def no_run(*args, **kwargs):
        raise AssertionError("run_experiment ran before --out was checked")

    monkeypatch.setattr(transfarm.cli, "run_experiment", no_run)
    argv = ["--target", paths[0]] if command == "fit" else []
    assert main([command, *argv, "--out", str(out)]) == 1
    assert f"--out must be a directory, got the file {out}" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_out_under_a_file_exits_1(tmp_path, capsys, monkeypatch, command):
    # --out is made only when the results are written, but a file in its
    # way, or an empty path, is found before any CSV is read or any
    # replication runs
    paths, _ = make_files(tmp_path, n_sources=0)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")

    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    for name in ("ingest_dataset", "run_experiment"):
        monkeypatch.setattr(transfarm.cli, name, no_work)
    argv = ["--target", paths[0]] if command == "fit" else [
        "--sim-n0", "40", "--sim-nk", "40", "--sim-p", "30", "--sim-s", "4",
        "--sim-k-sources", "1", "--sim-a-size", "1", "--sim-replications", "1",
        "--sim-roster", "only-FARM",
    ]
    for out in (afile / "sub", afile / "sub" / "deeper", ""):
        assert main([command, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        if out:
            assert f"--out must be a directory, got {out} under the file {afile}" in err
        else:  # os.makedirs("") would fail only after the work
            assert "--out must name a directory, got an empty path" in err
        assert "numerical failure" not in err
        assert afile.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, n, p, message",
    [
        (["fit", "--target", "{t}", "--source", "{s}"], 50, 10,
         "source 1 has 9 columns, target has 10"),
        (["detect", "--target", "{t}", "--folds", "3"], 5, 10,
         "need at least 6 target rows for 3 folds, got 5"),
        (["fit", "--target", "{t}", "--rank", "50"], 12, 4,
         "target: rank must lie in [0, 4], got 50"),
    ],
    ids=["fit-source-columns", "detect-target-rows", "fit-rank-above-limit"],
)
def test_input_rule_after_ingest_exits_1(tmp_path, capsys, argv, n, p, message):
    # these rules need the data, so they fire after ingest; the library
    # raises a ValueError for each, which is an input error
    paths, _ = make_files(tmp_path, n=n, p=p, n_sources=0)
    narrow = str(tmp_path / "narrow.csv")
    gen = RngStream(3).generator(0)
    write_dataset(narrow, gen.standard_normal((n, p - 1)), gen.standard_normal(n))
    out = tmp_path / "out"
    argv = [a.replace("{t}", paths[0]).replace("{s}", narrow) for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "numerical failure" not in err
    assert not out.exists()


def test_numerical_failure_exits_2(tmp_path, capsys):
    # one sweep per solve cannot settle the noise-scale fit: a ConvergenceError
    paths, _ = make_files(tmp_path, n_sources=0)
    out = tmp_path / "out"
    with mock.patch.object(transfarm.solver, "DEFAULT_MAX_ITER", 1):
        rc = main(["fit", "--target", paths[0], "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ConvergenceError: ")
    assert not out.exists()


def _draw(k, n=50, p=8):
    gen = RngStream(5, 9).generator(k)
    f = gen.standard_normal((n, 2))
    x = f @ gen.uniform(-1.0, 1.0, (p, 2)).T + gen.standard_normal((n, p))
    y = 0.6 * x[:, :3].sum(axis=1) + f.sum(axis=1) + gen.standard_normal(n)
    return x, y


def degenerate_inputs(case):
    """Target, two sources and extra flags for one degenerate input."""
    if case == "p-much-larger-than-n":
        return _draw(0, 20, 120), [_draw(1, 20, 120), _draw(2, 20, 120)], []
    target, sources = _draw(0), [_draw(1), _draw(2)]
    if case == "min-n-for-folds":
        target = _draw(0, n=6)  # two rows per fold at the default 3 folds
    elif case == "rank-at-limit":
        return target, sources, ["--rank", "8"]
    elif case == "constant-y":
        target = (target[0], np.full(50, 2.0))
    elif case == "all-zero-source":
        sources[1] = (np.zeros((50, 8)), sources[1][1])
    elif case.startswith("overflowing-gram"):
        # every cell is finite, but x @ x.T (farm) or z.T z (lasso) overflows
        extra = ["--mode", "lasso"] if case.endswith("lasso") else []
        return target, [(x * 1e160, y) for x, y in sources], extra
    for x, _ in [target, *sources]:
        if case == "constant-column":
            x[:, 0] = 3.0
        elif case == "duplicate-column":
            x[:, 1] = x[:, 0]
    return target, sources, []


@pytest.mark.parametrize(
    "case",
    ["constant-column", "duplicate-column", "p-much-larger-than-n", "min-n-for-folds",
     "rank-at-limit", "constant-y", "all-zero-source", "overflowing-gram",
     "overflowing-gram-lasso"],
)
def test_degenerate_inputs(tmp_path, capsys, case):
    target, sources, extra = degenerate_inputs(case)
    out = tmp_path / "out"
    argv = ["transfer", "--out", str(out)] + extra
    for k, (x, y) in enumerate([target, *sources]):
        path = str(tmp_path / f"d{k}.csv")
        write_dataset(path, x, y)
        argv += ["--target" if k == 0 else "--source", path]
    rc = main(argv)
    err = capsys.readouterr().err
    if case == "all-zero-source":
        # the failing dataset is named
        assert rc == 2
        assert "source 2: leading eigenvalue must be positive" in err
        return
    if case.startswith("overflowing-gram"):
        # named, with no RuntimeWarning (an error here) and no sweeps on NaN
        assert rc == 2
        assert err.startswith("numerical failure: DegenerateError: source 1: the Gram ")
        assert "overflows" in err
        return
    assert rc == 0, err
    for name in ("fit.csv", "detection.csv"):
        _, rows = read_rows(out / name)
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row)


def test_module_entry_point(tmp_path):
    paths, _ = make_files(tmp_path, n_sources=1)
    out = tmp_path / "out"
    # the child imports transfarm from where this process did, which the
    # pytest config's pythonpath may have put on sys.path alone
    home = os.path.dirname(os.path.dirname(transfarm.cli.__file__))
    pythonpath = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "transfarm.cli", "fit", "--target", paths[0],
         "--source", paths[1], "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "fit.csv").is_file()
