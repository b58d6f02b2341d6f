"""Command-line front end.

Subcommands: fit, detect, transfer, infer, simulate.  Options can come
from a flat key = value config file (--config); explicit flags win over
file values, which win over defaults.  All numeric output is written
with 17 significant digits so files round-trip exactly, and every
command is deterministic given the same inputs and --seed.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import os
import sys
import warnings

import numpy as np

from transfarm.inference import full_inference
from transfarm.numerics import RngStream, check_matrix, check_vector
from transfarm.simlab import SimConfig, run_experiment
from transfarm.transfer import (
    Dataset,
    TransferConfig,
    detect_and_fit,
    detect_sources,
    two_step_fit,
)


class UsageError(Exception):
    """Bad flags, config keys, or input files; exits with code 1."""


# ======================================================================
# dataset ingestion / emission
# ======================================================================


def ingest_dataset(path: str, response: str = "y"):
    """Read a header CSV into (x, y, feature_names).

    The response column is removed from the design; remaining columns
    keep file order.  One np.loadtxt call parses the data rows.  Where it
    refuses the file, or its array fails a check (_load_table), the row
    loop (_read_rows) reads the file again: it takes every float()
    spelling and reports precise cell coordinates on parse failures
    (data rows count from 1).
    """
    if not os.path.isfile(path):
        raise UsageError(f"input file not found: {path}")
    with _decoding(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        hits = [i for i, h in enumerate(header) if h == response]
        if not hits:
            raise UsageError(f"{path}: response column {response!r} not found")
        if len(hits) > 1:
            raise UsageError(f"{path}: response column {response!r} appears twice")
        y_col = hits[0]
        feature_names = [h for i, h in enumerate(header) if i != y_col]
        if not feature_names:
            raise UsageError(f"{path}: no feature columns besides {response!r}")
        table = _load_table(fh.readlines(), len(header))
        if table is None:
            # the lines are freed by now, so the row loop streams the file
            fh.seek(0)
            next(reader)
            table = _read_rows(path, header, reader)
    return np.delete(table, y_col, axis=1), table[:, y_col].copy(), feature_names


@contextlib.contextmanager
def _decoding(path: str):
    """Report bytes the locale's encoding cannot decode as an input error."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not valid {exc.encoding} text ({exc.reason})") from None


def _load_table(lines: list[str], width: int):
    """The data lines as one array, or None where the row loop must decide.

    The lines end where csv.reader ends them (readlines on a file opened
    with newline="").  np.loadtxt skips blank lines, which the row loop
    rejects, so the array is kept only with one row per line, the
    header's width, at least 2 rows and every value finite.
    comments=None keeps "1#2" from parsing as 1; the "no data" warning
    of a header-only file means too few rows.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape != (len(lines), width) or len(lines) < 2 or not np.isfinite(table).all():
        return None
    return table


def _read_rows(path: str, header: list[str], reader):
    """Parse the data rows cell by cell, naming the first bad row and column."""
    rows = []
    for row_no, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise UsageError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        vals = []
        for i, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise UsageError(
                    f"{path}: non-numeric value at row {row_no}, column {header[i]}"
                ) from None
            if not math.isfinite(v):
                raise UsageError(
                    f"{path}: non-finite value at row {row_no}, column {header[i]}"
                )
            vals.append(v)
        rows.append(vals)
    if len(rows) < 2:
        raise UsageError(f"{path}: need at least 2 data rows, got {len(rows)}")
    return np.array(rows)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.17g}"
    return str(v)


def _write_csv(path: str, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_dataset(path: str, x: np.ndarray, y: np.ndarray, response: str = "y",
                  feature_names: list[str] | None = None):
    """Emit a dataset as a header CSV that ingest_dataset reads back."""
    x = check_matrix(x, "x")
    y = check_vector(y, "y")
    if y.size != x.shape[0]:
        raise ValueError(f"x has {x.shape[0]} rows but y has {y.size}")
    if feature_names is None:
        feature_names = [f"x{j + 1}" for j in range(x.shape[1])]
    if len(feature_names) != x.shape[1]:
        raise ValueError(f"{len(feature_names)} feature names for {x.shape[1]} columns")
    # '%.17g' % v gives the bytes _fmt gives a float: one formatter serves both
    line = ",".join(["%.17g"] * (x.shape[1] + 1)) + "\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([response] + feature_names)
        for y_i, x_i in zip(y.tolist(), x):
            fh.write(line % (y_i, *x_i.tolist()))


# ======================================================================
# option parsing and merging
# ======================================================================


def _c_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"invalid integer for {key}: {raw!r}") from None


def _c_positive_int(key, raw):
    v = _c_int(key, raw)
    if v < 1:
        raise UsageError(f"{key} must be at least 1, got {v}")
    return v


def _c_float(key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise UsageError(f"invalid number for {key}: {raw!r}") from None
    if not math.isfinite(v):
        raise UsageError(f"non-finite number for {key}: {raw!r}")
    return v


def _c_bool(key, raw):
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"invalid boolean for {key}: {raw!r}")


def _c_str(key, raw):
    return str(raw)


def _c_rank(key, raw):
    if str(raw).strip().lower() == "auto":
        return None
    return _c_int(key, raw)


def _c_mode(key, raw):
    return str(raw).strip().lower()


def _c_threshold(key, raw):
    # TransferConfig.eps0: None is the 2L0 rule
    v = str(raw).strip()
    if v == "2L0":
        return None
    if v.startswith("eps0:"):
        return _c_float(key, v[len("eps0:"):])
    raise UsageError(f"{key} must be '2L0' or 'eps0:<real>', got {raw!r}")


def _c_group(key, raw):
    v = str(raw).strip()
    if v.lower() == "all":
        return None
    try:
        idx = [int(tok) for tok in v.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{key} must be 'all' or comma-separated indices, got {raw!r}") from None
    if not idx or any(i < 1 for i in idx):
        raise UsageError(f"{key} indices are 1-based positive integers, got {raw!r}")
    return tuple(sorted(set(i - 1 for i in idx)))


def _c_int_list(key, raw):
    try:
        out = tuple(int(tok) for tok in str(raw).split(",") if tok.strip() != "")
    except ValueError:
        raise UsageError(f"invalid integer list for {key}: {raw!r}") from None
    if not out:
        raise UsageError(f"{key} needs at least one integer, got {raw!r}")
    return out


def _c_float_list(key, raw):
    try:
        return tuple(float(tok) for tok in str(raw).split(",") if tok.strip() != "")
    except ValueError:
        raise UsageError(f"invalid number list for {key}: {raw!r}") from None


def _c_str_list(key, raw):
    return tuple(tok.strip() for tok in str(raw).split(",") if tok.strip() != "")


_SHARED = [
    ("seed", 0, _c_int),
    ("out", ".", _c_str),
    ("threads", os.cpu_count() or 1, _c_positive_int),
]
# pipeline defaults are TransferConfig's, typed as their converters return
# them; the configs, not the converters, check the values
_DATA = [
    ("target", None, _c_str),
    ("source", (), _c_str_list),
    ("response", "y", _c_str),
    ("rank", TransferConfig.rank, _c_rank),
    ("lambda_c", TransferConfig.lambda_c, _c_float),
    ("folds", TransferConfig.folds, _c_int),
    ("threshold", TransferConfig.eps0, _c_threshold),
    ("mode", TransferConfig.mode, _c_mode),
]
_INFER = [
    ("alpha", 0.05, _c_float),
    ("B", 500, _c_int),
    ("group", "all", _c_group),
    ("studentized", "true", _c_bool),
]
# SimConfig fields that are set from shared flags, not from a sim_ flag
_SIM_SHARED = ("base_seed", "lambda_c", "folds", "eps0")
# keyed by annotation text: simlab postpones annotations, so field.type is a string
_SIM_CONVERTERS = {
    "int": _c_int,
    "int | None": _c_int,
    "float": _c_float,
    "bool": _c_bool,
    "tuple[float, ...] | None": _c_float_list,
    "tuple[str, ...]": _c_str_list,
}


def _sim_option(f):
    if f.name == "a_size":
        # a list of sizes, one SimConfig per value
        return ("sim_a_size", (f.default,), _c_int_list)
    return ("sim_" + f.name, f.default, _SIM_CONVERTERS[f.type])


_SIM_FIELDS = [f for f in dataclasses.fields(SimConfig) if f.name not in _SIM_SHARED]
_SIM = [_sim_option(f) for f in _SIM_FIELDS] + [
    entry for entry in _DATA if entry[0] in ("lambda_c", "folds", "threshold")
]

_COMMAND_SPECS = {
    "fit": _SHARED + _DATA,
    "detect": _SHARED + _DATA,
    "transfer": _SHARED + _DATA,
    "infer": _SHARED + _DATA + _INFER,
    "simulate": _SHARED + _SIM,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="transfarm", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True
    for name, spec in _COMMAND_SPECS.items():
        p = sub.add_parser(name)
        p.add_argument("--config")
        for key, _, _ in spec:
            flag = "--" + key.replace("_", "-") if key != "B" else "--B"
            if key == "source":
                p.add_argument(flag, action="append", default=None, dest=key)
            else:
                p.add_argument(flag, default=None, dest=key)
    return parser


def _read_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with _decoding(path), open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}: line {line_no} is not 'key = value'")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if key not in allowed:
                raise UsageError(f"{path}: unknown config key {key!r}")
            out[key] = value.strip()
    return out


def _merge(args: argparse.Namespace, command: str) -> dict:
    spec = _COMMAND_SPECS[command]
    allowed = {key for key, _, _ in spec}
    file_values = {}
    if args.config is not None:
        file_values = _read_config_file(args.config, allowed)
    merged = {}
    for key, default, conv in spec:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            raw = flag_value
        elif key in file_values:
            raw = file_values[key]
        else:
            raw = default
        # flag and file values are text; typed defaults are used as they are
        merged[key] = conv(key, raw) if isinstance(raw, str) else raw
    return merged


# ======================================================================
# commands
# ======================================================================


def _load_datasets(m: dict):
    # commands build their configs first, so a bad flag value exits 1
    # before any CSV is read
    if not m["target"]:
        raise UsageError("--target is required")
    x, y, _ = ingest_dataset(m["target"], m["response"])
    target = Dataset(x=x, y=y)
    sources = []
    for path in m["source"]:
        sx, sy, _ = ingest_dataset(path, m["response"])
        sources.append(Dataset(x=sx, y=sy))
    return target, sources


def _config(cls, **kwargs):
    # a config the constructor rejects came from bad flag values
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _pipeline_config(m: dict) -> TransferConfig:
    return _config(
        TransferConfig,
        lambda_c=m["lambda_c"],
        rank=m["rank"],
        mode=m["mode"],
        folds=m["folds"],
        eps0=m["threshold"],
        seed=m["seed"],
    )


def _outpath(m: dict, name: str) -> str:
    os.makedirs(m["out"], exist_ok=True)
    return os.path.join(m["out"], name)


def _write_fit(m: dict, fit):
    rows = (
        (j + 1, fit.pooled_coef[j], fit.correction_coef[j], fit.coef[j])
        for j in range(fit.coef.size)
    )
    _write_csv(_outpath(m, "fit.csv"), ["index", "w_hat", "delta_hat", "beta_hat"], rows)


def _write_detection(m: dict, report):
    rows = [(0, report.target_loss, 1)]
    for k in range(report.source_losses.size):
        rows.append((k + 1, report.source_losses[k], (k + 1) in report.selected))
    _write_csv(_outpath(m, "detection.csv"), ["k", "loss", "included"], rows)


def _cmd_fit(m: dict) -> int:
    # every --source file is part of the transfer set; pass none for a
    # target-only fit
    config = _pipeline_config(m)
    target, sources = _load_datasets(m)
    set_a = tuple(range(1, len(sources) + 1))
    fit = two_step_fit(target, sources, set_a, config)
    _write_fit(m, fit)
    return 0


def _cmd_detect(m: dict) -> int:
    config = _pipeline_config(m)
    target, sources = _load_datasets(m)
    report = detect_sources(target, sources, config)
    _write_detection(m, report)
    return 0


def _cmd_transfer(m: dict) -> int:
    config = _pipeline_config(m)
    target, sources = _load_datasets(m)
    fit, report = detect_and_fit(target, sources, config)
    _write_fit(m, fit)
    _write_detection(m, report)
    return 0


def _cmd_infer(m: dict) -> int:
    config = _pipeline_config(m)
    if not 0.0 < m["alpha"] < 1.0:
        raise UsageError(f"alpha must lie in (0, 1), got {m['alpha']}")
    if m["B"] < 1:
        raise UsageError(f"B must be positive, got {m['B']}")
    target, sources = _load_datasets(m)
    # the group range needs the target's p
    if m["group"] is not None and m["group"][-1] >= target.p:
        raise UsageError(f"group indices must lie in [1, {target.p}], got {m['group'][-1] + 1}")
    test, cis, _, _ = full_inference(
        target,
        sources,
        config,
        rng=RngStream(m["seed"]),
        group=m["group"],
        alpha=m["alpha"],
        studentized=m["studentized"],
        draws=m["B"],
    )
    rows = (
        (g + 1, cis.beta_tilde[g], cis.lower[i], cis.upper[i])
        for i, g in enumerate(cis.group)
    )
    _write_csv(_outpath(m, "intervals.csv"), ["index", "beta_tilde", "lo", "hi"], rows)
    print(
        f"reject={'true' if test.reject else 'false'}"
        f" statistic={test.statistic:.17g} critical={test.quantile:.17g}"
    )
    return 0


def _cmd_simulate(m: dict) -> int:
    sim = {f.name: m["sim_" + f.name] for f in _SIM_FIELDS}
    a_sizes = sim.pop("a_size")
    configs = [
        _config(
            SimConfig,
            **sim,
            a_size=a_size,
            base_seed=m["seed"],
            lambda_c=m["lambda_c"],
            folds=m["folds"],
            eps0=m["threshold"],
        )
        for a_size in a_sizes
    ]
    results_rows = []
    summary_rows = []
    total_failures = 0
    for a_size, config in zip(a_sizes, configs):
        result = run_experiment(config, threads=m["threads"])
        total_failures += len(result.failures)
        for row in result.rows:
            results_rows.append(
                (row.estimator, a_size, row.replication, row.l1_error, row.l2_error, row.seconds)
            )
        for name, agg in result.aggregates().items():
            summary_rows.append(
                (
                    name,
                    a_size,
                    agg["replications"],
                    agg["l1_mean"],
                    agg["l1_stderr"],
                    agg["l2_mean"],
                    agg["l2_stderr"],
                )
            )
    _write_csv(
        _outpath(m, "results.csv"),
        ["estimator", "A_size", "replication", "l1_error", "l2_error", "seconds"],
        results_rows,
    )
    _write_csv(
        _outpath(m, "summary.csv"),
        ["estimator", "A_size", "replications", "l1_mean", "l1_stderr", "l2_mean", "l2_stderr"],
        summary_rows,
    )
    if total_failures:
        print(f"warning: {total_failures} estimator runs failed", file=sys.stderr)
    return 0


_RUNNERS = {
    "fit": _cmd_fit,
    "detect": _cmd_detect,
    "transfer": _cmd_transfer,
    "infer": _cmd_infer,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        merged = _merge(args, args.command)
        return _RUNNERS[args.command](merged)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map library failures to exit 2
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
