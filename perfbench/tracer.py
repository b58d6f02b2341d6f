"""In-memory span tracer that instruments transfarm from the outside.

The library is not edited.  Tracer wraps a fixed list of its public
functions and rebinds every module attribute that names one of them, so
the wrapper is hit wherever a caller looks the function up (modules use
``from ... import``, so ``transfarm.transfer.lasso_fit`` and
``transfarm.solver.lasso_fit`` are separate bindings of one function).
Leaving the ``with`` block restores every binding, also on error, so an
untraced run after a traced one really runs untraced.

Each call becomes one span: name, start, end, parent span and a few
attributes read from the arguments or the result (solver sweeps, input
fingerprints, file sizes).  Attribute probes run in a ``trace.probe``
span of their own so no layer is charged for them.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = (
    "transfarm",
    "transfarm.numerics",
    "transfarm.factor",
    "transfarm.solver",
    "transfarm.transfer",
    "transfarm.inference",
    "transfarm.simlab",
    "transfarm.cli",
)

PROBE = "trace.probe"


def fingerprint(*arrays) -> str:
    """Digest of array contents; equal inputs give equal digests."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _probe_sym_eig(args, kwargs, result):
    return {"input": fingerprint(_arg(args, kwargs, 0, "a"))}


def _probe_scaled_lasso(args, kwargs, result):
    z, r = _arg(args, kwargs, 0, "z"), _arg(args, kwargs, 1, "r")
    return {"alternations": result.alternations, "input": fingerprint(z, r)}


def _probe_lasso_fit(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    return {
        "sweeps": result.iterations,
        "p": problem.p,
        "kkt": result.kkt_violation,
        "converged": bool(result.converged),
        "offset": problem.offset is not None,
    }


def _probe_ingest(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (span name, module that defines the function, function name, probe)
TARGETS = (
    ("numerics.sym_eig", "transfarm.numerics", "sym_eig", _probe_sym_eig),
    ("factor.decompose", "transfarm.factor", "decompose", None),
    ("solver.lasso_fit", "transfarm.solver", "lasso_fit", _probe_lasso_fit),
    ("solver.scaled_lasso", "transfarm.solver", "scaled_lasso", _probe_scaled_lasso),
    ("solver.nodewise_precision", "transfarm.solver", "nodewise_precision", None),
    ("transfer.two_step_fit", "transfarm.transfer", "two_step_fit", None),
    ("transfer.detect_sources", "transfarm.transfer", "detect_sources", None),
    ("inference.debias", "transfarm.inference", "debias", None),
    ("inference.multiplier_bootstrap", "transfarm.inference", "multiplier_bootstrap", None),
    ("inference.full_inference", "transfarm.inference", "full_inference", None),
    ("simlab.generate", "transfarm.simlab", "generate", None),
    ("simlab.run_experiment", "transfarm.simlab", "run_experiment", None),
    ("cli.ingest_dataset", "transfarm.cli", "ingest_dataset", _probe_ingest),
    ("cli.main", "transfarm.cli", "main", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records spans while the wrappers are bound."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, probe):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe is not None:
                pidx = tracer.open(PROBE)
                try:
                    tracer.spans[idx].attrs = probe(args, kwargs, result)
                finally:
                    tracer.close(pidx)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self):
        try:
            modules = [importlib.import_module(m) for m in MODULES]
            for name, home, attr, probe in TARGETS:
                original = getattr(importlib.import_module(home), attr)
                wrapper = self._wrap(name, original, probe)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def records(self) -> list[dict]:
        """The spans as plain dicts, in start order."""
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "attrs": s.attrs}
            for i, s in enumerate(self.spans)
        ]


# ----------------------------------------------------------------------
# per-layer reduction
# ----------------------------------------------------------------------

# Spans whose self time is reported as a `.s` metric.
TIMED_LAYERS = (
    "numerics.sym_eig",
    "factor.decompose",
    "solver.scaled_lasso",
    "solver.lasso_fit",
    "solver.nodewise_precision",
    "transfer.two_step_fit",
    "transfer.detect_sources",
    "inference.multiplier_bootstrap",
    "inference.full_inference",
    "simlab.generate",
    "simlab.run_experiment",
    "cli.ingest_dataset",
    "cli.main",
)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _unique_ratio(spans):
    if not spans:
        return 0.0
    return len({s.attrs["input"] for s in spans}) / len(spans)


def layer_metrics(spans: list[Span], roots: list[int]) -> dict[str, float]:
    """Per-layer counts and self times over the given root spans.

    roots are the benchmark's own operation spans; their total duration
    is the traced wall time that unattributed_frac is a share of.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def pick(name):
        return [spans[i] for i in by_name.get(name, [])]

    def self_s(indices):
        return float(sum(own[i] for i in indices))

    def calls(name):
        return len(by_name.get(name, []))

    m: dict[str, float] = {}
    for name in TIMED_LAYERS:
        m[f"{name}.s"] = self_s(by_name.get(name, []))

    eig = pick("numerics.sym_eig")
    m["numerics.sym_eig.calls"] = len(eig)
    m["numerics.sym_eig.unique_ratio"] = _unique_ratio(eig)
    m["factor.decompose.calls"] = calls("factor.decompose")

    sl = pick("solver.scaled_lasso")
    m["solver.scaled_lasso.calls"] = len(sl)
    m["solver.scaled_lasso.alternations"] = sum(s.attrs["alternations"] for s in sl)
    # The target noise scale is the only thing scaled_lasso estimates here,
    # so transfer.sigma reads the same spans; unique_ratio shows repeats.
    m["transfer.sigma.s"] = m["solver.scaled_lasso.s"]
    m["transfer.sigma.unique_ratio"] = _unique_ratio(sl)

    lf_idx = by_name.get("solver.lasso_fit", [])
    lf = [spans[i] for i in lf_idx]
    m["solver.lasso_fit.calls"] = len(lf)
    m["solver.lasso_fit.sweeps"] = sum(s.attrs["sweeps"] for s in lf)
    m["solver.lasso_fit.coord_visits"] = sum(s.attrs["sweeps"] * s.attrs["p"] for s in lf)
    m["solver.lasso_fit.kkt_max"] = max((s.attrs["kkt"] for s in lf), default=0.0)
    m["solver.lasso_fit.unconverged"] = sum(not s.attrs["converged"] for s in lf)

    steps = {"pooled_step": [], "correction_step": [], "detection_folds": []}
    for i in lf_idx:
        s = spans[i]
        parent = spans[s.parent].name if s.parent >= 0 else ""
        if parent == "transfer.two_step_fit":
            steps["correction_step" if s.attrs["offset"] else "pooled_step"].append(i)
        elif parent == "transfer.detect_sources":
            steps["detection_folds"].append(i)
    for step, indices in steps.items():
        m[f"transfer.{step}.calls"] = len(indices)
        m[f"transfer.{step}.s"] = self_s(indices)
        m[f"transfer.{step}.sweeps"] = sum(spans[i].attrs["sweeps"] for i in indices)

    m["solver.nodewise_precision.calls"] = calls("solver.nodewise_precision")
    m["inference.multiplier_bootstrap.calls"] = calls("inference.multiplier_bootstrap")
    m["inference.debias.calls"] = calls("inference.debias")
    m["simlab.generate.calls"] = calls("simlab.generate")
    m["cli.ingest_dataset.calls"] = calls("cli.ingest_dataset")
    m["cli.ingest_dataset.bytes"] = sum(s.attrs["bytes"] for s in pick("cli.ingest_dataset"))

    wall = sum(spans[i].duration for i in roots)
    attributed = sum(m[f"{name}.s"] for name in TIMED_LAYERS)
    m["trace.unattributed_frac"] = (wall - attributed) / wall if wall > 0 else 0.0
    return m
