"""The benchmark tracer's view of the library.

perfbench/tracer.py instruments transfarm by rebinding public functions
by name and reading attributes of their arguments and results, so
renaming or deleting one of them breaks the benchmark without failing
any library test.  These checks load the tracer's target list and the
package exports, and run each attribute probe on a tiny real call.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

import transfarm
from transfarm.cli import ingest_dataset, write_dataset
from transfarm.numerics import sym_eig
from transfarm.simlab import SimConfig, run_experiment
from transfarm.solver import LassoProblem, lasso_fit, scaled_lasso

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    for name in tracer.MODULES:
        importlib.import_module(name)
    missing = [
        f"{home}.{attr}"
        for _, home, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert missing == []


def test_package_exports_resolve():
    assert [name for name in transfarm.__all__ if not hasattr(transfarm, name)] == []


def test_tracer_probes_read_real_results(tmp_path):
    tracer = load_tracer()
    gen = np.random.default_rng(0)
    z = gen.standard_normal((12, 4))
    r = z[:, 0] + gen.standard_normal(12)

    a = z.T @ z
    eig = tracer._probe_sym_eig((a,), {}, sym_eig(a))
    assert eig == {"input": tracer.fingerprint(a)}

    fit = scaled_lasso(z, r)
    sl = tracer._probe_scaled_lasso((z, r), {}, fit)
    assert sl == {"alternations": fit.alternations, "input": tracer.fingerprint(z, r)}
    assert sl["alternations"] >= 1

    for offset in (None, np.full(4, 0.1)):
        problem = LassoProblem([(z, r)], 0.1, offset=offset)
        solution = lasso_fit(problem)
        attrs = tracer._probe_lasso_fit((), {"problem": problem}, solution)
        assert attrs == {
            "sweeps": solution.iterations,
            "p": 4,
            "kkt": solution.kkt_violation,
            "converged": True,
            "offset": offset is not None,
        }

    path = str(tmp_path / "d.csv")
    write_dataset(path, z, r)
    result = ingest_dataset(path)
    assert tracer._probe_ingest((path,), {}, result) == {"bytes": os.path.getsize(path)}


def test_tracer_files_every_transfer_solve_under_its_stage():
    # The tracer files a lasso under detection or the two-step fit by its
    # parent span, so a solve reached around those public functions would
    # silently drop out of the transfer.* per-layer metrics.
    tracer = load_tracer()
    gen = np.random.default_rng(1)
    beta = np.zeros(8)
    beta[:2] = 1.0

    def dataset(n):
        x = gen.standard_normal((n, 8))
        return transfarm.Dataset(x=x, y=x @ beta + gen.standard_normal(n))

    target, sources = dataset(30), [dataset(24), dataset(24)]
    config = transfarm.TransferConfig(rank=0, seed=2)
    with tracer.Tracer() as t:
        transfarm.detect_and_fit(target, sources, config)
    parents = [
        t.spans[s.parent].name if s.parent >= 0 else None
        for s in t.spans
        if s.name == "solver.lasso_fit"
    ]
    assert sorted(parents) == sorted(
        ["transfer.detect_sources"] * (config.folds * (len(sources) + 1))
        + ["transfer.two_step_fit"] * 2
    )


def test_tracer_files_every_simlab_solve_under_its_stage():
    # desk-sweep and paper-cell read their transfer.* metrics from the
    # solves that simlab's replications make, not from detect_and_fit
    tracer = load_tracer()
    config = SimConfig(n0=40, nk=40, p=20, k_sources=3, a_size=1, replications=1)
    with tracer.Tracer() as t:
        run_experiment(config)
    parents = {
        t.spans[s.parent].name if s.parent >= 0 else None
        for s in t.spans
        if s.name == "solver.lasso_fit"
    }
    assert parents == {"transfer.detect_sources", "transfer.two_step_fit"}
