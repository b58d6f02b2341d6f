"""Smoke test of the benchmark at toy sizes.

    python -m pytest -q perfbench/test_smoke.py

Runs every workload through run.py, untraced once and traced twice, and
checks that the printed metrics are exactly the ones BENCHMARK.json
names, that traced counts repeat exactly, and that the tracer leaves the
library as it found it.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".sweeps", ".coord_visits", ".alternations", ".unconverged", ".bytes")

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def run_bench(workload, trace, seed=1, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    untraced = last_json(run_bench(workload, 0))
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    traced = last_json(run_bench(workload, 1))
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected("per_layer")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (last_json(run_bench(workload, 1)) for _ in range(2))
    counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
    assert counts
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_reference_seed_is_checked():
    proc = run_bench("infer-cli", 0, seed=0)
    last_json(proc)
    assert "reference_checked=True" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_mismatch_is_a_failure():
    import workloads

    w = workloads.WORKLOADS["desk-sweep"]("toy")
    config = w.build(0, 0, "")
    result = w.run(config)
    ref = w.summarize(config, result)
    assert w.check(config, result, ref) == []
    name = next(iter(ref["l2"]))
    ref["l2"][name] *= 1.0 + 1e-4
    assert w.check(config, result, ref)


def test_tracer_restores_bindings_on_error():
    import tracer

    modules = [importlib.import_module(m) for m in tracer.MODULES]
    before = [dict(vars(m)) for m in modules]
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as t:
            assert t._patches
            raise RuntimeError("boom")
    for module, snapshot in zip(modules, before):
        for key, value in snapshot.items():
            assert vars(module)[key] is value, (module.__name__, key)
