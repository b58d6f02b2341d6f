"""Acceptance gate: one test and one printed verdict line per criterion.

Every test prints 'CRITERION n: PASS - detail' (or FAIL) so a plain
`pytest -v -s tests/test_acceptance.py` reads as a checklist. Budgeted
suites time themselves against their wall-clock ceilings. Bounds are
frozen; a red line here is a finding, not a tuning knob.
"""

import math
import os
import time

import numpy as np
import pytest

from _oracles import ols, split_lasso
from conftest import ACCEPTANCE_LINES
from transfarm.cli import main, write_dataset
from transfarm.factor import decompose
from transfarm.inference import full_inference, simultaneous_cis
from transfarm.numerics import RngStream
from transfarm.simlab import ALL_ESTIMATORS, SimConfig, generate, run_experiment
from transfarm.solver import (
    LassoProblem,
    lasso_fit,
    nodewise_precision,
    penalty_level,
    scaled_lasso,
)
from transfarm.transfer import Dataset, TransferConfig, two_step_fit

A_GRID = (0, 2, 4, 6)
FARM_LASSO_PAIRS = (
    ("only-FARM", "only-Lasso"),
    ("Trans-FARM", "Trans-Lasso"),
    ("Oracle-Trans-FARM", "Oracle-Trans-Lasso"),
    ("Pooled-Trans-FARM", "Pooled-Trans-Lasso"),
)


def _report(num: int, ok: bool, detail: str):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def desk_sweep():
    """Desk-scale benchmark sweep shared by the first two criteria."""
    start = time.perf_counter()
    results = {}
    for a in A_GRID:
        cfg = SimConfig(
            n0=150, nk=150, p=200, s=10, k_sources=6, a_size=a, rank=2,
            eta=5.0, replications=30, base_seed=2024, roster=ALL_ESTIMATORS,
        )
        results[a] = run_experiment(cfg)
    return results, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criterion 1: benchmark ordering at desk scale
# ---------------------------------------------------------------------------


def test_criterion_1_benchmark_ordering(desk_sweep):
    results, elapsed = desk_sweep
    agg = {a: results[a].aggregates() for a in A_GRID}
    problems = []

    oracle = [agg[a]["Oracle-Trans-FARM"]["l2_mean"] for a in A_GRID]
    ses = [agg[a]["Oracle-Trans-FARM"]["l2_stderr"] for a in A_GRID]
    inversions = []
    for i in range(len(A_GRID) - 1):
        if oracle[i + 1] > oracle[i]:
            gap = oracle[i + 1] - oracle[i]
            inversions.append(gap <= math.hypot(ses[i], ses[i + 1]))
    if len(inversions) > 1 or not all(inversions):
        problems.append(f"oracle error not monotone: {np.round(oracle, 4).tolist()}")

    top = agg[6]["Oracle-Trans-FARM"]["l2_mean"]
    solo = agg[6]["only-FARM"]["l2_mean"]
    if top > 0.8 * solo:
        problems.append(f"full-set gain too small: {top:.4f} > 0.8 * {solo:.4f}")

    for a in A_GRID:
        for farm, lasso in FARM_LASSO_PAIRS:
            if agg[a][farm]["l2_mean"] > agg[a][lasso]["l2_mean"]:
                problems.append(f"a={a}: {farm} worse than {lasso}")

    if elapsed > 600.0:
        problems.append(f"sweep took {elapsed:.0f}s, budget 600s")

    detail = (
        f"oracle l2 means {np.round(oracle, 4).tolist()} over |A|={list(A_GRID)}, "
        f"full-set 0.8x check {top:.3f} <= {0.8 * solo:.3f}, "
        f"factor variant beats lasso twin in all {len(A_GRID) * 4} cells, "
        f"{elapsed:.0f}s"
    )
    _report(1, not problems, "; ".join(problems) or detail)


# ---------------------------------------------------------------------------
# criterion 2: adaptive transfer tracks the oracle; detection recovery
# ---------------------------------------------------------------------------


def test_criterion_2_adaptive_transfer(desk_sweep):
    results, _ = desk_sweep
    problems = []

    ratios = {}
    for a in (2, 4, 6):
        agg = results[a].aggregates()
        ratios[a] = agg["Trans-FARM"]["l2_mean"] / agg["Oracle-Trans-FARM"]["l2_mean"]
        if ratios[a] > 1.1:
            problems.append(f"a={a}: adaptive/oracle ratio {ratios[a]:.3f} > 1.1")

    recovery = {}
    for a in A_GRID:
        res = results[a]
        sel = {r.replication: r.selected for r in res.rows if r.estimator == "Trans-FARM"}
        hits = sum(
            1 for rep, truth in enumerate(res.informative_sets) if sel.get(rep) == truth
        )
        recovery[a] = hits / len(res.informative_sets)
        if recovery[a] < 0.9:
            problems.append(f"a={a}: exact recovery rate {recovery[a]:.2f} < 0.9")

    detail = (
        f"adaptive/oracle ratios {({a: round(r, 3) for a, r in ratios.items()})}, "
        f"exact recovery rates {({a: round(r, 2) for a, r in recovery.items()})}"
    )
    _report(2, not problems, "; ".join(problems) + f" [{detail}]" if problems else detail)


# ---------------------------------------------------------------------------
# criterion 3: rank selection and decomposition invariants
# ---------------------------------------------------------------------------


def test_criterion_3_rank_selection():
    cfg = SimConfig(
        n0=150, nk=10, p=200, s=10, k_sources=0, a_size=0, rank=2, eta=5.0
    )
    hits = 0
    worst = 0.0
    for rep in range(100):
        target, _, _ = generate(cfg, RngStream(909, 0, (0, rep)))
        d = decompose(target.x)
        hits += d.rank == 2
        n = d.n
        recon = np.max(np.abs(target.x - (d.factors @ d.loadings.T + d.idiosyncratic)))
        ortho = np.max(np.abs(d.factors.T @ d.factors / n - np.eye(d.rank)))
        cross = np.max(np.abs(d.idiosyncratic.T @ d.factors / n)) if d.rank else 0.0
        worst = max(worst, recon, ortho, cross)
    ok = hits >= 95 and worst <= 1e-8
    _report(3, ok, f"rank 2 picked in {hits}/100 replications, worst invariant gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: solver agreement with independent references
# ---------------------------------------------------------------------------


def test_criterion_4_solver_references():
    problems = []
    g = np.random.default_rng(404)

    x = g.standard_normal((40, 3))
    y = x @ np.array([1.0, 0.5, 0.0]) + 0.1 * g.standard_normal(40)
    lam = 0.08
    mine = lasso_fit(LassoProblem([(x, y)], lam=lam)).coef
    ref = split_lasso([(x, y)], lam)
    gap_pg = float(np.max(np.abs(mine - ref)))
    if gap_pg > 1e-5:
        problems.append(f"projected-gradient gap {gap_pg:.2e} > 1e-5")

    x2 = g.standard_normal((60, 4))
    y2 = x2 @ np.array([0.5, -1.0, 0.0, 2.0]) + g.standard_normal(60)
    free = lasso_fit(LassoProblem([(x2, y2)], lam=0.0)).coef
    gap_ols = float(np.max(np.abs(free - ols(x2, y2))))
    if gap_ols > 1e-6:
        problems.append(f"unpenalized gap vs normal equations {gap_ols:.2e} > 1e-6")

    lam_max = float(np.max(np.abs(x2.T @ y2)) / 60)
    crushed = lasso_fit(LassoProblem([(x2, y2)], lam=lam_max * 1.0001)).coef
    if crushed.any():
        problems.append("full-shrinkage penalty left nonzero coordinates")

    u = g.standard_normal((200, 5))
    theta = nodewise_precision(u, lambda_node=0.0).theta
    exact = np.linalg.inv(u.T @ u / 200)
    gap_node = float(np.max(np.abs(theta - exact)))
    if gap_node > 1e-5:
        problems.append(f"nodewise lambda=0 gap vs inverse {gap_node:.2e} > 1e-5")

    detail = (
        f"projected-gradient {gap_pg:.1e}, normal equations {gap_ols:.1e}, "
        f"full shrinkage exact, nodewise inverse {gap_node:.1e}"
    )
    _report(4, not problems, "; ".join(problems) or detail)


# ---------------------------------------------------------------------------
# criterion 5: test calibration, power, simultaneous coverage
# ---------------------------------------------------------------------------


def _inference_study(tag, n0, p, s, signal, seed=77, reps=200, draws=300):
    cfg = SimConfig(
        n0=n0, nk=10, p=p, s=s, k_sources=0, a_size=0, rank=2, signal=signal, eta=5.0
    )
    tcfg = TransferConfig(seed=seed)
    rejects = 0
    covered = 0
    for rep in range(reps):
        target, _, truth = generate(cfg, RngStream(seed, 0, (tag, rep)))
        test, cis, _, _ = full_inference(
            target, [], tcfg, rng=RngStream(seed, 9, (tag, rep)),
            group=None, alpha=0.05, studentized=True, draws=draws,
        )
        rejects += bool(test.reject)
        truth_g = truth.beta[list(cis.group)]
        covered += bool(np.all((cis.lower <= truth_g) & (truth_g <= cis.upper)))
    return rejects / reps, covered / reps


def test_criterion_5_inference_calibration():
    start = time.perf_counter()
    problems = []

    size, _ = _inference_study(0, 150, 100, 10, 0.0)
    if not 0.02 <= size <= 0.10:
        problems.append(f"size {size:.3f} outside [0.02, 0.10]")
    power, _ = _inference_study(1, 150, 100, 10, 0.5)
    if power < 0.9:
        problems.append(f"power {power:.3f} < 0.9")
    _, coverage = _inference_study(2, 200, 50, 5, 0.5)
    if not 0.90 <= coverage <= 0.99:
        problems.append(f"simultaneous coverage {coverage:.3f} outside [0.90, 0.99]")

    # studentized half-widths must follow the closed form coordinatewise
    cfg = SimConfig(n0=200, nk=10, p=50, s=5, k_sources=0, a_size=0, rank=2, eta=5.0)
    target, _, _ = generate(cfg, RngStream(77, 0, (2, 0)))
    _, cis, _, _ = full_inference(
        target, [], TransferConfig(seed=77), rng=RngStream(77, 9, (2, 0)),
        group=None, alpha=0.05, studentized=True, draws=300,
    )
    tm = cis.theta.theta if hasattr(cis.theta, "theta") else cis.theta
    diag = np.diagonal(tm)[list(cis.group)]
    centers = cis.beta_tilde[list(cis.group)]
    half = np.sqrt(diag) * cis.quantile / math.sqrt(target.n)
    if not (np.array_equal(cis.lower, centers - half) and np.array_equal(cis.upper, centers + half)):
        problems.append("half-widths are not the closed form bitwise")
    widths = (cis.upper - cis.lower) / 2.0
    ratio_gap = float(np.max(np.abs(widths / widths[0] - np.sqrt(diag / diag[0]))))
    if ratio_gap > 1e-12:
        problems.append(f"half-width ratios deviate from sqrt precision ratios by {ratio_gap:.2e}")

    elapsed = time.perf_counter() - start
    if elapsed > 900.0:
        problems.append(f"inference studies took {elapsed:.0f}s, budget 900s")

    detail = (
        f"size {size:.3f} in [0.02, 0.10], power {power:.3f} >= 0.9, "
        f"coverage {coverage:.3f} in [0.90, 0.99], studentized widths exact, {elapsed:.0f}s"
    )
    _report(5, not problems, "; ".join(problems) or detail)


# ---------------------------------------------------------------------------
# criterion 6: command-line determinism
# ---------------------------------------------------------------------------


def _factor_csvs(tmp_path, seed=5, n=60, p=20, n_sources=2):
    rng = RngStream(seed, 9)
    beta = np.zeros(p)
    beta[:3] = 0.6
    paths = []
    for k in range(n_sources + 1):
        gen = rng.generator(k)
        loadings = gen.uniform(-1.0, 1.0, (p, 2))
        factors = gen.standard_normal((n, 2))
        u = gen.standard_normal((n, p))
        x = factors @ loadings.T + u
        y = u @ beta + factors @ np.array([0.5, 0.5]) + gen.standard_normal(n)
        path = str(tmp_path / f"d{k}.csv")
        write_dataset(path, x, y)
        paths.append(path)
    return paths


def _run_cli(args, out_dir, capsys, skip_seconds=False):
    rc = main(args + ["--out", str(out_dir)])
    assert rc == 0, f"command failed: {args}"
    stdout = capsys.readouterr().out
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if skip_seconds and name == "results.csv":
            lines = data.decode().splitlines()
            data = "\n".join(",".join(l.split(",")[:-1]) for l in lines).encode()
        blobs[name] = data
    return stdout, blobs


def test_criterion_6_cli_determinism(tmp_path, capsys):
    paths = _factor_csvs(tmp_path)
    data_args = [
        "--target", paths[0], "--source", paths[1], "--source", paths[2],
        "--seed", "13",
    ]
    sim_args = [
        "simulate", "--sim-n0", "40", "--sim-nk", "40", "--sim-p", "30",
        "--sim-s", "4", "--sim-k-sources", "2", "--sim-a-size", "0,1",
        "--sim-eta", "2.0", "--sim-replications", "4",
        "--sim-roster", "only-Lasso,Trans-FARM", "--seed", "13",
    ]
    commands = {
        "fit": ["fit"] + data_args,
        "detect": ["detect"] + data_args,
        "transfer": ["transfer"] + data_args,
        "infer": ["infer"] + data_args + ["--B", "120"],
        "simulate": sim_args + ["--threads", "1"],
    }
    problems = []
    for name, args in commands.items():
        skip = name == "simulate"
        first = _run_cli(args, tmp_path / f"{name}_a", capsys, skip_seconds=skip)
        second = _run_cli(args, tmp_path / f"{name}_b", capsys, skip_seconds=skip)
        if first != second:
            problems.append(f"{name}: repeated run differs")

    # the parallel path must agree with the serial one byte for byte
    serial = _run_cli(sim_args + ["--threads", "1"], tmp_path / "sim_t1", capsys, True)
    parallel = _run_cli(sim_args + ["--threads", "2"], tmp_path / "sim_t2", capsys, True)
    if serial != parallel:
        problems.append("simulate: threads=2 differs from threads=1")

    detail = "5 subcommands byte-stable across reruns; simulate parallel == serial"
    _report(6, not problems, "; ".join(problems) or detail)


# ---------------------------------------------------------------------------
# criterion 7: degenerate factor mode equals a plain pooled lasso
# ---------------------------------------------------------------------------


def test_criterion_7_plain_lasso_mode():
    rng = RngStream(707, 0)
    p = 40
    beta = np.zeros(p)
    beta[:5] = 0.8
    datasets = []
    for k, n in enumerate((100, 90, 80)):
        gen = rng.generator(k)
        x = gen.standard_normal((n, p))
        y = x @ beta + gen.standard_normal(n)
        datasets.append(Dataset(x=x, y=y))
    target, s1, s2 = datasets

    fit = two_step_fit(target, [s1, s2], (1, 2), TransferConfig(mode="lasso"))

    sigma = scaled_lasso(target.x, target.y).sigma
    lam_w = penalty_level(sigma, p, 100 + 90 + 80)
    pooled = lasso_fit(
        LassoProblem([(target.x, target.y), (s1.x, s1.y), (s2.x, s2.y)], lam=lam_w)
    )
    lam_d = penalty_level(sigma, p, 100)
    correction = lasso_fit(
        LassoProblem([(target.x, target.y)], lam=lam_d, offset=pooled.coef)
    )
    gap = float(
        max(
            np.max(np.abs(fit.pooled_coef - pooled.coef)),
            np.max(np.abs(fit.coef - (pooled.coef + correction.coef))),
        )
    )
    ranks = {d.rank for d in fit.decompositions.values()}
    ok = gap <= 1e-10 and ranks == {0}
    _report(7, ok, f"max gap to raw pooled-lasso route {gap:.2e}, all ranks {sorted(ranks)}")
