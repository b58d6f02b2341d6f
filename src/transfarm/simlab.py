"""Monte-Carlo experiment machinery for the transfer estimators.

The generator draws one target and K source datasets from a common
two-factor design: the target idiosyncratic covariance is Toeplitz
(AR(1)), each source covariance adds an independent rank-one spike,
informative sources sit within an l1 ball of the target coefficient, and
the rest get twice the contrast plus larger factor-coefficient jitter.
The idiosyncratic rows come from numerics.spiked_ar1_normal, which
applies the Cholesky factor L = L_T·L_A of that covariance in O(n·p).
run_experiment fits a roster of estimators over independent
replications and collects coefficient-error metrics.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from transfarm.numerics import (
    RngStream,
    check_count,
    check_fields,
    check_indices,
    spiked_ar1_normal,
)
from transfarm.transfer import (
    MODE_FARM,
    MODE_LASSO,
    Dataset,
    TransferConfig,
    TransferFit,
    check_fold_rows,
    detect_sources,
    two_step_fit,
)

FARM_ESTIMATORS = (
    "only-FARM",
    "Trans-FARM",
    "Oracle-Trans-FARM",
    "Pooled-Trans-FARM",
)
LASSO_ESTIMATORS = (
    "only-Lasso",
    "Trans-Lasso",
    "Oracle-Trans-Lasso",
    "Pooled-Trans-Lasso",
)
ALL_ESTIMATORS = FARM_ESTIMATORS + LASSO_ESTIMATORS

# Fraction of failed estimator runs that aborts the whole experiment.
FAILURE_BUDGET = 0.2


@dataclass(frozen=True)
class SimConfig:
    """Design of one Monte-Carlo cell.

    a_size is the number of informative sources; the other k_sources -
    a_size sources get contrast adversarial_mult * eta / p per coordinate
    and gamma_jitter_adversarial on the factor coefficients.  fix_rank
    passes the true rank to every estimator instead of the
    eigenvalue-ratio choice.  redraw_informative redraws the informative
    subset each replication; otherwise one subset is drawn per
    experiment.  gamma0 = None stays None and is read as 0.5 per
    factor, (0.5,) * rank, so a variant at another rank keeps the
    default; an explicit gamma0 must have one entry per factor.  eps0 is
    TransferConfig's detection slack (None for the "2L0" rule).  Fields
    are checked at construction and cannot be assigned after it;
    `dataclasses.replace` makes a checked variant.
    """

    n0: int = 300
    nk: int = 300
    p: int = 500
    s: int = 20
    k_sources: int = 10
    a_size: int = 5
    eta: float = 5.0
    rank: int = 2
    signal: float = 0.5
    gamma0: tuple[float, ...] | None = None
    gamma_jitter_informative: float = 0.1
    gamma_jitter_adversarial: float = 0.5
    adversarial_mult: float = 2.0
    rho: float = 0.5
    cov_spike: float = 0.3
    loading_width: float = 1.0
    replications: int = 30
    base_seed: int = 0
    roster: tuple[str, ...] = ALL_ESTIMATORS
    lambda_c: float = TransferConfig.lambda_c
    folds: int = TransferConfig.folds
    eps0: float | None = TransferConfig.eps0
    fix_rank: bool = False
    redraw_informative: bool = True

    def __post_init__(self):
        check_fields(self, {"n0": 2, "nk": 2, "p": 1, "s": 0, "k_sources": 0, "rank": 0,
                            "replications": 1, "base_seed": 0})
        if not 0 <= self.rho < 1:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.s > self.p:
            raise ValueError(f"s = {self.s} exceeds p = {self.p}")
        if not 0 <= self.a_size <= self.k_sources:
            raise ValueError(
                f"a_size must lie in [0, {self.k_sources}], got {self.a_size}"
            )
        if self.gamma0 is not None and len(self.gamma0) != self.rank:
            raise ValueError(
                f"gamma0 has length {len(self.gamma0)}, expected rank {self.rank}"
            )
        if not self.roster:
            raise ValueError("roster must name at least one estimator")
        unknown = [name for name in self.roster if name not in ALL_ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators: {unknown}; choose from {ALL_ESTIMATORS}")
        twice = sorted({name for name in self.roster if self.roster.count(name) > 1})
        if twice:
            raise ValueError(f"roster names {twice} more than once")
        # the pipeline checks its own knobs: build the config a replication uses
        _transfer_config(self, MODE_FARM, 0)
        if {"Trans-FARM", "Trans-Lasso"} & set(self.roster):
            check_fold_rows(self.n0, self.folds)


@dataclass
class SimTruth:
    """Ground truth for one replication; source_coefs[k - 1] and
    source_gammas[k - 1] belong to source k."""

    beta: np.ndarray
    gamma: np.ndarray
    informative: tuple[int, ...]
    source_coefs: list[np.ndarray]
    source_gammas: list[np.ndarray]


@dataclass
class SimRow:
    estimator: str
    replication: int
    l1_error: float
    l2_error: float
    seconds: float
    selected: tuple[int, ...] | None


@dataclass
class SimResult:
    config: SimConfig
    rows: list[SimRow]
    informative_sets: list[tuple[int, ...]]
    failures: list[tuple[int, str, str]]

    def aggregates(self) -> dict[str, dict[str, float]]:
        """Per-estimator mean and standard error of both error metrics."""
        out = {}
        for name in self.config.roster:
            l1 = np.array([r.l1_error for r in self.rows if r.estimator == name])
            l2 = np.array([r.l2_error for r in self.rows if r.estimator == name])
            if l1.size == 0:
                continue
            stderr = lambda v: float(np.std(v, ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
            out[name] = {
                "replications": int(l1.size),
                "l1_mean": float(l1.mean()),
                "l1_stderr": stderr(l1),
                "l2_mean": float(l2.mean()),
                "l2_stderr": stderr(l2),
            }
        return out


def l1_error(coef: np.ndarray, truth: np.ndarray) -> float:
    return float(np.abs(coef - truth).sum())


def l2_error(coef: np.ndarray, truth: np.ndarray) -> float:
    d = coef - truth
    return math.sqrt(float(d @ d))


def _rademacher(gen: np.random.Generator, size: int) -> np.ndarray:
    return gen.integers(0, 2, size) * 2.0 - 1.0


def _draw_informative(config: SimConfig, gen: np.random.Generator) -> tuple[int, ...]:
    """a_size of the 1-based source positions, uniformly without replacement, sorted."""
    pick = gen.choice(config.k_sources, size=config.a_size, replace=False)
    return tuple(sorted(int(i) + 1 for i in pick))


def generate(
    config: SimConfig,
    rng: RngStream,
    informative: tuple[int, ...] | None = None,
) -> tuple[Dataset, list[Dataset], SimTruth]:
    """Draw one replication of the design.

    Each dataset's idiosyncratic rows are numerics.spiked_ar1_normal
    draws, O(n·p) each: the Cholesky factor L = L_T·L_A of the AR(1)
    correlation plus the dataset's spike (zero for the target), applied
    by recursion.

    informative overrides the random informative subset (1-based source
    positions, a repeat counted once); by default a_size sources are
    chosen uniformly without replacement from substream (1, 0).
    """
    p, r = config.p, config.rank
    if informative is None:
        informative = _draw_informative(config, rng.generator(1, 0))
    else:
        informative = tuple(sorted(set(check_indices(informative, "informative"))))
        if len(informative) != config.a_size:
            raise ValueError(
                f"informative has {len(informative)} entries, expected {config.a_size}"
            )
        if informative and (informative[0] < 1 or informative[-1] > config.k_sources):
            raise ValueError(f"informative sources must lie in 1..{config.k_sources}")

    beta = np.zeros(p)
    beta[: config.s] = config.signal
    gamma0 = (0.5,) * r if config.gamma0 is None else config.gamma0
    gamma = np.asarray(gamma0, dtype=np.float64)

    datasets: list[Dataset] = []
    truth = SimTruth(
        beta=beta,
        gamma=gamma,
        informative=informative,
        source_coefs=[],
        source_gammas=[],
    )
    for k in range(config.k_sources + 1):
        ds_stream = rng.substream(0, k)
        n = config.n0 if k == 0 else config.nk
        if k == 0:
            spike = np.zeros(p)
            coef, gam = beta, gamma
        else:
            spike = config.cov_spike * ds_stream.generator(3).standard_normal(p)
            cgen = rng.generator(2, k)
            if k in informative:
                contrast = config.eta / p
                jitter = config.gamma_jitter_informative
            else:
                contrast = config.adversarial_mult * config.eta / p
                jitter = config.gamma_jitter_adversarial
            coef = beta + contrast * _rademacher(cgen, p)
            gam = gamma + jitter * _rademacher(cgen, r)
            truth.source_coefs.append(coef)
            truth.source_gammas.append(gam)
        loadings = ds_stream.generator(0).uniform(
            -config.loading_width, config.loading_width, (p, r)
        )
        factors = ds_stream.generator(1).standard_normal((n, r))
        idio = spiked_ar1_normal(ds_stream.substream(2), n, config.rho, spike)
        noise = ds_stream.generator(4).standard_normal(n)
        x = factors @ loadings.T + idio
        y = idio @ coef + factors @ gam + noise
        datasets.append(Dataset(x=x, y=y))
    return datasets[0], datasets[1:], truth


def _detection_seed(base_seed: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(3, rep))
    return int(ss.generate_state(1)[0])


def _transfer_config(config: SimConfig, mode: str, rep: int) -> TransferConfig:
    return TransferConfig(
        lambda_c=config.lambda_c,
        rank=config.rank if config.fix_rank else None,
        mode=mode,
        folds=config.folds,
        eps0=config.eps0,
        seed=_detection_seed(config.base_seed, rep),
    )


def _run_replication(config: SimConfig, rep: int, informative):
    """Fit the roster on one draw.  Estimators that pool the same sources
    in the same mode share one two-step fit: it is made by the first of
    them in roster order and held until the replication ends."""
    rng = RngStream(config.base_seed, 0, (0, rep))
    target, sources, truth = generate(config, rng, informative)
    all_sources = tuple(range(1, config.k_sources + 1))
    fits: dict[tuple[str, tuple[int, ...]], TransferFit] = {}
    rows: list[SimRow] = []
    failures: list[tuple[int, str, str]] = []
    for name in config.roster:
        mode = MODE_FARM if name in FARM_ESTIMATORS else MODE_LASSO
        cfg = _transfer_config(config, mode, rep)
        start = time.perf_counter()
        try:
            selected = None
            if name in ("only-FARM", "only-Lasso"):
                chosen = ()
            elif name in ("Oracle-Trans-FARM", "Oracle-Trans-Lasso"):
                chosen = truth.informative
            elif name in ("Pooled-Trans-FARM", "Pooled-Trans-Lasso"):
                chosen = all_sources
            else:  # Trans-FARM / Trans-Lasso
                selected = chosen = detect_sources(target, sources, cfg).selected
            key = (mode, chosen)  # every source set here is a sorted tuple
            if key not in fits:
                fits[key] = two_step_fit(target, sources, chosen, cfg)
            fit = fits[key]
        except Exception as exc:  # noqa: BLE001 - failures are data, not crashes
            failures.append((rep, name, f"{type(exc).__name__}: {exc}"))
            continue
        elapsed = time.perf_counter() - start
        rows.append(
            SimRow(
                estimator=name,
                replication=rep,
                l1_error=l1_error(fit.coef, truth.beta),
                l2_error=l2_error(fit.coef, truth.beta),
                seconds=elapsed,
                selected=selected,
            )
        )
    return rows, truth.informative, failures


def run_experiment(config: SimConfig, threads: int = 1) -> SimResult:
    """Fit the roster over independent replications.

    Replications are pure functions of (config, replication index), so
    results are identical for any `threads` at a fixed BLAS thread count
    (a different BLAS thread count can move the last bits); rows come
    back in replication order, as both the pool's map and the serial
    loop yield them, then roster order.  Within a replication
    each (mode, source set) is fitted once and shared by every estimator
    that pools that set.  At most one worker
    process runs per replication, and a single worker means no pool at
    all.  More than FAILURE_BUDGET of estimator runs failing aborts with
    the recorded messages.  threads must be an integer of at least 1.
    """
    threads = check_count(threads, "threads", 1)
    informative = None
    if not config.redraw_informative:
        informative = _draw_informative(config, RngStream(config.base_seed, 0, (1,)).generator())

    reps = range(config.replications)
    workers = min(threads, config.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(_run_replication, [config] * config.replications, reps,
                         [informative] * config.replications)
            )
    else:
        outcomes = [_run_replication(config, rep, informative) for rep in reps]

    rows: list[SimRow] = []
    informative_sets: list[tuple[int, ...]] = []
    failures: list[tuple[int, str, str]] = []
    for rep_rows, rep_informative, rep_failures in outcomes:
        rows.extend(rep_rows)
        informative_sets.append(rep_informative)
        failures.extend(rep_failures)
    total = config.replications * len(config.roster)
    if total and len(failures) / total > FAILURE_BUDGET:
        detail = "; ".join(f"rep {r} {n}: {m}" for r, n, m in failures[:5])
        raise RuntimeError(
            f"{len(failures)} of {total} estimator runs failed: {detail}"
        )
    return SimResult(
        config=config, rows=rows, informative_sets=informative_sets, failures=failures
    )
