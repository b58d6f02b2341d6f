"""Monte-Carlo experiment machinery for the transfer estimators.

The generator draws one target and K source datasets from a common
two-factor design: the target idiosyncratic covariance is Toeplitz, each
source covariance adds an independent rank-one spike, informative
sources sit within an l1 ball of the target coefficient, and the rest
get twice the contrast plus larger factor-coefficient jitter.
run_experiment fits a roster of estimators over independent
replications and collects coefficient-error metrics.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from transfarm.factor import FactorDecomposition
from transfarm.numerics import RngStream, correlated_normal, toeplitz_correlation
from transfarm.transfer import (
    MODE_FARM,
    MODE_LASSO,
    Dataset,
    TransferConfig,
    detect_and_fit,
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


@dataclass
class SimConfig:
    """Design of one Monte-Carlo cell.

    a_size is the number of informative sources; the other k_sources -
    a_size sources get contrast adversarial_mult * eta / p per coordinate
    and gamma_jitter_adversarial on the factor coefficients.  fix_rank
    passes the true rank to every estimator instead of the
    eigenvalue-ratio choice.  redraw_informative redraws the informative
    subset each replication; otherwise one subset is drawn per
    experiment.
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
    gamma0: tuple[float, ...] = (0.5, 0.5)
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
    threshold: str = TransferConfig.threshold
    eps0: float = TransferConfig.eps0
    fix_rank: bool = False
    max_rank: int | None = None
    redraw_informative: bool = True

    def __post_init__(self):
        for name in ("n0", "nk"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2, got {getattr(self, name)}")
        if self.s > self.p:
            raise ValueError(f"s = {self.s} exceeds p = {self.p}")
        if not 0 <= self.a_size <= self.k_sources:
            raise ValueError(
                f"a_size must lie in [0, {self.k_sources}], got {self.a_size}"
            )
        if len(self.gamma0) != self.rank:
            raise ValueError(
                f"gamma0 has length {len(self.gamma0)}, expected rank {self.rank}"
            )
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if not self.roster:
            raise ValueError("roster must name at least one estimator")
        unknown = [name for name in self.roster if name not in ALL_ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators: {unknown}; choose from {ALL_ESTIMATORS}")
        # the pipeline checks its own knobs: build the config a replication uses
        _transfer_config(self, MODE_FARM, 0)


@dataclass
class SimTruth:
    """Ground truth for one replication, target stored at index 0."""

    beta: np.ndarray
    gamma: np.ndarray
    informative: tuple[int, ...]
    source_coefs: list[np.ndarray]
    source_gammas: list[np.ndarray]
    factors: list[np.ndarray] = field(repr=False, default_factory=list)
    loadings: list[np.ndarray] = field(repr=False, default_factory=list)
    idiosyncratic: list[np.ndarray] = field(repr=False, default_factory=list)


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


def generate(
    config: SimConfig,
    rng: RngStream,
    informative: tuple[int, ...] | None = None,
) -> tuple[Dataset, list[Dataset], SimTruth]:
    """Draw one replication of the design.

    informative overrides the random informative subset (1-based source
    roles); by default a_size sources are chosen uniformly without
    replacement from substream (1, 0).
    """
    p, r = config.p, config.rank
    if informative is None:
        gen = rng.generator(1, 0)
        pick = gen.choice(config.k_sources, size=config.a_size, replace=False)
        informative = tuple(sorted(int(i) + 1 for i in pick))
    else:
        informative = tuple(sorted(int(i) for i in informative))
        if len(informative) != config.a_size:
            raise ValueError(
                f"informative has {len(informative)} entries, expected {config.a_size}"
            )
        if informative and (informative[0] < 1 or informative[-1] > config.k_sources):
            raise ValueError(f"informative roles must lie in 1..{config.k_sources}")

    beta = np.zeros(p)
    beta[: config.s] = config.signal
    gamma = np.asarray(config.gamma0, dtype=np.float64)
    cov0 = toeplitz_correlation(config.rho, p)

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
            cov = cov0
            coef, gam = beta, gamma
        else:
            spike = config.cov_spike * ds_stream.generator(3).standard_normal(p)
            cov = cov0 + np.outer(spike, spike)
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
        idio = correlated_normal(ds_stream.substream(2), n, cov)
        noise = ds_stream.generator(4).standard_normal(n)
        x = factors @ loadings.T + idio
        y = idio @ coef + factors @ gam + noise
        datasets.append(Dataset(x=x, y=y, role=k))
        truth.factors.append(factors)
        truth.loadings.append(loadings)
        truth.idiosyncratic.append(idio)
    return datasets[0], datasets[1:], truth


@dataclass
class RotationDiagnostic:
    """Distance of an estimated factor block from the truth up to rotation."""

    h_orthogonality: float
    factor_error: float
    rank_miss: bool


def rotation_diagnostic(
    decomp: FactorDecomposition,
    true_factors: np.ndarray,
    true_loadings: np.ndarray,
) -> RotationDiagnostic:
    """Compare estimated factors with truth through the implied rotation.

    The rotation is h = v^(-1) fhat.T f b.T b / n with v the leading
    scaled Gram eigenvalues.  A rank mismatch is reported, not raised.
    """
    r_true = true_factors.shape[1]
    if decomp.rank != r_true:
        return RotationDiagnostic(math.nan, math.nan, True)
    n = decomp.n
    v = decomp.gram_eigenvalues[: decomp.rank] / n
    h = (decomp.factors.T @ true_factors) @ (true_loadings.T @ true_loadings) / n
    h = h / v[:, None]
    gram_gap = float(np.linalg.norm(h.T @ h - np.eye(r_true), 2))
    factor_gap = float(np.max(np.abs(decomp.factors - true_factors @ h.T)))
    return RotationDiagnostic(gram_gap, factor_gap, False)


def _detection_seed(base_seed: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(3, rep))
    return int(ss.generate_state(1)[0])


def _transfer_config(config: SimConfig, mode: str, rep: int) -> TransferConfig:
    return TransferConfig(
        lambda_c=config.lambda_c,
        rank=config.rank if config.fix_rank else None,
        max_rank=config.max_rank,
        mode=mode,
        folds=config.folds,
        threshold=config.threshold,
        eps0=config.eps0,
        seed=_detection_seed(config.base_seed, rep),
    )


def _run_replication(config: SimConfig, rep: int, informative):
    rng = RngStream(config.base_seed, 0, (0, rep))
    target, sources, truth = generate(config, rng, informative)
    all_sources = tuple(range(1, config.k_sources + 1))
    rows: list[SimRow] = []
    failures: list[tuple[int, str, str]] = []
    for name in config.roster:
        mode = MODE_FARM if name in FARM_ESTIMATORS else MODE_LASSO
        cfg = _transfer_config(config, mode, rep)
        start = time.perf_counter()
        try:
            if name in ("only-FARM", "only-Lasso"):
                fit = two_step_fit(target, sources, (), cfg)
                selected = None
            elif name in ("Oracle-Trans-FARM", "Oracle-Trans-Lasso"):
                fit = two_step_fit(target, sources, truth.informative, cfg)
                selected = None
            elif name in ("Pooled-Trans-FARM", "Pooled-Trans-Lasso"):
                fit = two_step_fit(target, sources, all_sources, cfg)
                selected = None
            else:  # Trans-FARM / Trans-Lasso
                fit, report = detect_and_fit(target, sources, cfg)
                selected = report.selected
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
    return rep, rows, truth.informative, failures


def run_experiment(config: SimConfig, threads: int = 1) -> SimResult:
    """Fit the roster over independent replications.

    Replications are pure functions of (config, replication index), so
    results are identical for any thread count; rows come back sorted by
    replication then roster order.  At most one worker process runs per
    replication, and a single worker means no pool at all.  More than
    FAILURE_BUDGET of estimator runs failing aborts with the recorded
    messages.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    informative = None
    if not config.redraw_informative:
        gen = RngStream(config.base_seed, 0, (1,)).generator()
        pick = gen.choice(config.k_sources, size=config.a_size, replace=False)
        informative = tuple(sorted(int(i) + 1 for i in pick))

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

    outcomes.sort(key=lambda t: t[0])
    rows: list[SimRow] = []
    informative_sets: list[tuple[int, ...]] = []
    failures: list[tuple[int, str, str]] = []
    for _, rep_rows, rep_informative, rep_failures in outcomes:
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
