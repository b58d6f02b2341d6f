"""Debiased estimation and multiplier-bootstrap inference on the target.

The penalized estimate is corrected by a one-step Newton update built
from a nodewise precision estimate, and the distribution of the
max-norm error is approximated by Gaussian-multiplier bootstrap draws.
Quantiles of those draws give an adequacy test for the idiosyncratic
coefficients and simultaneous confidence intervals, plain or
studentized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from transfarm.numerics import (
    RngStream, check_count, check_fraction, check_indices, check_matrix, check_nonnegative,
    check_vector,
)
from transfarm.solver import nodewise_precision
from transfarm.transfer import (
    Dataset,
    DetectionReport,
    TransferConfig,
    TransferFit,
    detect_and_fit,
    two_step_fit,
)


@dataclass
class InferenceResult:
    """Debiased estimate with bootstrap quantile, test, and intervals.

    lower/upper are aligned with group (0-based coordinate indices).
    reject is None when the result carries intervals only.  The
    studentized half-width obeys
    half = sqrt(theta_diag[i]) * quantile / sqrt(n) coordinatewise.
    Inputs are not echoed; full_inference's noise scale is its fit's
    TransferFit.sigma_hat.
    """

    beta_tilde: np.ndarray
    group: tuple[int, ...]
    quantile: float
    statistic: float
    reject: bool | None
    lower: np.ndarray
    upper: np.ndarray
    theta: np.ndarray = field(repr=False, default=None)


def debias(
    coef: np.ndarray,
    u: np.ndarray,
    y_tilde: np.ndarray,
    theta: np.ndarray,
) -> np.ndarray:
    """One-step correction coef + theta @ u.T @ (y_tilde - u @ coef) / n."""
    coef = check_vector(coef, "coef")
    u = check_matrix(u, "u")
    y_tilde = check_vector(y_tilde, "y_tilde")
    theta = check_matrix(theta, "theta")
    n, p = u.shape
    if coef.size != p or y_tilde.size != n or theta.shape != (p, p):
        raise ValueError(
            f"shape mismatch: u {u.shape}, coef {coef.size}, y {y_tilde.size}, theta {theta.shape}"
        )
    resid = y_tilde - u @ coef
    return coef + theta @ (u.T @ resid) / n


def _check_group(group, p: int) -> tuple[int, ...]:
    if group is None:
        return tuple(range(p))
    out = check_indices(group, "group", 0, p - 1)
    if not out:
        raise ValueError("group must be nonempty")
    return out


def multiplier_bootstrap(
    u: np.ndarray,
    theta: np.ndarray,
    sigma_hat: float,
    rng: RngStream,
    draws: int = 500,
    group: tuple[int, ...] | None = None,
    studentized: bool = False,
) -> np.ndarray:
    """Max-norm Gaussian-multiplier draws over the group coordinates.

    Draw l is max_i |sigma_hat * (theta u.T e_l)_i| / sqrt(n) with e_l a
    standard normal vector from substream l, rows optionally scaled by
    1 / sqrt(theta_ii) first.  Distinct substreams make the draws
    independent of evaluation order.  draws must be an integer of at
    least 1.
    """
    draws = check_count(draws, "draws", 1)
    u = check_matrix(u, "u")
    theta = check_matrix(theta, "theta")
    n, p = u.shape
    if theta.shape != (p, p):
        raise ValueError(f"theta has shape {theta.shape}, expected ({p}, {p})")
    check_nonnegative(sigma_hat, "sigma_hat")
    g = _check_group(group, p)
    rows = theta[list(g), :]
    if studentized:
        diag = np.diagonal(theta)[list(g)]
        if np.any(diag <= 0):
            raise ValueError("studentized draws need positive theta diagonal")
        rows = rows / np.sqrt(diag)[:, None]
    core = (rows @ u.T) / math.sqrt(n)
    mult = np.empty((n, draws))
    for l in range(draws):
        mult[:, l] = rng.generator(l).standard_normal(n)
    # sigma multiplies last so rescaling the noise level rescales every
    # draw with a single rounding
    return sigma_hat * np.max(np.abs(core @ mult), axis=0)


def empirical_quantile(draws: np.ndarray, level: float) -> float:
    """Smallest draw with empirical CDF at or above level (ceiling order
    statistic)."""
    draws = check_vector(draws, "draws")
    if draws.size == 0:
        raise ValueError("draws must be nonempty")
    check_fraction(level, "level")
    b = draws.size
    k = math.ceil(b * level)
    # float rounding in b * level can overshoot the true ceiling by one
    if k > 1 and (k - 1) / b >= level:
        k -= 1
    k = min(max(k, 1), b)
    return float(np.sort(draws)[k - 1])


def adequacy_test(
    coef: np.ndarray,
    u: np.ndarray,
    y_tilde: np.ndarray,
    theta: np.ndarray,
    sigma_hat: float,
    rng: RngStream,
    alpha: float = 0.05,
    draws: int = 500,
) -> InferenceResult:
    """Test whether the idiosyncratic coefficients are all zero.

    Rejects when sqrt(n) times the max-norm of the debiased estimate
    exceeds the bootstrap 1 - alpha quantile.  The result is the plain
    simultaneous intervals over all coordinates with the verdict filled in.
    """
    res = simultaneous_cis(
        coef, u, y_tilde, theta, sigma_hat, rng, group=None, alpha=alpha,
        studentized=False, draws=draws,
    )
    res.reject = bool(res.statistic > res.quantile)
    return res


def simultaneous_cis(
    coef: np.ndarray,
    u: np.ndarray,
    y_tilde: np.ndarray,
    theta: np.ndarray,
    sigma_hat: float,
    rng: RngStream,
    group: tuple[int, ...] | None = None,
    alpha: float = 0.05,
    studentized: bool = True,
    draws: int = 500,
) -> InferenceResult:
    """Simultaneous confidence intervals over a coordinate group.

    Plain intervals share one half-width quantile / sqrt(n); studentized
    intervals scale it by sqrt(theta_ii) coordinatewise.
    """
    check_fraction(alpha, "alpha")
    u = check_matrix(u, "u")
    theta = check_matrix(theta, "theta")
    n, p = u.shape
    g = _check_group(group, p)
    beta_tilde = debias(coef, u, y_tilde, theta)
    sample = multiplier_bootstrap(
        u, theta, sigma_hat, rng, draws=draws, group=g, studentized=studentized
    )
    crit = empirical_quantile(sample, 1.0 - alpha)
    centers = beta_tilde[list(g)]
    if studentized:
        diag = np.diagonal(theta)[list(g)]
        half = np.sqrt(diag) * crit / math.sqrt(n)
    else:
        half = np.full(len(g), crit / math.sqrt(n))
    statistic = math.sqrt(n) * float(np.max(np.abs(beta_tilde)))
    return InferenceResult(
        beta_tilde=beta_tilde,
        group=g,
        quantile=crit,
        statistic=statistic,
        reject=None,
        lower=centers - half,
        upper=centers + half,
        theta=theta,
    )


def full_inference(
    target: Dataset,
    sources: list[Dataset],
    config: TransferConfig | None = None,
    rng: RngStream | None = None,
    group: tuple[int, ...] | None = None,
    alpha: float = 0.05,
    studentized: bool = True,
    draws: int = 500,
) -> tuple[InferenceResult, InferenceResult, TransferFit, DetectionReport | None]:
    """Detection, fitting, and both inference outputs in one pass.

    Returns (adequacy result, interval result, fit, detection report).
    The same multiplier substreams feed the test and the intervals, so
    both views come from one bootstrap sample.  draws, alpha and group
    are checked before any fit.
    """
    draws = check_count(draws, "draws", 1)
    check_fraction(alpha, "alpha")
    _check_group(group, target.p)
    config = config or TransferConfig()
    rng = rng or RngStream(config.seed)
    if sources:
        fit, report = detect_and_fit(target, sources, config)
    else:
        fit = two_step_fit(target, sources, (), config)
        report = None
    u0, y0 = target.split(config).block
    theta = nodewise_precision(u0, lambda_c=config.lambda_c).theta
    boot = rng.substream(17)
    test = adequacy_test(
        fit.coef, u0, y0, theta, fit.sigma_hat, boot, alpha=alpha, draws=draws
    )
    cis = simultaneous_cis(
        fit.coef,
        u0,
        y0,
        theta,
        fit.sigma_hat,
        boot,
        group=group,
        alpha=alpha,
        studentized=studentized,
        draws=draws,
    )
    return test, cis, fit, report
