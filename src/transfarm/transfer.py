"""Two-step transfer estimation and data-driven source detection.

The two-step fit pools the target with a set of source datasets for a
Lasso on the idiosyncratic parts (transferring step), then corrects the
pooled coefficient on the target alone with a second Lasso (debiasing
step).  Detection scores every source by cross-validated target loss and
keeps those within a threshold of the target-only fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from transfarm.factor import FactorDecomposition, decompose, residualize
from transfarm.numerics import ConvergenceError, RngStream, check_matrix, check_vector
from transfarm.solver import (
    DEFAULT_LAMBDA_C,
    DEFAULT_MAX_ITER,
    LassoProblem,
    lasso_fit,
    penalty_level,
    scaled_lasso,
)

MODE_FARM = "farm"
MODE_LASSO = "lasso"

# Threshold rules for detection: slack = 2 * target loss, or eps0 * sigma^2.
THRESHOLD_TWICE_TARGET = "2L0"
THRESHOLD_EPS0 = "eps0"


@dataclass
class DatasetSplit:
    """A dataset's factor split under one rank rule, with y_tilde = y
    purged of the factor span.  sigma, the scaled-Lasso noise scale of the
    split, is fitted on first use; only the target's is ever read.
    """

    decomposition: FactorDecomposition
    y_tilde: np.ndarray

    @property
    def block(self) -> tuple[np.ndarray, np.ndarray]:
        """The (idiosyncratic part, y_tilde) pair every Lasso here fits on."""
        return self.decomposition.idiosyncratic, self.y_tilde

    @cached_property
    def sigma(self) -> float:
        # One noise scale, estimated on the target alone, feeds every penalty.
        return scaled_lasso(*self.block).sigma


@dataclass
class Dataset:
    """One dataset; role 0 is the target, k >= 1 is source k.

    x and y must not be modified after construction: split() memoises
    the factor split of each rank rule on the dataset, so detection,
    fitting and inference all reuse one split per dataset and mode.
    """

    x: np.ndarray
    y: np.ndarray
    role: int = 0
    _splits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x = check_matrix(self.x, "x")
        self.y = check_vector(self.y, "y")
        if self.x.shape[0] != self.y.size:
            raise ValueError(
                f"x has {self.x.shape[0]} rows but y has {self.y.size}"
            )
        if self.x.shape[0] < 2:
            raise ValueError("dataset needs at least 2 rows")
        if self.role < 0:
            raise ValueError(f"role must be nonnegative, got {self.role}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def split(self, config: TransferConfig) -> DatasetSplit:
        """The factor split under config's rank rule, made on first use."""
        key = (config.effective_rank(), config.max_rank)
        if key not in self._splits:
            try:
                d = decompose(self.x, *key)
            except ValueError as exc:
                name = "target" if self.role == 0 else f"source {self.role}"
                raise ValueError(f"{name}: {exc}") from None
            y_tilde = residualize(self.y, d)
            # every fit of this dataset shares the split, so none may write to it
            for a in (d.factors, d.loadings, d.idiosyncratic, d.gram_eigenvalues, y_tilde):
                a.flags.writeable = False
            self._splits[key] = DatasetSplit(d, y_tilde)
        return self._splits[key]


@dataclass
class TransferConfig:
    """Knobs shared by the fitting and detection pipelines.

    mode "lasso" forces factor rank 0 everywhere, turning the pipeline
    into plain pooled-Lasso transfer on the raw design.  rank = None
    selects each dataset's rank by the eigenvalue-ratio rule.  threshold
    "2L0" adds twice the target-only loss to the detection cutoff;
    "eps0" adds eps0 * sigma_hat^2 instead.  Every Lasso runs at the
    solver's DEFAULT_TOL and DEFAULT_MAX_ITER.
    """

    lambda_c: float = DEFAULT_LAMBDA_C
    lambda_pooled: float | None = None
    lambda_correction: float | None = None
    rank: int | None = None
    max_rank: int | None = None
    mode: str = MODE_FARM
    folds: int = 3
    threshold: str = THRESHOLD_TWICE_TARGET
    eps0: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_FARM, MODE_LASSO):
            raise ValueError(f"mode must be '{MODE_FARM}' or '{MODE_LASSO}', got {self.mode!r}")
        if self.threshold not in (THRESHOLD_TWICE_TARGET, THRESHOLD_EPS0):
            raise ValueError(
                f"threshold must be '{THRESHOLD_TWICE_TARGET}' or '{THRESHOLD_EPS0}',"
                f" got {self.threshold!r}"
            )
        if self.threshold == THRESHOLD_EPS0 and self.eps0 < 0:
            raise ValueError(f"eps0 must be nonnegative, got {self.eps0}")
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")
        if self.lambda_c < 0:
            raise ValueError(f"lambda_c must be nonnegative, got {self.lambda_c}")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError(f"max_rank must be at least 1, got {self.max_rank}")

    def effective_rank(self) -> int | None:
        # Plain-lasso mode strips the factor step entirely.
        return 0 if self.mode == MODE_LASSO else self.rank


@dataclass
class TransferFit:
    """Result of the two-step estimator.

    coef = pooled_coef + correction_coef exactly; source_set is the
    sorted tuple of source roles that entered the pooled step.
    """

    pooled_coef: np.ndarray
    correction_coef: np.ndarray
    coef: np.ndarray
    source_set: tuple[int, ...]
    lambda_pooled: float
    lambda_correction: float
    sigma_hat: float
    mode: str
    decompositions: dict[int, FactorDecomposition] = field(repr=False, default_factory=dict)


@dataclass
class DetectionReport:
    """Per-source cross-validated losses and the resulting selection."""

    source_losses: np.ndarray
    target_loss: float
    threshold: float
    selected: tuple[int, ...]
    folds: int
    seed: int
    sigma_hat: float


def _check_sources(target: Dataset, sources: list[Dataset]):
    if target.role != 0:
        raise ValueError(f"target must have role 0, got {target.role}")
    for i, src in enumerate(sources):
        if src.role != i + 1:
            raise ValueError(
                f"sources must carry roles 1..K in order; position {i} has role {src.role}"
            )
        if src.p != target.p:
            raise ValueError(
                f"source {src.role} has {src.p} columns, target has {target.p}"
            )


def two_step_fit(
    target: Dataset,
    sources: list[Dataset],
    source_set: tuple[int, ...] | list[int] | set[int],
    config: TransferConfig | None = None,
) -> TransferFit:
    """Pooled Lasso over the target plus the given sources, then a
    target-only correction.

    The pooled step solves for one coefficient on the stacked
    idiosyncratic blocks; the correction step re-fits the target residual
    around that coefficient with its own penalty.  An empty source_set
    collapses to the single-dataset estimator.  Results do not depend on
    the order in which source_set is given.
    """
    config = config or TransferConfig()
    _check_sources(target, sources)
    chosen = sorted(set(int(k) for k in source_set))
    if chosen and (chosen[0] < 1 or chosen[-1] > len(sources)):
        raise ValueError(
            f"source_set must be within 1..{len(sources)}, got {chosen}"
        )

    splits = {k: (sources[k - 1] if k else target).split(config) for k in (0, *chosen)}
    sigma = splits[0].sigma

    blocks = [s.block for s in splits.values()]
    n_pooled = sum(z.shape[0] for z, _ in blocks)

    lam_pooled = config.lambda_pooled
    if lam_pooled is None:
        lam_pooled = penalty_level(sigma, target.p, n_pooled, config.lambda_c)
    pooled = lasso_fit(LassoProblem(blocks, lam_pooled))
    if not pooled.converged:
        raise ConvergenceError(
            f"transferring step did not converge in {DEFAULT_MAX_ITER} sweeps"
            f" (kkt violation {pooled.kkt_violation:.3e})"
        )

    lam_corr = config.lambda_correction
    if lam_corr is None:
        lam_corr = penalty_level(sigma, target.p, target.n, config.lambda_c)
    correction = lasso_fit(LassoProblem([splits[0].block], lam_corr, offset=pooled.coef))
    if not correction.converged:
        raise ConvergenceError(
            f"debiasing step did not converge in {DEFAULT_MAX_ITER} sweeps"
            f" (kkt violation {correction.kkt_violation:.3e})"
        )

    return TransferFit(
        pooled_coef=pooled.coef,
        correction_coef=correction.coef,
        coef=pooled.coef + correction.coef,
        source_set=tuple(chosen),
        lambda_pooled=lam_pooled,
        lambda_correction=lam_corr,
        sigma_hat=sigma,
        mode=config.mode,
        decompositions={k: s.decomposition for k, s in splits.items()},
    )


def fold_loss(
    coef: np.ndarray,
    u: np.ndarray,
    y_tilde: np.ndarray,
    fold: np.ndarray,
) -> float:
    """Mean squared residual of y_tilde - u @ coef over the fold rows."""
    coef = check_vector(coef, "coef")
    u = check_matrix(u, "u")
    y_tilde = check_vector(y_tilde, "y_tilde")
    fold = np.asarray(fold, dtype=np.int64)
    if fold.ndim != 1 or fold.size == 0:
        raise ValueError("fold must be a nonempty 1-d index array")
    if fold.min() < 0 or fold.max() >= u.shape[0]:
        raise ValueError(
            f"fold indices must lie in [0, {u.shape[0] - 1}]"
        )
    resid = y_tilde[fold] - u[fold] @ coef
    return float(resid @ resid) / fold.size


def _fold_split(n: int, folds: int, gen: np.random.Generator) -> list[np.ndarray]:
    # Shuffle once, then cut contiguous near-equal pieces; the remainder
    # goes one row at a time to the leading folds.
    order = gen.permutation(n)
    base, extra = divmod(n, folds)
    sizes = [base + (1 if i < extra else 0) for i in range(folds)]
    out = []
    at = 0
    for s in sizes:
        out.append(order[at : at + s])
        at += s
    return out


def detect_sources(
    target: Dataset,
    sources: list[Dataset],
    config: TransferConfig | None = None,
) -> DetectionReport:
    """Score each source by cross-validated target loss and select.

    Every dataset's factor split is taken up front.  For each fold,
    a target-only Lasso and one pooled Lasso per source are fit on the
    remaining folds, and both are scored on the held-out fold.  Source k
    is selected when its averaged loss is at most the target-only loss
    plus the threshold slack.
    """
    config = config or TransferConfig()
    _check_sources(target, sources)
    if target.n < 2 * config.folds:
        raise ValueError(
            f"need at least {2 * config.folds} target rows for {config.folds} folds,"
            f" got {target.n}"
        )

    u0, y0 = target.split(config).block
    sigma = target.split(config).sigma
    source_parts = [src.split(config).block for src in sources]

    gen = RngStream(config.seed).generator(0)
    split = _fold_split(target.n, config.folds, gen)
    p = target.p
    k_total = len(sources)
    loss_target = np.zeros(config.folds)
    loss_source = np.zeros((config.folds, k_total))
    for r, hold in enumerate(split):
        train = np.concatenate([split[i] for i in range(config.folds) if i != r])
        u_tr, y_tr = u0[train], y0[train]
        lam0 = penalty_level(sigma, p, train.size, config.lambda_c)
        base = lasso_fit(LassoProblem([(u_tr, y_tr)], lam0))
        if not base.converged:
            raise ConvergenceError(f"detection target fit on fold {r} did not converge")
        loss_target[r] = fold_loss(base.coef, u0, y0, hold)
        for k, (u_k, y_k) in enumerate(source_parts):
            lam_k = penalty_level(sigma, p, train.size + u_k.shape[0], config.lambda_c)
            pooled = lasso_fit(LassoProblem([(u_tr, y_tr), (u_k, y_k)], lam_k))
            if not pooled.converged:
                raise ConvergenceError(
                    f"detection pooled fit (fold {r}, source {k + 1}) did not converge"
                )
            loss_source[r, k] = fold_loss(pooled.coef, u0, y0, hold)

    target_loss = float(loss_target.mean())
    per_source = loss_source.mean(axis=0)
    if config.threshold == THRESHOLD_TWICE_TARGET:
        slack = 2.0 * target_loss
    else:
        slack = config.eps0 * sigma * sigma
    selected = tuple(
        k + 1 for k in range(k_total) if per_source[k] <= target_loss + slack
    )
    return DetectionReport(
        source_losses=per_source,
        target_loss=target_loss,
        threshold=slack,
        selected=selected,
        folds=config.folds,
        seed=config.seed,
        sigma_hat=sigma,
    )


def detect_and_fit(
    target: Dataset,
    sources: list[Dataset],
    config: TransferConfig | None = None,
) -> tuple[TransferFit, DetectionReport]:
    """Detection followed by the two-step fit on the selected sources.

    Both steps read the datasets' memoised splits, so the fit reuses the
    factor splits and the target noise scale that detection made.
    """
    config = config or TransferConfig()
    report = detect_sources(target, sources, config)
    fit = two_step_fit(target, sources, report.selected, config)
    return fit, report
