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
from itertools import chain

import numpy as np

from transfarm.factor import FactorDecomposition, decompose, residualize
from transfarm.numerics import (
    ConvergenceError, DegenerateError, RngStream, check_design, check_fields, check_indices,
)
from transfarm.solver import (
    DEFAULT_LAMBDA_C,
    DEFAULT_MAX_ITER,
    GramPiece,
    LassoProblem,
    gram_piece,
    lasso_fit,
    penalty_level,
    scaled_lasso,
    sum_pieces,
)

MODE_FARM = "farm"
MODE_LASSO = "lasso"


@dataclass
class DatasetSplit:
    """A dataset's factor split under one rank rule, with y_tilde = y
    purged of the factor span.  sigma, the scaled-Lasso noise scale of the
    split, is fitted on first use; only the target's is ever read.

    pooled is a one-use slot on a target's split.  detect_sources leaves
    there the splits of the sources it selected, in source order, with
    the read-only Gram piece of the target plus those sources, summed in
    the order two_step_fit sums them.  The next two_step_fit on this split
    clears the slot, and pools that piece only if its own sources are
    exactly those split objects in that order.
    """

    decomposition: FactorDecomposition
    y_tilde: np.ndarray
    pooled: tuple[tuple[DatasetSplit, ...], GramPiece] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def block(self) -> tuple[np.ndarray, np.ndarray]:
        """The (idiosyncratic part, y_tilde) pair every Lasso here fits on;
        the first is re-formed from the dataset's x on each read."""
        return self.decomposition.idiosyncratic, self.y_tilde

    @cached_property
    def sigma(self) -> float:
        # One noise scale, estimated on the target alone, feeds every penalty.
        return scaled_lasso(*self.block).sigma

    def take_pooled(self, sources: list[DatasetSplit]) -> GramPiece | None:
        """Clear the slot; its piece if it was summed over exactly these
        source splits, in this order, else None."""
        slot, self.pooled = self.pooled, None
        # both lists hold their splits, so equal ids are the same objects
        if slot is not None and list(map(id, slot[0])) == list(map(id, sources)):
            return slot[1]
        return None


@dataclass
class Dataset:
    """One dataset: the target, or source k at 1-based position k in the
    source list, sources[k - 1].

    x and y are read-only copies of the arrays passed in, so a later
    write to those arrays leaves the dataset as it was.  split() memoises
    the factor split of each rank rule on the dataset, so detection,
    fitting and inference all reuse one split per dataset and mode, and
    every read of a split's block re-forms its idiosyncratic part from x.
    """

    x: np.ndarray
    y: np.ndarray
    _splits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x, self.y = check_design(self.x, self.y)
        if self.x.shape[0] < 2:
            raise ValueError("dataset needs at least 2 rows")
        # the memoised splits are made from x and y, so neither may change;
        # np.array copies in the caller's memory layout
        self.x, self.y = np.array(self.x), np.array(self.y)
        self.x.flags.writeable = self.y.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def split(self, config: TransferConfig) -> DatasetSplit:
        """The factor split under config's rank rule, made on first use."""
        key = config.effective_rank()
        if key not in self._splits:
            d = decompose(self.x, key)
            y_tilde = residualize(self.y, d)
            # every fit of this dataset shares the split, so none may write to it
            for a in (d.factors, d.loadings, d.gram_eigenvalues, y_tilde):
                a.flags.writeable = False
            self._splits[key] = DatasetSplit(d, y_tilde)
        return self._splits[key]


@dataclass(frozen=True)
class TransferConfig:
    """Knobs shared by the fitting and detection pipelines.

    mode "lasso" forces factor rank 0 everywhere, turning the pipeline
    into plain pooled-Lasso transfer on the raw design.  rank = None
    selects each dataset's rank by the eigenvalue-ratio rule.  eps0 = None
    adds twice the target-only loss to the detection cutoff (the "2L0"
    rule); a number eps0 >= 0 adds eps0 * sigma_hat^2 instead.  Every
    Lasso runs at the penalty lambda_c * sigma_hat * sqrt(2 log p / N), N
    its row count, and at the solver's defaults; a source is named by its
    1-based position.  Fields are checked at construction and cannot be
    assigned after it; `dataclasses.replace` makes a checked variant.
    """

    lambda_c: float = DEFAULT_LAMBDA_C
    rank: int | None = None
    mode: str = MODE_FARM
    folds: int = 3
    eps0: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"lambda_c": 0, "rank": 0, "folds": 2, "eps0": 0, "seed": 0})
        if self.mode not in (MODE_FARM, MODE_LASSO):
            raise ValueError(f"mode must be '{MODE_FARM}' or '{MODE_LASSO}', got {self.mode!r}")

    def effective_rank(self) -> int | None:
        # Plain-lasso mode strips the factor step entirely.
        return 0 if self.mode == MODE_LASSO else self.rank


@dataclass
class TransferFit:
    """Result of the two-step estimator.

    coef = pooled_coef + correction_coef exactly; decompositions maps 0, the
    target, and each pooled source's 1-based position, in order, to its split.
    """

    pooled_coef: np.ndarray
    correction_coef: np.ndarray
    coef: np.ndarray
    lambda_pooled: float
    lambda_correction: float
    sigma_hat: float
    decompositions: dict[int, FactorDecomposition] = field(repr=False, default_factory=dict)


@dataclass
class DetectionReport:
    """Per-source cross-validated losses and the resulting selection.

    fold_target_losses[r] and fold_source_losses[r, k - 1] are the
    held-out losses on fold r that target_loss and source_losses average.
    margins[k - 1] is the cutoff target_loss + threshold minus source k's
    loss, so source k is selected exactly when its margin is nonnegative.
    The fold count and fold seed are the config's folds and seed.
    """

    source_losses: np.ndarray
    target_loss: float
    threshold: float
    selected: tuple[int, ...]
    sigma_hat: float
    fold_target_losses: np.ndarray
    fold_source_losses: np.ndarray
    margins: np.ndarray


def _splits(target: Dataset, sources: list[Dataset], roles, config: TransferConfig) -> dict:
    """The split of each role in order, role k >= 1 being sources[k - 1],
    once every source has the target's columns; an error keeps its type
    and names its dataset."""
    for k, src in enumerate(sources, start=1):
        if src.p != target.p:
            raise ValueError(f"source {k} has {src.p} columns, target has {target.p}")
    splits = {}
    for k in roles:
        try:
            splits[k] = (sources[k - 1] if k else target).split(config)
        except (ValueError, ConvergenceError, DegenerateError) as exc:
            name = f"source {k}" if k else "target"
            raise type(exc)(f"{name}: {exc}") from None
    return splits


def _lasso(pieces: list, sigma: float, config: TransferConfig, what: str, offset=None,
           warm_start=None):
    """(coef, lam) of the Lasso on the stacked Gram pieces at the
    pipeline's penalty rule, with N the pieces' total row count."""
    n = sum(piece.rows for piece in pieces)
    lam = penalty_level(sigma, pieces[0].p, n, config.lambda_c)
    fit = lasso_fit(LassoProblem(pieces, lam, offset=offset), warm_start=warm_start)
    if not fit.converged:
        raise ConvergenceError(
            f"{what} did not converge in {DEFAULT_MAX_ITER} sweeps"
            f" (kkt violation {fit.kkt_violation:.3e})"
        )
    return fit.coef, lam


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
    the order in which source_set is given.  The target's Gram piece is
    formed once for both steps.  The pooled step takes the sum that
    detect_sources left on the target's split when detection kept
    exactly these sources (DatasetSplit.pooled, cleared here either way);
    otherwise each source's piece is added to the pooled sum as it is
    formed and then dropped.  Both ways give the same bits.
    """
    config = config or TransferConfig()
    chosen = check_indices(source_set, "source_set", 1, len(sources))

    splits = _splits(target, sources, (0, *chosen), config)
    sigma = splits[0].sigma
    target_piece = gram_piece(*splits[0].block)
    pooled_piece = splits[0].take_pooled([splits[k] for k in chosen])
    if pooled_piece is None:
        pooled_piece = sum_pieces(
            chain([target_piece], (gram_piece(*splits[k].block, f"source {k}") for k in chosen))
        )
    pooled, lam_pooled = _lasso([pooled_piece], sigma, config, "transferring step")
    del pooled_piece
    correction, lam_corr = _lasso(
        [target_piece], sigma, config, "debiasing step", offset=pooled
    )
    return TransferFit(
        pooled_coef=pooled,
        correction_coef=correction,
        coef=pooled + correction,
        lambda_pooled=lam_pooled,
        lambda_correction=lam_corr,
        sigma_hat=sigma,
        decompositions={k: s.decomposition for k, s in splits.items()},
    )


def check_fold_rows(n: int, folds: int) -> None:
    """Detection's rule: n target rows give each of the folds at least 2."""
    if n < 2 * folds:
        raise ValueError(f"need at least {2 * folds} target rows for {folds} folds, got {n}")


def detect_sources(
    target: Dataset,
    sources: list[Dataset],
    config: TransferConfig | None = None,
) -> DetectionReport:
    """Score each source by cross-validated target loss and select.

    Every dataset's factor split is taken up front, and each fold's
    training Gram piece is formed once.  A fold routine fits a Lasso on
    each fold's training piece plus an optional extra piece and scores it
    on the held-out rows of the target's split block.  Detection runs it
    in two passes.  The target pass, with no extra piece, gives the
    target-only loss L0, the mean of its fold losses, and the cutoff L0
    plus the slack: 2 * L0 when config.eps0 is None, else
    config.eps0 * sigma_hat^2.  The source pass forms each source's piece
    in turn, runs the routine with it, and decides source k once, by the
    mean of its own fold losses, which is its reported loss: it is
    selected when that is at most the cutoff.  A selected source's piece is added with
    `sum_pieces`, while it is at hand, to a sum that starts from the
    target's full piece, and each source's piece is dropped before the
    next one is formed.  A column's mean does not depend on the other
    sources; from 8 folds on it can differ in the last bit from an axis-0
    mean of the table, which numpy sums row by row, not pairwise.

    That sum, the pooled piece of the target plus the selected sources,
    is left read-only on the target's split (DatasetSplit.pooled) for
    the two-step fit that follows.  A fit on fold r starts from the same
    dataset's fit on fold r - 1, and source k's fit on fold 0 from
    dataset k - 1's fit on fold 0 (the target's for k = 1), so only the
    target's fold 0 starts cold.  A fit that ends on the solver's exact
    finish returns the KKT point of its support and signs whatever its
    start, so the start changes how many sweeps find that point, not the
    point; a fit that stops on the sweep rule instead can move within the
    solver tolerance.
    Loop order decides which failure a ConvergenceError names first: a
    target fold before any source, and source k before source k + 1.

    How the rule behaves on the acceptance desk design (n0 = nk = 150,
    p = 200, six sources, rank 2, factor mode, three folds), over 8
    replications at each |A| in {0, 2, 4} drawn as run_experiment draws
    them from base seed 2024: 140 of the 144 mean source losses fell
    below the target-only loss L0 and the other 4 lay within 2.5 % above
    it, so the "2L0" rule kept every source in all 24 replications.
    Neither it nor the fold-sd rule of Tian and Feng (2023, JASA), cutoff
    L0 + eps0 * max(sd of the target's fold losses, 0.01) with eps0 = 1
    or 2, recovered any of the 24 informative sets, and at |A| = 2 and 4
    a non-informative source had the lowest loss in 6 of the 16 sets.
    At this sample size the non-informative sources do lower the
    held-out target loss.  Li, Cai and Li (2022, JRSS-B, Trans-Lasso)
    instead rank the sources by an estimated distance to the target and
    aggregate over the nested candidate sets; that alternative is not
    implemented here.
    """
    config = config or TransferConfig()
    check_fold_rows(target.n, config.folds)

    splits = _splits(target, sources, range(len(sources) + 1), config)
    u0, y0 = splits[0].block
    sigma = splits[0].sigma

    gen = RngStream(config.seed).generator(0)
    split = np.array_split(gen.permutation(target.n), config.folds)
    fold_pieces = []
    for r in range(config.folds):
        train = np.concatenate([split[i] for i in range(config.folds) if i != r])
        fold_pieces.append(gram_piece(u0[train], y0[train]))

    def fold_losses(extra, coef, what):
        """Held-out losses of the fits on each fold's training piece plus
        extra (fold r from fold r - 1's fit, fold 0 from coef); the fold-0 fit."""
        losses = np.zeros(config.folds)
        for r, hold in enumerate(split):
            coef, _ = _lasso([fold_pieces[r], *extra], sigma, config, what % r, warm_start=coef)
            resid = y0[hold] - u0[hold] @ coef
            losses[r] = float(resid @ resid) / hold.size
            if r == 0:
                first = coef
        return losses, first

    pooled = gram_piece(u0, y0)
    fold_target, first = fold_losses([], None, "detection target fit on fold %d")
    target_loss = float(fold_target.mean())
    slack = 2.0 * target_loss if config.eps0 is None else config.eps0 * sigma * sigma
    cutoff = target_loss + slack

    fold_source = np.zeros((config.folds, len(sources)))
    per_source = np.zeros(len(sources))
    selected = []
    for k in range(1, len(sources) + 1):
        piece = gram_piece(*splits[k].block, f"source {k}")
        fold_source[:, k - 1], first = fold_losses(
            [piece], first, f"detection pooled fit (fold %d, source {k})"
        )
        per_source[k - 1] = fold_source[:, k - 1].mean()
        if per_source[k - 1] <= cutoff:
            pooled = sum_pieces([pooled, piece])
            selected.append(k)
        del piece  # dropped before the next source's piece is formed
    pooled.zz.flags.writeable = pooled.zr.flags.writeable = False
    splits[0].pooled = (tuple(splits[k] for k in selected), pooled)

    return DetectionReport(
        source_losses=per_source,
        target_loss=target_loss,
        threshold=slack,
        selected=tuple(selected),
        sigma_hat=sigma,
        fold_target_losses=fold_target,
        fold_source_losses=fold_source,
        margins=cutoff - per_source,
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
