"""Two-step transfer estimator and source detection."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import transfarm.factor
import transfarm.transfer
from transfarm.factor import decompose, residualize
from transfarm.numerics import RngStream, correlated_normal, toeplitz_correlation
from transfarm.simlab import SimConfig
from transfarm.solver import (
    LassoProblem,
    gram_piece,
    lasso_fit,
    penalty_level,
    scaled_lasso,
    sum_pieces,
)
from transfarm.transfer import (
    MODE_FARM,
    MODE_LASSO,
    Dataset,
    TransferConfig,
    detect_and_fit,
    detect_sources,
    two_step_fit,
)


def make_dataset(n, p, beta, seed, rank=2, gamma_scale=0.5):
    """Factor-plus-sparse draws shared by most of the tests here."""
    rng = RngStream(seed)
    b = rng.generator(0).uniform(-1.0, 1.0, (p, rank))
    f = rng.generator(1).standard_normal((n, rank))
    u = correlated_normal(rng.substream(2), n, toeplitz_correlation(0.5, p))
    x = f @ b.T + u
    gamma = np.full(rank, gamma_scale)
    y = u @ beta + f @ gamma + rng.generator(3).standard_normal(n)
    return Dataset(x=x, y=y)


def sparse_beta(p, s, value=0.5):
    beta = np.zeros(p)
    beta[:s] = value
    return beta


# ----------------------------------------------------------------------
# two_step_fit
# ----------------------------------------------------------------------


def test_empty_set_reduces_to_single_dataset_lasso():
    beta = sparse_beta(40, 4)
    target = make_dataset(120, 40, beta, seed=21)
    config = TransferConfig(rank=2)
    fit = two_step_fit(target, [], (), config)

    # independent route: one direct Lasso at the correction penalty
    d = decompose(target.x, rank=2)
    y_tilde = residualize(target.y, d)
    sigma = scaled_lasso(d.idiosyncratic, y_tilde).sigma
    lam = penalty_level(sigma, 40, 120)
    direct = lasso_fit(LassoProblem([(d.idiosyncratic, y_tilde)], lam=lam))
    assert_allclose(fit.coef, direct.coef, atol=1e-6)
    assert fit.source_set == ()


def test_coef_identity_and_metadata():
    beta = sparse_beta(25, 3)
    target = make_dataset(80, 25, beta, seed=23)
    source = make_dataset(80, 25, beta, seed=24)
    fit = two_step_fit(target, [source], (1,), TransferConfig(rank=1))
    assert np.array_equal(fit.coef, fit.pooled_coef + fit.correction_coef)
    assert fit.source_set == (1,)
    assert fit.lambda_pooled < fit.lambda_correction  # pooled N is larger
    assert set(fit.decompositions) == {0, 1}


def test_source_order_invariance():
    beta = sparse_beta(20, 2)
    target = make_dataset(70, 20, beta, seed=25)
    s1 = make_dataset(60, 20, beta, seed=26)
    s2 = make_dataset(50, 20, beta, seed=27)
    config = TransferConfig(rank=1)
    forward = two_step_fit(target, [s1, s2], (1, 2), config)
    backward = two_step_fit(target, [s1, s2], (2, 1), config)
    assert np.array_equal(forward.coef, backward.coef)
    assert forward.source_set == backward.source_set == (1, 2)


def test_one_dataset_at_two_positions(monkeypatch):
    # a source is its list position, so one object may fill two positions
    beta = sparse_beta(20, 2)
    config = TransferConfig(rank=2, seed=4)

    def run(shared):
        target = make_dataset(70, 20, beta, seed=48)
        d = make_dataset(60, 20, beta, seed=49)
        sources = [d, d] if shared else [d, Dataset(x=d.x.copy(), y=d.y.copy())]
        fit = two_step_fit(target, sources, (1, 2), config)
        return fit, detect_and_fit(target, sources, config)

    real = transfarm.factor.sym_eig
    eig_calls = []

    def counted(a):
        eig_calls.append(1)
        return real(a)

    monkeypatch.setattr(transfarm.factor, "sym_eig", counted)
    fit, (dfit, report) = run(shared=True)
    assert len(eig_calls) == 2  # the target's split and the shared source's
    eig_calls.clear()
    fit_c, (dfit_c, report_c) = run(shared=False)
    assert len(eig_calls) == 3
    for a, b in ((fit, fit_c), (dfit, dfit_c)):
        assert np.array_equal(a.pooled_coef, b.pooled_coef)
        assert np.array_equal(a.coef, b.coef)
        assert a.source_set == b.source_set
    assert np.array_equal(report.source_losses, report_c.source_losses)
    assert report.target_loss == report_c.target_loss
    assert report.selected == report_c.selected == (1, 2)
    # detection's pooled sum adds the one split at both positions
    assert_same_fit(dfit, fit)


def test_lasso_mode_matches_scratch_pooled_lasso():
    # dual-route check: rebuild the rank-0 pipeline from raw blocks
    # without touching the transfer module
    beta = sparse_beta(30, 4)
    target = make_dataset(90, 30, beta, seed=28)
    s1 = make_dataset(80, 30, beta, seed=29)
    s2 = make_dataset(70, 30, beta, seed=30)
    fit = two_step_fit(target, [s1, s2], (1, 2), TransferConfig(mode="lasso"))

    sigma = scaled_lasso(target.x, target.y).sigma
    n_pool = 90 + 80 + 70
    lam_w = penalty_level(sigma, 30, n_pool)
    pooled = lasso_fit(
        LassoProblem([(target.x, target.y), (s1.x, s1.y), (s2.x, s2.y)], lam=lam_w)
    )
    lam_d = penalty_level(sigma, 30, 90)
    correction = lasso_fit(
        LassoProblem([(target.x, target.y)], lam=lam_d, offset=pooled.coef)
    )
    assert np.max(np.abs(fit.pooled_coef - pooled.coef)) < 1e-10
    assert np.max(np.abs(fit.coef - (pooled.coef + correction.coef))) < 1e-10
    for d in fit.decompositions.values():
        assert d.rank == 0


def test_source_set_validation():
    beta = sparse_beta(10, 2)
    target = make_dataset(40, 10, beta, seed=32)
    source = make_dataset(40, 10, beta, seed=33)
    with pytest.raises(ValueError):
        two_step_fit(target, [source], (2,), TransferConfig(rank=1))
    narrow = Dataset(x=np.ones((40, 9)), y=np.zeros(40))
    with pytest.raises(ValueError):
        two_step_fit(target, [narrow], (1,), TransferConfig(rank=1))


@pytest.mark.parametrize("bad", [1.9, 1.0, np.float64(1.0), True, np.bool_(True), "1"])
def test_source_set_rejects_non_integral_entries(bad):
    beta = sparse_beta(10, 2)
    target = make_dataset(40, 10, beta, seed=32)
    sources = [make_dataset(40, 10, beta, seed=33)]
    config = TransferConfig(rank=1)
    message = re.escape(f"source_set entries must be integers, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        two_step_fit(target, sources, (bad,), config)
    # numpy integers are integers
    by_numpy = two_step_fit(target, sources, (np.int64(1),), config)
    assert np.array_equal(by_numpy.coef, two_step_fit(target, sources, (1,), config).coef)


def test_config_validation():
    with pytest.raises(ValueError):
        TransferConfig(mode="ridge")
    with pytest.raises(ValueError):
        TransferConfig(folds=1)
    with pytest.raises(ValueError, match="eps0 must be nonnegative, got -0.1"):
        TransferConfig(eps0=-0.1)
    with pytest.raises(ValueError, match="rank must be nonnegative, got -1"):
        TransferConfig(rank=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        TransferConfig(seed=-1)
    # a non-integer would fail late, unnamed; a bool would pass as 0 or 1
    for name, value in [("rank", 1.5), ("rank", True), ("folds", 2.5), ("folds", 3.0),
                        ("max_rank", 2.5), ("seed", 1.5), ("seed", "1")]:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            TransferConfig(**{name: value})
    assert TransferConfig(rank=np.int64(1), folds=np.int32(4), seed=np.uint8(2)).folds == 4
    assert TransferConfig(mode="lasso", rank=4).effective_rank() == 0


@pytest.mark.parametrize("name", ["lambda_c", "eps0"])
def test_config_rejects_non_finite_values(name):
    # a NaN eps0 would keep no source, with NaN margins; SimConfig checks
    # its fields through the TransferConfig a replication uses
    for value in (np.nan, np.inf, -np.inf):
        for make in (TransferConfig, SimConfig):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                make(**{name: value})


# ----------------------------------------------------------------------
# detect_sources
# ----------------------------------------------------------------------


def test_detection_no_sources():
    beta = sparse_beta(20, 2)
    target = make_dataset(60, 20, beta, seed=34)
    report = detect_sources(target, [], TransferConfig(rank=1, seed=7))
    assert report.selected == ()
    assert report.source_losses.shape == (0,)
    assert np.isfinite(report.target_loss)
    assert report.seed == 7


def test_detection_report_recomputable():
    beta = sparse_beta(25, 3)
    target = make_dataset(90, 25, beta, seed=35)
    sources = [
        make_dataset(80, 25, beta, seed=36),
        make_dataset(80, 25, beta + 1.0, seed=37),
    ]
    report = detect_sources(target, sources, TransferConfig(rank=1))
    recomputed = tuple(
        k + 1
        for k in range(2)
        if report.source_losses[k] <= report.target_loss + report.threshold
    )
    assert recomputed == report.selected


def test_detection_deterministic_per_seed():
    beta = sparse_beta(20, 2)
    target = make_dataset(66, 20, beta, seed=38)
    source = make_dataset(60, 20, beta, seed=39)
    config = TransferConfig(rank=1, seed=11)
    a = detect_sources(target, [source], config)
    b = detect_sources(target, [source], config)
    assert np.array_equal(a.source_losses, b.source_losses)
    assert a.target_loss == b.target_loss
    assert a.selected == b.selected


def fold_major_detection(target, sources, config):
    """Detection as a fold-major loop of cold-start solves on raw blocks:
    (fold target losses, fold source losses, source losses, target loss,
    selected)."""
    splits = [d.split(config) for d in [target, *sources]]
    u0, y0 = splits[0].block
    sigma = splits[0].sigma
    split = np.array_split(
        RngStream(config.seed).generator(0).permutation(target.n), config.folds
    )
    loss_target = np.zeros(config.folds)
    loss_source = np.zeros((config.folds, len(sources)))
    for r, hold in enumerate(split):
        train = np.concatenate([split[i] for i in range(config.folds) if i != r])
        fold = (u0[train], y0[train])
        for k, s in enumerate(splits):
            blocks = [fold, s.block] if k else [fold]
            n = sum(z.shape[0] for z, _ in blocks)
            lam = penalty_level(sigma, target.p, n, config.lambda_c)
            resid = y0[hold] - u0[hold] @ lasso_fit(LassoProblem(blocks, lam)).coef
            loss = float(resid @ resid) / hold.size
            if k:
                loss_source[r, k - 1] = loss
            else:
                loss_target[r] = loss
    target_loss = float(loss_target.mean())
    # each source's own column: from 8 folds on, numpy sums a column
    # pairwise but an axis-0 mean row by row, which can differ in the last bit
    per_source = np.array([column.mean() for column in loss_source.T])
    slack = 2.0 * target_loss if config.eps0 is None else config.eps0 * sigma**2
    selected = tuple(
        k + 1 for k in range(len(sources)) if per_source[k] <= target_loss + slack
    )
    return loss_target, loss_source, per_source, target_loss, selected


@pytest.mark.parametrize("mode", [MODE_FARM, MODE_LASSO])
@pytest.mark.parametrize(
    "seed, folds", [(0, 3), (1, 3), (2, 3), (3, 10)], ids=["0", "1", "2", "3-folds10"]
)
def test_detection_matches_fold_major_cold_starts(monkeypatch, mode, seed, folds):
    # source-major order with warm-started folds and shared Gram pieces
    # must reach the same losses, bit for bit, with one solve per fit
    p = 30
    beta = sparse_beta(p, 3)
    target = make_dataset(72, p, beta, seed=500 + 10 * seed)
    sources = [
        make_dataset(60 + 5 * k, p, beta + shift, seed=501 + 10 * seed + k)
        for k, shift in enumerate([0.0, 0.2, 1.0, 0.0])
    ]
    config = TransferConfig(mode=mode, eps0=1.0 if seed == 2 else None, folds=folds, seed=seed)
    real = transfarm.transfer.lasso_fit
    calls = []

    def counted(problem, **kw):
        calls.append((len(problem.blocks), kw.get("warm_start") is None))
        return real(problem, **kw)

    monkeypatch.setattr(transfarm.transfer, "lasso_fit", counted)
    report = detect_sources(target, sources, config)
    folds, k_total = config.folds, len(sources)
    # target folds first, then each source's folds; only the target's fold 0 starts cold
    assert calls == [(1, r == 0) for r in range(folds)] + [(2, False)] * (k_total * folds)

    loss_target, loss_source, per_source, target_loss, selected = fold_major_detection(
        target, sources, config
    )
    assert np.array_equal(report.fold_target_losses, loss_target)
    assert np.array_equal(report.fold_source_losses, loss_source)
    assert np.array_equal(report.source_losses, per_source)
    assert report.target_loss == target_loss
    assert report.selected == selected
    assert np.array_equal(report.margins, target_loss + report.threshold - per_source)
    assert report.selected == tuple(k + 1 for k in range(k_total) if report.margins[k] >= 0)

    # the fit that follows pools the sum detection left: it forms only the
    # target's piece, for its correction step
    designs = count_pieces(monkeypatch)
    two_step_fit(target, sources, report.selected, config)
    assert len(designs) == 1

    # a source's loss is the mean of its own fold losses, the same bits
    # whatever other sources are scored beside it
    for k in range(k_total):
        alone = detect_sources(target, [sources[k]], config).source_losses[0]
        assert alone == report.source_losses[k] == report.fold_source_losses[:, k].mean()


def test_detection_needs_enough_rows():
    beta = sparse_beta(8, 1)
    tiny = make_dataset(5, 8, beta, seed=40)
    with pytest.raises(ValueError):
        detect_sources(tiny, [], TransferConfig(rank=0, folds=3))


def test_clone_source_is_kept():
    # a source drawn from the exact target law must survive detection
    hits = 0
    for seed in range(50):
        beta = sparse_beta(40, 4)
        target = make_dataset(90, 40, beta, seed=1000 + 2 * seed)
        clone = make_dataset(90, 40, beta, seed=1001 + 2 * seed)
        report = detect_sources(target, [clone], TransferConfig(rank=2, seed=seed))
        if report.selected == (1,):
            hits += 1
    assert hits >= 48  # 95% of 50


def test_wild_source_is_dropped_under_zero_slack():
    beta = sparse_beta(20, 2)
    target = make_dataset(80, 20, beta, seed=41)
    wild = make_dataset(80, 20, beta + 10.0, seed=42)
    config = TransferConfig(rank=1, eps0=0.0, seed=3)
    report = detect_sources(target, [wild], config)
    assert report.selected == ()
    assert report.threshold == 0.0


def test_eps0_number_sets_the_slack():
    # eps0 = None is the 2L0 rule; a number is the eps0 * sigma_hat^2 rule
    beta = sparse_beta(20, 2)
    target = make_dataset(60, 20, beta, seed=48)
    source = make_dataset(60, 20, beta + 0.5, seed=49)
    report = detect_sources(target, [source], TransferConfig(rank=1, eps0=0.5))
    assert report.threshold == 0.5 * report.sigma_hat * report.sigma_hat


# ----------------------------------------------------------------------
# detect_and_fit composition
# ----------------------------------------------------------------------


def fresh(datasets):
    """Copies that share no memoised split (and so no pooled sum) with datasets."""
    return [Dataset(x=d.x.copy(), y=d.y.copy()) for d in datasets]


def assert_same_fit(a, b):
    for name in ("pooled_coef", "correction_coef", "coef"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert (a.source_set, a.lambda_pooled, a.lambda_correction) == (
        b.source_set, b.lambda_pooled, b.lambda_correction
    )


def test_all_excluded_equals_empty_set_run():
    beta = sparse_beta(20, 2)
    target = make_dataset(80, 20, beta, seed=43)
    wild = make_dataset(80, 20, beta + 10.0, seed=44)
    config = TransferConfig(rank=1, eps0=0.0, seed=5)
    fit, report = detect_and_fit(target, [wild], config)
    assert report.selected == ()
    direct = two_step_fit(target, [wild], (), config)
    assert np.array_equal(fit.coef, direct.coef)
    assert np.array_equal(fit.pooled_coef, direct.pooled_coef)
    new_target, new_wild = fresh([target, wild])
    assert_same_fit(fit, two_step_fit(new_target, [new_wild], (), config))


def kept_subset_problem():
    """Target and three sources; source 2 is wild, so detection at zero
    slack keeps sources 1 and 3."""
    beta = sparse_beta(20, 2)
    target = make_dataset(80, 20, beta, seed=50)
    sources = [
        make_dataset(80, 20, beta, seed=51),
        make_dataset(80, 20, beta + 10.0, seed=52),
        make_dataset(80, 20, beta, seed=53),
    ]
    return target, sources, TransferConfig(rank=1, eps0=0.0, seed=7)


def count_pieces(monkeypatch):
    """The design of every Gram piece transfer forms, in call order."""
    real = transfarm.transfer.gram_piece
    designs = []

    def counted(z, *args, **kwargs):
        designs.append(z)
        return real(z, *args, **kwargs)

    monkeypatch.setattr(transfarm.transfer, "gram_piece", counted)
    return designs


def test_kept_subset_equals_a_fresh_subset_run(monkeypatch):
    target, sources, config = kept_subset_problem()
    designs = count_pieces(monkeypatch)
    fit, report = detect_and_fit(target, sources, config)
    assert report.selected == (1, 3)
    # detection: the folds' training pieces, the target's full piece and each
    # source's piece; the fit: only the target's piece, for its correction step
    blocks = [d.split(config).decomposition.idiosyncratic for d in [target, *sources]]
    assert len(designs) == config.folds + 1 + len(sources) + 1
    assert [sum(z is b for z in designs) for b in blocks] == [2, 1, 1, 1]
    new_target, *new_sources = fresh([target, *sources])
    assert_same_fit(fit, two_step_fit(new_target, new_sources, (1, 3), config))


def test_pooled_sum_serves_one_fit_of_its_own_sources(monkeypatch):
    target, sources, config = kept_subset_problem()
    s1, s2, s3 = sources
    new_target, *new_sources = fresh([target, *sources])
    expected = two_step_fit(new_target, new_sources, (1, 3), config)

    # the slot holds the kept splits and their pooled sum, read-only
    detect_sources(target, sources, config)
    t0, t1, _, t3 = (d.split(config) for d in [target, *sources])
    kept, piece = t0.pooled
    assert len(kept) == 2 and kept[0] is t1 and kept[1] is t3
    want = sum_pieces(gram_piece(*t.block) for t in (t0, t1, t3))
    assert piece.zz.tobytes() == want.zz.tobytes() and piece.zr.tobytes() == want.zr.tobytes()
    assert (piece.rr, piece.rows) == (want.rr, want.rows)
    assert not (piece.zz.flags.writeable or piece.zr.flags.writeable)

    designs = count_pieces(monkeypatch)

    def fit_pieces(*args):
        designs.clear()
        fit = two_step_fit(*args)
        return fit, len(designs)

    # permuted, the chosen splits come in another order than the kept ones:
    # the fit sums its own pieces, and still clears the slot
    fit, formed = fit_pieces(target, [s3, s2, s1], (1, 3), config)
    assert formed == 3
    assert target.split(config).pooled is None
    assert np.max(np.abs(fit.coef - expected.coef)) <= 1e-12 * np.max(np.abs(expected.coef))

    # a fit under another rank reads the slot of another split
    detect_sources(target, sources, config)
    _, formed = fit_pieces(target, sources, (1, 3), replace(config, rank=2))
    assert formed == 3
    fit, formed = fit_pieces(target, sources, (1, 3), config)
    assert formed == 1
    assert_same_fit(fit, expected)

    # the first fit cleared the slot, so a second one sums its own pieces
    fit, formed = fit_pieces(target, sources, (1, 3), config)
    assert formed == 3
    assert_same_fit(fit, expected)


def test_all_kept_equals_full_set_run():
    beta = sparse_beta(25, 3)
    target = make_dataset(90, 25, beta, seed=45)
    clones = [
        make_dataset(85, 25, beta, seed=46),
        make_dataset(85, 25, beta, seed=47),
    ]
    config = TransferConfig(rank=1, seed=6)
    fit, report = detect_and_fit(target, clones, config)
    assert report.selected == (1, 2)
    direct = two_step_fit(target, clones, (1, 2), config)
    assert np.array_equal(fit.coef, direct.coef)
    new_target, *new_clones = fresh([target, *clones])
    assert_same_fit(fit, two_step_fit(new_target, new_clones, (1, 2), config))


# ----------------------------------------------------------------------
# invariants of detect_and_fit under response scale and source order
# ----------------------------------------------------------------------


@st.composite
def transfer_problems(draw):
    """A toy target, 2-4 sources of varying size and contrast, and a config."""
    seed = draw(st.integers(0, 2**20))
    p = 12
    beta = sparse_beta(p, 3)
    target = make_dataset(36, p, beta, seed=seed)
    sources = []
    for k in range(draw(st.integers(2, 4))):
        shift = draw(st.sampled_from([0.0, 0.3, 1.5]))
        n_k = draw(st.integers(24, 48))
        sources.append(make_dataset(n_k, p, beta + shift, seed=seed + 1 + k))
    config = TransferConfig(
        rank=draw(st.sampled_from([None, 1])),
        mode=draw(st.sampled_from([MODE_FARM, MODE_LASSO])),
        eps0=draw(st.sampled_from([None, 0.0, 0.5, 2.0])),
        seed=draw(st.integers(0, 100)),
    )
    return target, sources, config


@settings(max_examples=30, deadline=None)
@given(transfer_problems())
def test_detect_and_fit_is_equivariant_to_response_scale(problem):
    target, sources, config = problem
    fit, report = detect_and_fit(target, sources, config)
    # a power of two rescales every float operation exactly
    scaled = [Dataset(x=d.x, y=4.0 * d.y) for d in [target, *sources]]
    fit4, report4 = detect_and_fit(scaled[0], scaled[1:], config)
    assert np.array_equal(fit4.coef, 4.0 * fit.coef)
    assert np.array_equal(fit4.pooled_coef, 4.0 * fit.pooled_coef)
    assert fit4.sigma_hat == 4.0 * fit.sigma_hat
    assert np.array_equal(report4.source_losses, 16.0 * report.source_losses)
    assert report4.target_loss == 16.0 * report.target_loss
    assert report4.selected == report.selected


@settings(max_examples=30, deadline=None)
@given(transfer_problems(), st.randoms(use_true_random=False))
def test_detect_and_fit_follows_a_permutation_of_the_sources(problem, random):
    target, sources, config = problem
    fit, report = detect_and_fit(target, sources, config)
    order = list(range(len(sources)))
    random.shuffle(order)  # new source i + 1 is old source order[i] + 1
    moved = [Dataset(x=sources[k].x, y=sources[k].y) for k in order]
    fit_m, report_m = detect_and_fit(target, moved, config)
    # each detection fit pools the target with one source, so losses move bitwise
    assert np.array_equal(report_m.source_losses, report.source_losses[order])
    assert report_m.target_loss == report.target_loss
    assert report_m.selected == tuple(i + 1 for i, k in enumerate(order) if k + 1 in report.selected)
    # the pooled Gram sums its blocks in source order, so only the last bits move
    assert np.max(np.abs(fit_m.coef - fit.coef)) <= 1e-12 * np.max(np.abs(fit.coef))
