"""Tests for the Monte-Carlo generator and experiment runner."""

import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import transfarm.factor
import transfarm.simlab
import transfarm.transfer
from transfarm.numerics import RngStream, spiked_ar1_normal
from transfarm.simlab import (
    ALL_ESTIMATORS,
    FARM_ESTIMATORS,
    LASSO_ESTIMATORS,
    SimConfig,
    generate,
    l1_error,
    l2_error,
    run_experiment,
    _detection_seed,
    _run_replication,
    _transfer_config,
)
from transfarm.transfer import MODE_FARM, MODE_LASSO, detect_and_fit, two_step_fit

TINY = dict(n0=40, nk=40, p=30, s=4, k_sources=2, a_size=1, rank=2, eta=2.0)


def tiny_config(**kw):
    merged = {**TINY, **kw}
    return SimConfig(**merged)


def drawn_parts(cfg, rng, k):
    """(factors, loadings, idiosyncratic) that generate draws for dataset k
    (0 the target) from rng, rebuilt from the same substreams."""
    stream = rng.substream(0, k)
    n = cfg.n0 if k == 0 else cfg.nk
    spike = np.zeros(cfg.p)
    if k:
        spike = cfg.cov_spike * stream.generator(3).standard_normal(cfg.p)
    loadings = stream.generator(0).uniform(
        -cfg.loading_width, cfg.loading_width, (cfg.p, cfg.rank)
    )
    factors = stream.generator(1).standard_normal((n, cfg.rank))
    return factors, loadings, spiked_ar1_normal(stream.substream(2), n, cfg.rho, spike)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generate_is_deterministic():
    cfg = tiny_config()
    t1, s1, tr1 = generate(cfg, RngStream(11, 0, (0, 3)))
    t2, s2, tr2 = generate(cfg, RngStream(11, 0, (0, 3)))
    assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.y, t2.y)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert tr1.informative == tr2.informative
    assert np.array_equal(tr1.beta, tr2.beta)


def test_generate_shapes_and_truth_fields():
    cfg = tiny_config()
    target, sources, truth = generate(cfg, RngStream(1, 0, (0, 0)))
    assert target.x.shape == (cfg.n0, cfg.p)
    assert len(sources) == cfg.k_sources
    for ds in sources:
        assert ds.x.shape == (cfg.nk, cfg.p)
    # sparse coefficient: first s entries at the signal level, rest zero
    assert np.array_equal(truth.beta[: cfg.s], np.full(cfg.s, cfg.signal))
    assert not truth.beta[cfg.s :].any()
    assert truth.gamma.tobytes() == np.full(cfg.rank, 0.5).tobytes()
    assert len(truth.source_coefs) == cfg.k_sources
    assert len(truth.source_gammas) == cfg.k_sources


def test_generate_reconstructs_datasets_from_truth():
    cfg = tiny_config()
    rng = RngStream(5, 0, (0, 2))
    target, sources, _ = generate(cfg, rng)
    for k, ds in enumerate([target] + sources):
        factors, loadings, idio = drawn_parts(cfg, rng, k)
        assert np.array_equal(ds.x, factors @ loadings.T + idio)


def test_contrast_norms_split_by_informativeness():
    cfg = tiny_config(k_sources=4, a_size=2)
    _, _, truth = generate(cfg, RngStream(9, 0, (0, 0)))
    for k in range(1, cfg.k_sources + 1):
        gap = np.abs(truth.source_coefs[k - 1] - truth.beta).sum()
        jit = np.abs(truth.source_gammas[k - 1] - truth.gamma).max()
        if k in truth.informative:
            assert gap == pytest.approx(cfg.eta, abs=1e-9)
            assert jit == pytest.approx(cfg.gamma_jitter_informative, abs=1e-12)
        else:
            assert gap == pytest.approx(cfg.adversarial_mult * cfg.eta, abs=1e-9)
            assert jit == pytest.approx(cfg.gamma_jitter_adversarial, abs=1e-12)


def test_default_informative_draw_is_valid():
    cfg = tiny_config(k_sources=5, a_size=3)
    _, _, truth = generate(cfg, RngStream(2, 0, (0, 0)))
    assert len(truth.informative) == 3
    assert len(set(truth.informative)) == 3
    assert list(truth.informative) == sorted(truth.informative)
    assert all(1 <= k <= 5 for k in truth.informative)


def test_informative_override_is_respected_and_checked():
    cfg = tiny_config(k_sources=3, a_size=2)
    _, _, truth = generate(cfg, RngStream(0, 0, (0, 0)), informative=(3, 1))
    assert truth.informative == (1, 3)
    with pytest.raises(ValueError):
        generate(cfg, RngStream(0, 0, (0, 0)), informative=(1,))
    with pytest.raises(ValueError):
        generate(cfg, RngStream(0, 0, (0, 0)), informative=(0, 2))
    with pytest.raises(ValueError):
        generate(cfg, RngStream(0, 0, (0, 0)), informative=(2, 4))
    # a repeat counts once: (1, 1) was kept as given, naming source 1 twice
    # while only one source was drawn informative
    with pytest.raises(ValueError, match="informative has 1 entries, expected 2"):
        generate(cfg, RngStream(0, 0, (0, 0)), informative=(1, 1))
    _, _, truth = generate(cfg, RngStream(0, 0, (0, 0)), informative=(3, 1, 3))
    assert truth.informative == (1, 3)


@pytest.mark.parametrize("bad", [1.5, 3.0, np.float64(3.0), True, np.bool_(True)])
def test_informative_override_rejects_non_integral_entries(bad):
    cfg = tiny_config(k_sources=3, a_size=2)
    message = re.escape(f"informative entries must be integers, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        generate(cfg, RngStream(0, 0, (0, 0)), informative=(bad, 2))
    # numpy integers are integers
    _, _, truth = generate(cfg, RngStream(0, 0, (0, 0)), informative=np.array([3, 1]))
    assert truth.informative == (1, 3)
    assert all(type(k) is int for k in truth.informative)


def test_target_idiosyncratic_covariance_is_toeplitz():
    cfg = SimConfig(
        n0=50_000, nk=10, p=20, s=3, k_sources=0, a_size=0, rank=2, rho=0.5
    )
    rng = RngStream(31, 0, (0, 0))
    target, _, _ = generate(cfg, rng)
    factors, loadings, u = drawn_parts(cfg, rng, 0)
    assert np.array_equal(target.x, factors @ loadings.T + u)
    emp = u.T @ u / u.shape[0]
    idx = np.arange(20)
    assert np.max(np.abs(emp - 0.5 ** np.abs(idx[:, None] - idx[None, :]))) < 0.03


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------


def test_error_metrics():
    a = np.array([1.0, -2.0, 0.0])
    b = np.array([0.0, 1.0, 1.0])
    assert l1_error(a, a) == 0.0 and l2_error(a, a) == 0.0
    assert l1_error(a, b) == pytest.approx(5.0)
    assert l2_error(a, b) == pytest.approx(np.sqrt(11.0))
    perm = np.array([2, 0, 1])
    assert l1_error(a[perm], b[perm]) == pytest.approx(l1_error(a, b))
    assert l2_error(a[perm], b[perm]) == pytest.approx(l2_error(a, b))


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def test_single_cell_row_matches_direct_fit():
    cfg = tiny_config(roster=("only-Lasso",), replications=1, base_seed=21)
    result = run_experiment(cfg)
    assert len(result.rows) == 1
    row = result.rows[0]

    rng = RngStream(cfg.base_seed, 0, (0, 0))
    target, sources, truth = generate(cfg, rng)
    fit = two_step_fit(target, sources, (), _transfer_config(cfg, "lasso", 0))
    assert row.l1_error == l1_error(fit.coef, truth.beta)
    assert row.l2_error == l2_error(fit.coef, truth.beta)
    assert row.selected is None
    assert result.informative_sets == [truth.informative]


def test_run_experiment_is_deterministic():
    cfg = tiny_config(
        roster=("only-FARM", "Oracle-Trans-Lasso"), replications=3, base_seed=4
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.aggregates() == r2.aggregates()
    for a, b in zip(r1.rows, r2.rows):
        assert (a.estimator, a.replication) == (b.estimator, b.replication)
        assert a.l1_error == b.l1_error and a.l2_error == b.l2_error
    assert r1.informative_sets == r2.informative_sets


def test_threads_do_not_change_results():
    cfg = tiny_config(roster=("only-FARM", "Pooled-Trans-FARM"), replications=2)
    serial = run_experiment(cfg, threads=1)
    parallel = run_experiment(cfg, threads=2)
    assert [r.l2_error for r in serial.rows] == [r.l2_error for r in parallel.rows]
    assert [r.l1_error for r in serial.rows] == [r.l1_error for r in parallel.rows]
    assert serial.informative_sets == parallel.informative_sets


def test_worker_count_is_capped_by_replications(monkeypatch):
    # a stand-in pool that records its size and maps in this process, so
    # no worker process is ever started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(transfarm.simlab, "ProcessPoolExecutor", RecordingPool)
    cfg = tiny_config(roster=("only-FARM",), replications=2)
    serial = run_experiment(cfg)
    pooled = run_experiment(cfg, threads=8)
    assert sizes == [2]
    assert [r.l2_error for r in pooled.rows] == [r.l2_error for r in serial.rows]
    run_experiment(replace(cfg, replications=1), threads=8)
    assert sizes == [2]  # one replication runs in-process
    for threads in (0, -3):
        with pytest.raises(ValueError, match=f"threads must be an integer of at least 1, got {threads}"):
            run_experiment(cfg, threads=threads)
    assert sizes == [2]


@pytest.mark.parametrize("threads", [2.5, True, 0, -3])
def test_threads_that_are_not_a_positive_integer_are_rejected_before_any_work(monkeypatch, threads):
    # 2.5 raised the stdlib's TypeError from the pool, and True ran as 1
    def untouched(*args, **kwargs):
        raise AssertionError("work started before threads was checked")

    monkeypatch.setattr(transfarm.simlab, "_draw_informative", untouched)
    monkeypatch.setattr(transfarm.simlab, "_run_replication", untouched)
    monkeypatch.setattr(transfarm.simlab, "ProcessPoolExecutor", untouched)
    message = f"threads must be an integer of at least 1, got {threads!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(tiny_config(replications=3, redraw_informative=False), threads=threads)


def counter(monkeypatch, module, name):
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_mode_fits_its_target_sigma_once(monkeypatch):
    sigma_calls = counter(monkeypatch, transfarm.transfer, "scaled_lasso")
    eig_calls = counter(monkeypatch, transfarm.factor, "sym_eig")
    cfg = tiny_config(roster=ALL_ESTIMATORS, replications=2, base_seed=13)
    result = run_experiment(cfg)
    assert len(sigma_calls) == 2 * cfg.replications  # one per mode and replication
    # one split per dataset in farm mode; lasso mode needs no eigendecomposition
    assert len(eig_calls) == (cfg.k_sources + 1) * cfg.replications
    assert not result.failures and len(result.rows) == 8 * cfg.replications
    eig_calls.clear()
    run_experiment(replace(cfg, roster=LASSO_ESTIMATORS))
    assert eig_calls == []

    # every row is what direct library calls give on a fresh draw
    for rep in range(cfg.replications):
        target, sources, truth = generate(cfg, RngStream(cfg.base_seed, 0, (0, rep)))
        direct = {}
        for mode, names in ((MODE_FARM, FARM_ESTIMATORS), (MODE_LASSO, LASSO_ESTIMATORS)):
            tcfg = _transfer_config(cfg, mode, rep)
            only, trans, oracle, pooled = names
            fit, report = detect_and_fit(target, sources, tcfg)
            direct[trans] = (fit.coef, report.selected)
            direct[only] = (two_step_fit(target, sources, (), tcfg).coef, None)
            direct[oracle] = (two_step_fit(target, sources, truth.informative, tcfg).coef, None)
            all_sources = tuple(range(1, cfg.k_sources + 1))
            direct[pooled] = (two_step_fit(target, sources, all_sources, tcfg).coef, None)
        for row in result.rows:
            if row.replication != rep:
                continue
            coef, selected = direct[row.estimator]
            assert row.l1_error == l1_error(coef, truth.beta)
            assert row.l2_error == l2_error(coef, truth.beta)
            assert row.selected == selected

    parallel = run_experiment(cfg, threads=2)
    key = lambda r: (r.estimator, r.replication, r.l1_error, r.l2_error, r.selected)
    assert [key(r) for r in parallel.rows] == [key(r) for r in result.rows]


@pytest.mark.parametrize("a_size", [0, 2])  # the oracle set is () or every source
def test_roster_makes_one_fit_per_source_set(monkeypatch, a_size):
    fit_calls = counter(monkeypatch, transfarm.simlab, "two_step_fit")
    detect_calls = counter(monkeypatch, transfarm.simlab, "detect_sources")
    cfg = tiny_config(roster=ALL_ESTIMATORS, replications=2, a_size=a_size, base_seed=21)
    result = run_experiment(cfg)
    assert not result.failures and len(result.rows) == 8 * cfg.replications
    all_sources = tuple(range(1, cfg.k_sources + 1))
    expected = 0
    for rep, informative in enumerate(result.informative_sets):
        for names in (FARM_ESTIMATORS, LASSO_ESTIMATORS):
            (selected,) = [r.selected for r in result.rows
                           if r.replication == rep and r.estimator == names[1]]
            expected += len({(), selected, informative, all_sources})
    assert len(fit_calls) == expected
    assert len(detect_calls) == 2 * cfg.replications


def test_fixed_informative_set_is_shared_across_replications():
    cfg = tiny_config(
        roster=("only-Lasso",), replications=3, redraw_informative=False, base_seed=8
    )
    result = run_experiment(cfg)
    assert len(set(result.informative_sets)) == 1
    gen = RngStream(8, 0, (1,)).generator()
    pick = gen.choice(cfg.k_sources, size=cfg.a_size, replace=False)
    expected = tuple(sorted(int(i) + 1 for i in pick))
    assert result.informative_sets[0] == expected


def test_redrawn_informative_sets_vary():
    cfg = tiny_config(
        k_sources=6, a_size=3, roster=("only-Lasso",), replications=6, base_seed=2
    )
    result = run_experiment(cfg)
    assert len(set(result.informative_sets)) > 1


def test_aggregates_cover_roster_only():
    cfg = tiny_config(roster=("only-Lasso", "Oracle-Trans-FARM"), replications=2)
    agg = run_experiment(cfg).aggregates()
    assert set(agg) == {"only-Lasso", "Oracle-Trans-FARM"}
    for stats in agg.values():
        assert stats["replications"] == 2
        assert stats["l2_stderr"] >= 0.0


def test_detection_seed_is_stable_per_replication():
    assert _detection_seed(5, 0) == _detection_seed(5, 0)
    assert _detection_seed(5, 0) != _detection_seed(5, 1)
    assert _detection_seed(5, 0) != _detection_seed(6, 0)


def test_replication_runner_reports_failures_as_data():
    # five target rows cannot host three detection folds; SimConfig refuses
    # such a design, so n0 is forced past the frozen check to reach the fit
    bad = tiny_config(s=2, roster=("Trans-FARM",))
    object.__setattr__(bad, "n0", 5)
    rows, _, failures = _run_replication(bad, 0, None)
    assert rows == [] and len(failures) == 1
    assert failures[0][1] == "Trans-FARM"


def test_failure_budget_aborts_experiment():
    bad = tiny_config(s=2, roster=("Trans-FARM",), replications=2)
    object.__setattr__(bad, "n0", 5)  # past SimConfig's check, so every detection fails
    with pytest.raises(RuntimeError, match="estimator runs failed"):
        run_experiment(bad)


def test_config_fields_cannot_be_assigned():
    # roster = "only-FARM" after construction ran 9 estimators named by letters,
    # and replications = 0 returned an empty result
    config = tiny_config()
    for name, value in [("roster", "only-FARM"), ("replications", 0)]:
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, value)
    assert config.roster == ALL_ESTIMATORS and config.replications == 30
    assert replace(config, roster=("only-FARM",)).roster == ("only-FARM",)
    with pytest.raises(ValueError, match="replications must be at least 1, got 0"):
        replace(config, replications=0)
    with pytest.raises(ValueError, match="roster must be a tuple"):
        replace(config, roster="only-FARM")


def test_config_validation():
    with pytest.raises(ValueError, match="exceeds p"):
        tiny_config(s=31)
    with pytest.raises(ValueError, match="a_size"):
        tiny_config(a_size=3)
    with pytest.raises(ValueError, match="gamma0"):
        tiny_config(gamma0=(0.5,))
    # an explicit gamma0 is never widened, even when it is the default value
    with pytest.raises(ValueError, match="gamma0 has length 2, expected rank 3"):
        SimConfig(rank=3, gamma0=(0.5, 0.5))
    with pytest.raises(ValueError, match="replications must be at least 1, got 0"):
        tiny_config(replications=0)
    with pytest.raises(ValueError, match="unknown estimators"):
        tiny_config(roster=("only-FARM", "ridge"))
    with pytest.raises(ValueError, match="roster must name at least one"):
        tiny_config(roster=())
    with pytest.raises(ValueError, match="s must be at least 0, got -1"):
        tiny_config(s=-1)
    with pytest.raises(ValueError, match="p must be at least 1, got 0"):
        tiny_config(p=0, s=0)
    with pytest.raises(ValueError, match="k_sources must be at least 0, got -1"):
        tiny_config(k_sources=-1, a_size=0)
    with pytest.raises(ValueError, match="rank must be at least 0, got -1"):
        tiny_config(rank=-1)
    for rho in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\)"):
            tiny_config(rho=rho)
    for name in ("eta", "signal", "rho", "cov_spike", "loading_width", "adversarial_mult",
                 "gamma_jitter_informative", "gamma_jitter_adversarial"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                tiny_config(**{name: bad})
    with pytest.raises(ValueError, match="gamma0 must be finite"):
        tiny_config(gamma0=(0.5, float("nan")))
    with pytest.raises(ValueError, match="base_seed must be at least 0, got -1"):
        tiny_config(base_seed=-1)
    with pytest.raises(ValueError, match=r"roster names \['only-FARM'\] more than once"):
        tiny_config(roster=("only-FARM", "Trans-Lasso", "only-FARM"))
    for name in ("Trans-FARM", "Trans-Lasso"):
        with pytest.raises(ValueError, match="need at least 6 target rows for 3 folds, got 5"):
            tiny_config(n0=5, s=2, roster=("only-FARM", name))
    # a non-integer would fail inside a replication, unnamed; a bool would pass
    for name, value in [("p", 50.5), ("replications", 1.5), ("k_sources", 2.0), ("n0", True),
                        ("folds", 2.5), ("base_seed", "1")]:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            tiny_config(**{name: value})
    assert tiny_config(p=np.int64(30), replications=np.int32(3)).p == 30
    # a string raised an unnamed TypeError, a bool passed as 0 or 1; a str
    # roster was read letter by letter and a scalar gamma0 was not iterable
    for name, value, message in [
        ("eta", "5", "eta must be a number, got '5'"),
        ("signal", True, "signal must be a number, got True"),
        ("eps0", "1", "eps0 must be a number, got '1'"),
        ("gamma0", (0.5, "0.5"), "gamma0 must be a number, got '0.5'"),
        ("roster", "only-FARM", "roster must be a tuple, got 'only-FARM'"),
        ("gamma0", 0.5, "gamma0 must be a tuple, got 0.5"),
        ("gamma0", [0.5, 0.5], "gamma0 must be a tuple, got [0.5, 0.5]"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_config(**{name: value})
    assert tiny_config(eta=2, gamma0=(1, np.float64(0.5))).gamma0 == (1, 0.5)
    # a truthy string such as "false" ran with the true rank
    for name in ("fix_rank", "redraw_informative"):
        for value in ("false", 0.0, 2, None):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be a bool, got {value!r}")):
                tiny_config(**{name: value})
        assert not getattr(tiny_config(**{name: np.False_}), name)
    assert tiny_config(n0=5, s=2, roster=ALL_ESTIMATORS, folds=2).n0 == 5
    assert tiny_config(n0=2, s=2, roster=("only-FARM", "Pooled-Trans-Lasso")).n0 == 2
    assert tiny_config(s=0, rho=0.0).s == 0
    assert set(ALL_ESTIMATORS) >= set(SimConfig().roster)


def test_stock_gamma0_follows_rank():
    # gamma0 = None stays None and generate reads it as 0.5 per factor,
    # as `simulate --sim-rank` alone gives
    for rank in (0, 1, 3):
        cfg = tiny_config(rank=rank)
        assert cfg.gamma0 is None
        _, _, truth = generate(cfg, RngStream(3, 0, (0, 0)))
        assert truth.gamma.tobytes() == np.array((0.5,) * rank).tobytes()


def test_replace_varies_rank_under_the_default_gamma0():
    # a filled-in default would pin the length to the first rank
    assert replace(SimConfig(), rank=3) == SimConfig(rank=3)
    assert replace(tiny_config(rank=0), rank=1).gamma0 is None
    # an explicit gamma0 is still checked against the new rank
    with pytest.raises(ValueError, match="gamma0 has length 3, expected rank 2"):
        replace(SimConfig(rank=3, gamma0=(0.5, 0.5, 0.5)), rank=2)
