"""Debiasing, bootstrap quantiles, adequacy test, simultaneous intervals."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import transfarm.factor
import transfarm.inference
from _oracles import gaussian_max_quantile
from transfarm.inference import (
    adequacy_test,
    debias,
    empirical_quantile,
    full_inference,
    multiplier_bootstrap,
    simultaneous_cis,
)
from transfarm.numerics import RngStream
from transfarm.simlab import SimConfig, generate
from transfarm.solver import nodewise_precision
from transfarm.transfer import Dataset, TransferConfig, detect_and_fit


def instance(n, p, seed, noise=1.0, s=0, signal=0.5):
    gen = np.random.default_rng(seed)
    u = gen.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:s] = signal
    y = u @ beta + noise * gen.standard_normal(n)
    return u, y, beta


# ----------------------------------------------------------------------
# debias
# ----------------------------------------------------------------------


def test_debias_zero_residual_is_identity():
    u, _, _ = instance(30, 5, 0)
    coef = np.array([1.0, 0.0, -2.0, 0.5, 0.0])
    out = debias(coef, u, u @ coef, np.eye(5))
    assert_allclose(out, coef, atol=1e-12)


def test_debias_zero_theta_is_identity():
    u, y, _ = instance(20, 4, 1)
    coef = np.ones(4)
    assert np.array_equal(debias(coef, u, y, np.zeros((4, 4))), coef)


def test_debias_matches_dense_recomputation():
    u, y, _ = instance(60, 8, 2)
    gen = np.random.default_rng(3)
    coef = gen.standard_normal(8)
    theta = gen.standard_normal((8, 8))
    direct = coef + theta @ (u.T @ (y - u @ coef)) / 60
    assert_allclose(debias(coef, u, y, theta), direct, atol=1e-10)


def test_debias_shape_checks():
    u, y, _ = instance(10, 3, 4)
    with pytest.raises(ValueError):
        debias(np.ones(4), u, y, np.eye(3))
    with pytest.raises(ValueError):
        debias(np.ones(3), u, y, np.eye(4))


# ----------------------------------------------------------------------
# multiplier bootstrap
# ----------------------------------------------------------------------


def test_bootstrap_zero_design_zero_draws():
    draws = multiplier_bootstrap(
        np.zeros((15, 4)), np.eye(4), 1.0, RngStream(0), draws=20
    )
    assert np.array_equal(draws, np.zeros(20))


def test_bootstrap_sigma_homogeneity_exact():
    u, _, _ = instance(40, 6, 5)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    base = multiplier_bootstrap(u, theta, 1.0, RngStream(7), draws=50)
    scaled = multiplier_bootstrap(u, theta, 1.7, RngStream(7), draws=50)
    assert np.array_equal(scaled, 1.7 * base)


def test_bootstrap_deterministic_per_stream():
    u, _, _ = instance(25, 5, 6)
    a = multiplier_bootstrap(u, np.eye(5), 2.0, RngStream(9), draws=30)
    b = multiplier_bootstrap(u, np.eye(5), 2.0, RngStream(9), draws=30)
    c = multiplier_bootstrap(u, np.eye(5), 2.0, RngStream(10), draws=30)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bootstrap_matches_gaussian_max_oracle():
    # orthonormal columns scaled by sqrt(n) make each draw the max of
    # p independent standard normals
    gen = np.random.default_rng(11)
    q, _ = np.linalg.qr(gen.standard_normal((200, 20)))
    u = q * math.sqrt(200.0)
    draws = multiplier_bootstrap(u, np.eye(20), 1.0, RngStream(12), draws=2000)
    ref = gaussian_max_quantile(20, 0.95)
    ours = empirical_quantile(draws, 0.95)
    assert abs(ours - ref) < 0.05 * ref


@pytest.mark.parametrize("bad", [0.5, 2.7, 2.0, np.float64(2.0), True, np.bool_(False)])
def test_bootstrap_group_rejects_non_integral_entries(bad):
    u, _, _ = instance(20, 4, 16)
    message = re.escape(f"group entries must be integers, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        multiplier_bootstrap(u, np.eye(4), 1.0, RngStream(0), draws=10, group=(1, bad))
    # numpy integers are integers
    draws = multiplier_bootstrap(u, np.eye(4), 1.0, RngStream(0), draws=10, group=(1, 2))
    by_numpy = multiplier_bootstrap(
        u, np.eye(4), 1.0, RngStream(0), draws=10, group=np.array([1, 2])
    )
    assert np.array_equal(draws, by_numpy)


def test_bootstrap_group_restriction_never_exceeds_full():
    u, _, _ = instance(30, 6, 13)
    full = multiplier_bootstrap(u, np.eye(6), 1.0, RngStream(14), draws=40)
    sub = multiplier_bootstrap(
        u, np.eye(6), 1.0, RngStream(14), draws=40, group=(0, 2)
    )
    assert np.all(sub <= full + 1e-15)


def test_bootstrap_validation():
    u, _, _ = instance(10, 3, 15)
    with pytest.raises(ValueError):
        multiplier_bootstrap(u, np.eye(4), 1.0, RngStream(0))
    with pytest.raises(ValueError):
        multiplier_bootstrap(u, np.eye(3), -1.0, RngStream(0))
    with pytest.raises(ValueError):
        multiplier_bootstrap(u, np.eye(3), 1.0, RngStream(0), draws=0)
    with pytest.raises(ValueError):
        multiplier_bootstrap(u, np.eye(3), 1.0, RngStream(0), group=(5,))
    with pytest.raises(ValueError):
        multiplier_bootstrap(u, -np.eye(3), 1.0, RngStream(0), studentized=True)


@pytest.mark.parametrize("draws", [2.5, True, 0, -3, 500.0])
def test_bootstrap_rejects_draws_that_are_not_a_positive_integer(draws):
    # 2.5 and True raised numpy TypeErrors from inside the draw loop
    u, _, _ = instance(10, 3, 15)
    with pytest.raises(ValueError, match=re.escape(f"draws must be an integer of at least 1, got {draws!r}")):
        multiplier_bootstrap(u, np.eye(3), 1.0, RngStream(0), draws=draws)


# ----------------------------------------------------------------------
# empirical quantile
# ----------------------------------------------------------------------


def test_quantile_small_table():
    draws = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert empirical_quantile(draws, 0.5) == 3.0
    assert empirical_quantile(draws, 0.2) == 1.0
    assert empirical_quantile(draws, 0.21) == 2.0
    assert empirical_quantile(draws, 0.999) == 5.0


def test_quantile_of_absolute_normals():
    gen = np.random.default_rng(16)
    draws = np.abs(gen.standard_normal(10000))
    assert abs(empirical_quantile(draws, 0.95) - 1.96) < 0.05


def test_quantile_monotone_in_level():
    gen = np.random.default_rng(17)
    draws = gen.standard_normal(200)
    levels = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    values = [empirical_quantile(draws, lv) for lv in levels]
    assert values == sorted(values)


def test_quantile_validation():
    with pytest.raises(ValueError):
        empirical_quantile(np.array([]), 0.5)
    with pytest.raises(ValueError):
        empirical_quantile(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        empirical_quantile(np.ones(3), 1.0)


# ----------------------------------------------------------------------
# adequacy test
# ----------------------------------------------------------------------


def test_adequacy_never_rejects_at_zero():
    u, _, _ = instance(40, 6, 18)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    res = adequacy_test(
        np.zeros(6), u, np.zeros(40), theta, 1.0, RngStream(19), alpha=0.05, draws=100
    )
    assert res.statistic == 0.0
    assert res.reject is False


def test_adequacy_reject_flag_consistent():
    u, y, _ = instance(50, 8, 20, s=4, signal=1.0)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    res = adequacy_test(np.zeros(8), u, y, theta, 1.0, RngStream(21), draws=200)
    assert res.reject == (res.statistic > res.quantile)
    assert res.statistic == math.sqrt(50) * float(np.max(np.abs(res.beta_tilde)))


def test_adequacy_interval_halfwidth_is_uniform():
    u, y, _ = instance(30, 5, 22)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    res = adequacy_test(np.zeros(5), u, y, theta, 1.5, RngStream(23), draws=150)
    widths = res.upper - res.lower
    assert_allclose(widths, widths[0])
    assert_allclose((res.upper + res.lower) / 2.0, res.beta_tilde, atol=1e-12)


def test_adequacy_is_the_plain_all_coordinate_interval_view():
    u, y, _ = instance(50, 8, 20, s=4, signal=1.0)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    test = adequacy_test(np.zeros(8), u, y, theta, 1.0, RngStream(21), draws=200)
    cis = simultaneous_cis(
        np.zeros(8), u, y, theta, 1.0, RngStream(21), group=None, studentized=False,
        draws=200,
    )
    for name in ("lower", "upper", "quantile", "statistic", "beta_tilde"):
        assert np.array_equal(getattr(test, name), getattr(cis, name)), name
    assert test.reject == (test.statistic > test.quantile)


# ----------------------------------------------------------------------
# simultaneous intervals
# ----------------------------------------------------------------------


def test_cis_studentized_halfwidth_closed_form():
    u, y, _ = instance(60, 7, 24, s=3)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    res = simultaneous_cis(
        np.zeros(7), u, y, theta, 1.0, RngStream(25), studentized=True, draws=300
    )
    diag = np.diagonal(theta)[list(res.group)]
    half = np.sqrt(diag) * res.quantile / math.sqrt(60)
    centers = res.beta_tilde[list(res.group)]
    # bitwise: the stored bounds come from this exact expression
    assert np.array_equal(res.lower, centers - half)
    assert np.array_equal(res.upper, centers + half)
    ratio = (res.upper - res.lower) / (res.upper[0] - res.lower[0])
    assert_allclose(ratio, np.sqrt(diag / diag[0]), rtol=1e-12)


def test_cis_plain_width_constant():
    u, y, _ = instance(40, 6, 26)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    res = simultaneous_cis(
        np.zeros(6), u, y, theta, 1.0, RngStream(27), studentized=False, draws=100
    )
    widths = res.upper - res.lower
    assert_allclose(widths, widths[0])


def test_cis_equal_diagonal_reduces_to_plain():
    u, y, _ = instance(35, 5, 28)
    theta = 2.5 * np.eye(5)
    plain = simultaneous_cis(
        np.zeros(5), u, y, theta, 1.0, RngStream(29), studentized=False, draws=120
    )
    stu = simultaneous_cis(
        np.zeros(5), u, y, theta, 1.0, RngStream(29), studentized=True, draws=120
    )
    assert_allclose(stu.lower, plain.lower, rtol=1e-12)
    assert_allclose(stu.upper, plain.upper, rtol=1e-12)


def test_cis_alpha_near_one_shrinks_to_minimum_draw():
    u, y, _ = instance(30, 4, 30)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    res = simultaneous_cis(
        np.zeros(4), u, y, theta, 1.0, RngStream(31), alpha=0.999, draws=500,
        studentized=False,
    )
    sample = multiplier_bootstrap(
        u, theta, 1.0, RngStream(31), draws=500, studentized=False
    )
    assert res.quantile == float(np.min(sample))


def test_cis_group_subset():
    u, y, _ = instance(45, 8, 32)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    res = simultaneous_cis(
        np.zeros(8), u, y, theta, 1.0, RngStream(33), group=(1, 4, 6), draws=100
    )
    assert res.group == (1, 4, 6)
    assert res.lower.shape == (3,)
    for i, g in enumerate(res.group):
        assert res.lower[i] <= res.beta_tilde[g] <= res.upper[i]


def test_cis_and_adequacy_accept_a_nested_list_design():
    # both read u.shape before any check, so a list raised AttributeError,
    # though debias and the bootstrap accept one
    u, y, _ = instance(30, 4, 39)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    coef = np.full(4, 0.1)
    for fn in (simultaneous_cis, adequacy_test):
        want = fn(coef, u, y, theta, 1.0, RngStream(40), draws=100)
        assert_bitwise_equal(fn(coef, u.tolist(), y, theta, 1.0, RngStream(40), draws=100), want)


def test_quantile_grows_with_confidence():
    u, y, _ = instance(40, 6, 34)
    theta = nodewise_precision(u, lambda_node=0.0).theta
    narrow = simultaneous_cis(
        np.zeros(6), u, y, theta, 1.0, RngStream(35), alpha=0.2, draws=200
    )
    wide = simultaneous_cis(
        np.zeros(6), u, y, theta, 1.0, RngStream(35), alpha=0.01, draws=200
    )
    assert wide.quantile >= narrow.quantile


# ----------------------------------------------------------------------
# full pipeline
# ----------------------------------------------------------------------


def test_full_inference_without_sources():
    gen = np.random.default_rng(36)
    x = gen.standard_normal((80, 12))
    beta = np.zeros(12)
    beta[:2] = 1.0
    y = x @ beta + gen.standard_normal(80)
    target = Dataset(x=x, y=y)
    test, cis, fit, report = full_inference(
        target, [], TransferConfig(mode="lasso"), rng=RngStream(37), draws=100
    )
    assert report is None
    assert test.reject is True  # strong signal
    assert cis.reject is None
    assert len(cis.group) == 12


def test_full_inference_rejects_bad_draws_before_any_fit(monkeypatch):
    # draws=2.5, alpha=1.5 and a group outside [0, p) or empty each ran
    # detection, the fit and the nodewise precision first
    def untouched(*args, **kwargs):
        raise AssertionError("a fit ran before draws, alpha and group were checked")

    for name in ("two_step_fit", "detect_and_fit", "nodewise_precision"):
        monkeypatch.setattr(transfarm.inference, name, untouched)
    x = np.random.default_rng(38).standard_normal((30, 4))
    cases = [
        ({"draws": 2.5}, "draws must be an integer of at least 1, got 2.5"),
        ({"alpha": 1.5}, "alpha must lie strictly inside (0, 1), got 1.5"),
        ({"group": (4,)}, "group indices must lie in [0, 3]"),
        ({"group": ()}, "group must be nonempty"),
    ]
    for kw, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            full_inference(Dataset(x=x, y=x[:, 0]), [Dataset(x=x, y=x[:, 1])], **kw)


@pytest.mark.parametrize("mode", ["farm", "lasso"])
@pytest.mark.parametrize("seed", range(6))
def test_full_inference_is_equivariant_to_response_scale(mode, seed):
    design = SimConfig(n0=60, nk=60, p=20, s=3, k_sources=3, a_size=1)
    target, sources, _ = generate(design, RngStream(seed))
    config = TransferConfig(mode=mode)
    test, cis, fit, report = full_inference(target, sources, config, draws=200)
    for k in (-3, 5):
        # a power of two rescales every float operation exactly
        c = 2.0**k
        scaled = [Dataset(x=d.x, y=c * d.y) for d in [target, *sources]]
        test_c, cis_c, fit_c, report_c = full_inference(scaled[0], scaled[1:], config, draws=200)
        assert report_c.selected == report.selected
        assert fit_c.sigma_hat == c * fit.sigma_hat
        for got, want in ((test_c, test), (cis_c, cis)):
            for name in ("beta_tilde", "lower", "upper"):
                assert np.array_equal(getattr(got, name), c * getattr(want, name))
            for name in ("statistic", "quantile"):
                assert getattr(got, name) == c * getattr(want, name)
            assert got.reject == want.reject
            assert got.theta.tobytes() == want.theta.tobytes()


def assert_bitwise_equal(a, b):
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (dict, tuple)):
        items = a.items() if isinstance(a, dict) else enumerate(a)
        assert len(a) == len(b)
        for k, v in items:
            assert_bitwise_equal(v, b[k])
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert a == b


@pytest.mark.parametrize("mode", ["farm", "lasso"])
def test_reused_datasets_give_bitwise_equal_results_without_new_splits(mode, monkeypatch):
    gen = np.random.default_rng(38)
    arrays = []
    for _ in range(3):
        f = gen.standard_normal((60, 2))
        x = f @ gen.uniform(-1.0, 1.0, (10, 2)).T + gen.standard_normal((60, 10))
        arrays.append((x, x[:, 0] + f.sum(axis=1) + gen.standard_normal(60)))

    def build():
        return [Dataset(x=x.copy(), y=y.copy()) for x, y in arrays]

    def run(make):
        target, *sources = make()
        fit = detect_and_fit(target, sources, config)
        target, *sources = make()
        return fit, full_inference(target, sources, config, draws=100)

    config = TransferConfig(mode=mode, seed=5)
    datasets = build()
    detect_and_fit(datasets[0], datasets[1:], config)
    real = transfarm.factor.sym_eig
    calls = []
    monkeypatch.setattr(transfarm.factor, "sym_eig", lambda a: calls.append(1) or real(a))
    reused = run(lambda: datasets)
    assert calls == []  # the first call made every split
    assert not reused[0][0].decompositions[0].idiosyncratic.flags.writeable
    assert_bitwise_equal(reused, run(build))
