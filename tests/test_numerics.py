"""Eigensolver contract, RNG streams, and gaussian sampling."""

from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import charpoly_eig, fix_sign
from transfarm.numerics import (
    RngStream,
    check_fields,
    check_fraction,
    spiked_ar1_normal,
    sym_eig,
)

SEEDS = [0, 1, 2, 3, 4]


def random_symmetric(n, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    return (a + a.T) / 2.0


# ----------------------------------------------------------------------
# sym_eig
# ----------------------------------------------------------------------


def test_identity_eigen():
    res = sym_eig(np.eye(3))
    assert_allclose(res.eigenvalues, np.ones(3))
    assert_allclose(res.eigenvectors, np.eye(3))


def test_matches_charpoly_oracle():
    a = random_symmetric(6, 42)
    res = sym_eig(a)
    ref_values, ref_vectors = charpoly_eig(a)
    assert_allclose(res.eigenvalues, ref_values, atol=1e-8)
    assert_allclose(res.eigenvectors, ref_vectors, atol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_equals_eigenvalue_sum(seed):
    a = random_symmetric(7, seed)
    res = sym_eig(a)
    assert_allclose(np.trace(a), np.sum(res.eigenvalues), rtol=1e-7)


@pytest.mark.parametrize("seed", SEEDS)
def test_orthonormal_and_reconstructs(seed):
    a = random_symmetric(9, seed + 100)
    res = sym_eig(a)
    v = res.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(9))) < 1e-10
    resid = a @ v - v * res.eigenvalues
    assert np.max(np.abs(resid)) < 1e-8


def test_descending_order_and_sign_convention():
    a = random_symmetric(8, 7)
    res = sym_eig(a)
    assert np.all(np.diff(res.eigenvalues) <= 0)
    for j in range(8):
        col = res.eigenvectors[:, j]
        assert np.array_equal(col, fix_sign(col))


def test_deterministic_including_signs():
    a = random_symmetric(10, 11)
    first = sym_eig(a)
    second = sym_eig(a)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eig(np.arange(6.0).reshape(2, 3))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        sym_eig(skew)


# ----------------------------------------------------------------------
# rng streams
# ----------------------------------------------------------------------


def test_same_stream_is_bitwise_identical():
    a = RngStream(3, 1).generator().standard_normal((10, 4))
    b = RngStream(3, 1).generator().standard_normal((10, 4))
    assert np.array_equal(a, b)


def test_standard_normal_moments():
    draws = RngStream(0).generator().standard_normal((100000, 1)).ravel()
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.02


def test_distinct_streams_decorrelated():
    a = RngStream(0, 0).generator().standard_normal((10000, 1)).ravel()
    b = RngStream(0, 1).generator().standard_normal((10000, 1)).ravel()
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_substream_keys_partition_the_stream():
    root = RngStream(9)
    x = root.substream(2, 5).generator(1).standard_normal(8)
    y = root.substream(2, 5).generator(1).standard_normal(8)
    z = root.substream(2, 6).generator(1).standard_normal(8)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)


# ----------------------------------------------------------------------
# spiked AR(1) sampling
# ----------------------------------------------------------------------


def ar1_correlation(rho, p):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def test_identity_covariance_moments():
    draws = spiked_ar1_normal(RngStream(1), 50000, 0.0, np.zeros(3))
    assert np.max(np.abs(draws.mean(axis=0))) < 0.03
    emp = draws.T @ draws / 50000
    assert np.max(np.abs(emp - np.eye(3))) < 0.03


def test_toeplitz_empirical_covariance():
    draws = spiked_ar1_normal(RngStream(2), 50000, 0.5, np.zeros(20))
    emp = draws.T @ draws / 50000
    # law-of-large-numbers check on every entry
    assert np.max(np.abs(emp - ar1_correlation(0.5, 20))) < 0.03


def test_spiked_empirical_covariance():
    spike = 0.3 * np.random.default_rng(5).standard_normal(20)
    draws = spiked_ar1_normal(RngStream(3), 50000, 0.5, spike)
    emp = draws.T @ draws / 50000
    assert np.max(np.abs(emp - ar1_correlation(0.5, 20) - np.outer(spike, spike))) < 0.03


@pytest.mark.parametrize("spiked", [False, True])
@pytest.mark.parametrize("p", [1, 2, 37])
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_matches_dense_cholesky_factor(rho, p, spiked):
    # the rows are z·Lᵀ for the Cholesky factor L of T + s·sᵀ and the
    # standard-normal draw z of the stream's generator
    spike = np.random.default_rng(p).standard_normal(p) if spiked else np.zeros(p)
    rng = RngStream(7, 0, (1,))
    z = rng.generator().standard_normal((50, p))
    lower = np.linalg.cholesky(ar1_correlation(rho, p) + np.outer(spike, spike))
    x = spiked_ar1_normal(rng, 50, rho, spike)
    assert x.shape == (50, p) and x.flags.c_contiguous
    assert np.max(np.abs(x - z @ lower.T)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize(
    "n, rho, spike, message",
    [
        (10, 1.0, np.zeros(3), r"rho must lie in \[0, 1\), got 1.0"),
        (10, -0.1, np.zeros(3), r"rho must lie in \[0, 1\), got -0.1"),
        (10, 0.5, np.array([0.0, np.nan, 1.0]), "spike contains non-finite entries"),
        (10, 0.5, np.zeros((2, 3)), r"spike must be 1-dimensional, got shape \(2, 3\)"),
        (0, 0.5, np.zeros(3), "row count n must be an integer of at least 1, got 0"),
    ],
    ids=["rho-1", "rho-negative", "spike-nan", "spike-2d", "n-0"],
)
def test_sampler_rejects_bad_arguments(n, rho, spike, message):
    with pytest.raises(ValueError, match=message):
        spiked_ar1_normal(RngStream(0), n, rho, spike)


@dataclass
class Knobs:
    # annotations as text, as in a module that postpones them
    count: "int" = 1
    scale: "float | None" = None
    sizes: "tuple[int, ...]" = ()


def test_check_fields_bounds_each_field_by_its_table():
    check_fields(Knobs(), {"count": 1, "scale": 0.0})
    check_fields(Knobs(count=np.int8(1), scale=0.0), {"count": 1, "scale": 0.0})
    with pytest.raises(ValueError, match="count must be at least 1, got 0"):
        check_fields(Knobs(count=0), {"count": 1})
    with pytest.raises(ValueError, match="scale must be at least 0.0, got -0.5"):
        check_fields(Knobs(scale=-0.5), {"scale": 0.0})
    # a field without a bound takes any value of its type
    check_fields(Knobs(count=-7, scale=-0.5), {})
    # a tuple's entries are checked as its annotation names them
    with pytest.raises(ValueError, match="sizes must be an integer, got 1.5"):
        check_fields(Knobs(sizes=(1, 1.5)), {})
    # a misspelt bound would never apply; it fails even on good values
    with pytest.raises(TypeError, match=r"Knobs has no fields \['cuont'\]"):
        check_fields(Knobs(), {"count": 1, "cuont": 1})


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")])
def test_check_fraction_takes_the_open_interval_only(value):
    check_fraction(1e-12, "alpha")
    check_fraction(1.0 - 1e-12, "alpha")
    with pytest.raises(ValueError, match=r"alpha must lie strictly inside \(0, 1\), got"):
        check_fraction(value, "alpha")
