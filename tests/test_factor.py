"""Factor split: rank choice, decomposition invariants, projections."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import transfarm.factor
from _oracles import charpoly_eig
from transfarm.factor import (
    decompose,
    residualize,
    select_rank,
)
from transfarm.numerics import DegenerateError

INVARIANT_TOL = 1e-8


def factor_data(n, p, r, seed, noise=0.1):
    gen = np.random.default_rng(seed)
    f = gen.standard_normal((n, r))
    b = gen.uniform(-1.0, 1.0, (p, r))
    return f @ b.T + noise * gen.standard_normal((n, p))


# ----------------------------------------------------------------------
# select_rank
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "eigenvalues, max_rank, expected",
    [
        ((100.0, 1.0, 0.9, 0.8), 3, 1),
        ((50.0, 40.0, 2.0, 1.5, 1.2), 4, 2),
    ],
)
def test_select_rank_ratio_table(eigenvalues, max_rank, expected):
    assert select_rank(np.array(eigenvalues), max_rank) == expected


def test_select_rank_scale_invariant():
    values = np.array([50.0, 40.0, 2.0, 1.5, 1.2])
    assert select_rank(values, 4) == select_rank(7.3 * values, 4)
    assert select_rank(values, 4) == select_rank(values / 512.0, 4)


def test_select_rank_floors_tiny_eigenvalues():
    # near-zero tail must not produce 0/0 ratios
    values = np.array([100.0, 1e-30, 1e-31, 0.0])
    assert select_rank(values, 3) == 1


def test_select_rank_errors():
    values = np.array([3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        select_rank(values, 0)
    with pytest.raises(ValueError):
        select_rank(values, 3)  # needs max_rank + 1 eigenvalues


def test_select_rank_all_zero_spectrum_is_degenerate():
    # an all-zero design has no factor to find: the spectrum, not the
    # argument's form, is at fault, so the error is not a ValueError
    with pytest.raises(DegenerateError, match="leading eigenvalue must be positive") as got:
        select_rank(np.zeros(4), 2)
    assert not isinstance(got.value, ValueError)


def test_rank_search_cap(monkeypatch):
    # the automatic rank searches min(min(n, p) // 2, MAX_RANK_CAP) candidates
    seen = []

    def spy(gram_eigenvalues, max_rank):
        seen.append(max_rank)
        return select_rank(gram_eigenvalues, max_rank)

    monkeypatch.setattr(transfarm.factor, "select_rank", spy)
    for n, p in [(10, 20), (400, 500), (60, 12)]:
        decompose(factor_data(n, p, 2, 3))
    assert seen == [5, 15, 6]


# ----------------------------------------------------------------------
# decompose
# ----------------------------------------------------------------------


def test_noiseless_rank_one_is_absorbed():
    gen = np.random.default_rng(0)
    f = gen.standard_normal(12)
    b = gen.standard_normal(5)
    x = np.outer(f, b)
    d = decompose(x, rank=1)
    assert np.max(np.abs(d.idiosyncratic)) <= 1e-8


def test_rank_zero_passthrough():
    x = np.arange(12.0).reshape(4, 3)
    d = decompose(x, rank=0)
    assert np.array_equal(d.idiosyncratic, x)
    assert d.factors.shape == (4, 0)
    assert d.loadings.shape == (3, 0)


def test_rank_zero_makes_no_eigendecomposition(monkeypatch):
    calls = []
    monkeypatch.setattr(transfarm.factor, "sym_eig", lambda a: calls.append(a))
    x = np.random.default_rng(4).standard_normal((6, 5))
    x[0, 0] = -0.0
    d = decompose(x, rank=0)
    assert calls == []
    assert d.idiosyncratic.tobytes() == x.tobytes()
    assert d.gram_eigenvalues.shape == (0,)


def test_factors_match_charpoly_oracle():
    x = np.random.default_rng(3).standard_normal((8, 5))
    d = decompose(x, rank=2)
    _, ref_vectors = charpoly_eig(x @ x.T, top_k=2)
    assert_allclose(d.factors / np.sqrt(8), ref_vectors, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposition_invariants(seed):
    x = factor_data(40, 25, 2, seed)
    d = decompose(x, rank=2)
    n = x.shape[0]
    assert np.max(np.abs(d.factors.T @ d.factors / n - np.eye(2))) < INVARIANT_TOL
    assert np.max(np.abs(d.idiosyncratic.T @ d.factors)) < INVARIANT_TOL * n
    recon = d.factors @ d.loadings.T + d.idiosyncratic
    assert np.max(np.abs(recon - x)) < INVARIANT_TOL
    btb = d.loadings.T @ d.loadings
    assert np.max(np.abs(btb - np.diag(np.diagonal(btb)))) < INVARIANT_TOL


def test_auto_rank_on_strong_factors():
    # small-scale screen; the full Monte-Carlo lives in the acceptance suite
    hits = 0
    for seed in range(10):
        x = factor_data(100, 80, 2, seed, noise=1.0)
        if decompose(x).rank == 2:
            hits += 1
    assert hits == 10


def test_auto_rank_on_narrow_design_keeps_idiosyncratic_signal():
    # a narrow design is exactly rank p, so an uncapped ratio search would
    # pick rank = p and zero out the idiosyncratic block
    g = np.random.default_rng(0)
    for _ in range(5):
        d = decompose(g.standard_normal((50, 8)))
        assert 1 <= d.rank <= 4
        assert np.abs(d.idiosyncratic).max() > 1e-3
    with pytest.raises(ValueError, match="usable columns"):
        decompose(g.standard_normal((10, 1)))


def test_scale_equivariance():
    x = factor_data(30, 20, 2, 5)
    base = decompose(x, rank=2)
    scaled = decompose(2.0 * x, rank=2)
    assert_allclose(scaled.factors, base.factors, atol=1e-12)
    assert_allclose(scaled.loadings, 2.0 * base.loadings, atol=1e-12)
    assert_allclose(scaled.idiosyncratic, 2.0 * base.idiosyncratic, atol=1e-12)


@pytest.mark.parametrize(
    "n, p, rank",
    [(20, 50, 2), (60, 12, 3), (20, 50, None), (60, 12, None), (20, 50, 0), (60, 12, 0)],
)
def test_split_is_kept_in_factored_form(n, p, rank):
    x = factor_data(n, p, 2, 21)
    d = decompose(x, rank)
    u = d.idiosyncratic
    # re-formed on read by the expression the split defines
    assert u.tobytes() == (x - d.factors @ d.loadings.T).tobytes()
    assert not u.flags.writeable
    assert not d.x.flags.writeable and np.shares_memory(d.x, x)
    assert np.shares_memory(u, x) == (d.rank == 0)
    # only the design itself is held at n x p
    big = [
        name for name, value in vars(d).items()
        if isinstance(value, np.ndarray) and value.size == n * p
    ]
    assert big == ["x"]


def test_rank_bounds_checked():
    x = factor_data(10, 6, 1, 0)
    with pytest.raises(ValueError):
        decompose(x, rank=7)
    with pytest.raises(ValueError):
        decompose(x, rank=-1)


# ----------------------------------------------------------------------
# residualize
# ----------------------------------------------------------------------


def test_residualize_rank_zero_identity():
    x = factor_data(15, 6, 1, 1)
    d = decompose(x, rank=0)
    y = np.arange(15.0)
    out = residualize(y, d)
    assert np.array_equal(out, y)
    assert out is not y


def test_residualize_kills_factor_span():
    d = decompose(factor_data(20, 10, 2, 4), rank=2)
    y = d.factors @ np.array([1.3, -0.7])
    assert np.max(np.abs(residualize(y, d))) < 1e-8


def test_residualize_matches_direct_projection():
    d = decompose(factor_data(10, 7, 2, 6), rank=2)
    y = np.random.default_rng(8).standard_normal(10)
    direct = y - d.factors @ (d.factors.T @ y) / 10
    assert_allclose(residualize(y, d), direct, atol=1e-10)
    once = residualize(y, d)
    assert_allclose(residualize(once, d), once, atol=1e-10)


def test_projection_identity():
    d = decompose(factor_data(18, 8, 2, 13), rank=2)
    y = np.random.default_rng(14).standard_normal(18)
    back = residualize(y, d) + d.factors @ (d.factors.T @ y / 18)
    assert np.max(np.abs(back - y)) < 1e-8


def test_length_mismatch_rejected():
    d = decompose(factor_data(10, 5, 1, 0), rank=1)
    with pytest.raises(ValueError):
        residualize(np.ones(9), d)
