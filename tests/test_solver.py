"""Penalized solvers against brute-force references."""

import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import nodewise_oracle, ols, pooled_objective, split_lasso
from transfarm import solver
from transfarm.numerics import ConvergenceError, RngStream
from transfarm.simlab import SimConfig, generate
from transfarm.solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    GramPiece,
    LassoProblem,
    _active_set_finish,
    _fit_gram,
    _scaled,
    _support_point,
    gram_piece,
    lasso_fit,
    nodewise_precision,
    penalty_level,
    scaled_lasso,
    sum_pieces,
)


def sparse_instance(n, p, s, seed, noise=1.0, beta_value=1.0):
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:s] = beta_value
    r = z @ beta + noise * gen.standard_normal(n)
    return z, r, beta


# ----------------------------------------------------------------------
# lasso_fit
# ----------------------------------------------------------------------


def test_full_shrinkage_returns_exact_zero():
    z, r, _ = sparse_instance(30, 6, 2, 0)
    lam_max = float(np.max(np.abs(z.T @ r))) / 30
    sol = lasso_fit(LassoProblem([(z, r)], lam=lam_max * 1.0001))
    assert np.array_equal(sol.coef, np.zeros(6))
    assert sol.converged


def test_zero_penalty_matches_normal_equations():
    z, r, _ = sparse_instance(60, 8, 3, 1)
    sol = lasso_fit(LassoProblem([(z, r)], lam=0.0))
    assert_allclose(sol.coef, ols(z, r), atol=1e-6)


def test_matches_projected_gradient_reference():
    z, r, _ = sparse_instance(20, 3, 2, 2, noise=0.5)
    sol = lasso_fit(LassoProblem([(z, r)], lam=0.1), tol=1e-10)
    ref = split_lasso([(z, r)], 0.1)
    assert_allclose(sol.coef, ref, atol=1e-5)
    assert abs(sol.objective - pooled_objective([(z, r)], ref, 0.1)) < 1e-9


def test_pooled_blocks_match_projected_gradient():
    z1, r1, _ = sparse_instance(15, 4, 2, 3, noise=0.3)
    z2, r2, _ = sparse_instance(25, 4, 2, 4, noise=0.3)
    blocks = [(z1, r1), (z2, r2)]
    sol = lasso_fit(LassoProblem(blocks, lam=0.05), tol=1e-10)
    assert_allclose(sol.coef, split_lasso(blocks, 0.05), atol=1e-5)


def test_offset_matches_projected_gradient():
    z, r, _ = sparse_instance(30, 5, 2, 5, noise=0.4)
    offset = np.array([0.5, -0.2, 0.0, 0.1, 0.0])
    sol = lasso_fit(LassoProblem([(z, r)], lam=0.08, offset=offset), tol=1e-10)
    assert_allclose(sol.coef, split_lasso([(z, r)], 0.08, offset=offset), atol=1e-5)


def test_offset_equals_shifted_response():
    z, r, _ = sparse_instance(25, 4, 2, 6)
    offset = np.array([0.3, 0.0, -0.4, 0.0])
    with_offset = lasso_fit(LassoProblem([(z, r)], lam=0.07, offset=offset))
    shifted = lasso_fit(LassoProblem([(z, r - z @ offset)], lam=0.07))
    assert_allclose(with_offset.coef, shifted.coef, atol=1e-9)


def test_objective_non_increasing_across_sweeps():
    z, r, _ = sparse_instance(40, 10, 4, 7, noise=0.8)
    problem = LassoProblem([(z, r)], lam=0.02)
    objectives = [lasso_fit(problem, max_iter=k).objective for k in range(1, 9)]
    for before, after in zip(objectives, objectives[1:]):
        assert after <= before + 1e-12


def test_warm_start_changes_iterations_not_solution():
    worst = 0.0
    for seed in range(20):
        z, r, _ = sparse_instance(35, 8, 3, 100 + seed, noise=0.6)
        problem = LassoProblem([(z, r)], lam=0.05)
        cold = lasso_fit(problem, tol=1e-10)
        warm = lasso_fit(problem, tol=1e-10, warm_start=cold.coef + 0.01)
        worst = max(worst, float(np.max(np.abs(cold.coef - warm.coef))))
        assert warm.converged
    assert worst < 1e-6


@st.composite
def cold_and_warm_starts(draw):
    """A lasso on Gram pieces, with or without an offset, and a random
    warm start: some entries zero, the rest at one of three scales."""
    p = draw(st.integers(1, 30))
    n = draw(st.integers(2, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = gen.standard_normal((n, p))
    r = z[:, : max(1, p // 4)].sum(axis=1) + gen.standard_normal(n)
    a, qn, r0n = gram_of(z, r)
    offset = gen.standard_normal(p) if draw(st.booleans()) else None
    base = qn if offset is None else qn - a @ offset
    lam = draw(st.floats(0.02, 0.9)) * float(np.abs(base).max())
    start = gen.standard_normal(p) * draw(st.sampled_from([0.01, 1.0, 100.0]))
    start[gen.random(p) < draw(st.floats(0.0, 1.0))] = 0.0
    return a, qn, r0n, lam, offset, start


def solve_and_spy(a, qn, r0n, lam, offset, start):
    """_fit_gram's coefficients, and whether the solve ended on the
    active-set finish: a finish that returns a point ends the solve."""
    returned = []
    real = solver._active_set_finish

    def spy(*args):
        out = real(*args)
        returned.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_active_set_finish", spy)
        delta = _fit_gram(a, qn, r0n, lam, offset, start, DEFAULT_TOL, DEFAULT_MAX_ITER)[0]
    return delta, any(returned)


@settings(max_examples=60, deadline=None)
@given(cold_and_warm_starts())
def test_solves_ending_on_the_finish_are_path_independent(problem):
    # the finish returns the support point of its support and signs, so
    # the start changes how many sweeps find it, not one bit of it
    *pieces, start = problem
    cold, cold_finished = solve_and_spy(*pieces, None)
    warm, warm_finished = solve_and_spy(*pieces, start)
    assume(cold_finished and warm_finished)
    assert cold.tobytes() == warm.tobytes()


def test_block_permutation_invariance():
    rng = np.random.default_rng(9)
    blocks = []
    for _ in range(3):
        z = rng.standard_normal((12, 5))
        blocks.append((z, rng.standard_normal(12)))
    forward = lasso_fit(LassoProblem(blocks, lam=0.04))
    backward = lasso_fit(LassoProblem(blocks[::-1], lam=0.04))
    assert_allclose(forward.coef, backward.coef, atol=1e-10)


def test_kkt_violation_reported_on_convergence():
    z, r, _ = sparse_instance(50, 12, 4, 8)
    sol = lasso_fit(LassoProblem([(z, r)], lam=0.03), tol=1e-8)
    scale = math.sqrt(float(r @ r) / 50)
    assert sol.converged
    assert sol.kkt_violation <= 1e-8 * scale


def test_iteration_cap_flags_not_raises():
    z, r, _ = sparse_instance(40, 15, 5, 10, noise=0.1)
    sol = lasso_fit(LassoProblem([(z, r)], lam=1e-6), max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1


def test_problem_validation():
    z = np.ones((4, 2))
    with pytest.raises(ValueError):
        LassoProblem([], lam=0.1)
    with pytest.raises(ValueError):
        LassoProblem([(z, np.ones(3))], lam=0.1)
    with pytest.raises(ValueError):
        LassoProblem([(z, np.ones(4)), (np.ones((4, 3)), np.ones(4))], lam=0.1)
    with pytest.raises(ValueError):
        LassoProblem([(z, np.ones(4))], lam=-0.5)
    with pytest.raises(ValueError):
        LassoProblem([(z, np.ones(4))], lam=0.1, offset=np.ones(3))


def accumulated_into_zeros(blocks):
    """Gram pieces summed into zero arrays, then divided by the row count."""
    p = blocks[0][0].shape[1]
    h, q, rss = np.zeros((p, p)), np.zeros(p), 0.0
    for z, r in blocks:
        h += z.T @ z
        q += z.T @ r
        rss += float(r @ r)
    n = sum(z.shape[0] for z, _ in blocks)
    return h / n, q / n, rss / n


def read_only(piece):
    piece = GramPiece(piece.zz.copy(), piece.zr.copy(), piece.rr, piece.rows)
    piece.zz.flags.writeable = piece.zr.flags.writeable = False
    return piece


@pytest.mark.parametrize("count", [1, 2, 3, 11])
def test_piece_sum_is_bitwise_the_accumulation_into_zeros(count):
    gen = np.random.default_rng(40 + count)
    p = 15
    beta = np.zeros(p)
    beta[:4] = 1.0
    blocks = []
    for _ in range(count):
        z = gen.standard_normal((int(gen.integers(5, 20)), p))
        blocks.append((z, z @ beta + gen.standard_normal(z.shape[0])))
    pieces = [gram_piece(z, r) for z, r in blocks]
    kept = [(piece.zz.copy(), piece.zr.copy()) for piece in pieces]
    a, qn, r0n = accumulated_into_zeros(blocks)
    # the scaled sum is the in-order accumulation, rss / n included
    got_a, got_qn, got_r0n = _scaled(pieces)
    assert got_a.tobytes() == a.tobytes() and got_qn.tobytes() == qn.tobytes()
    assert got_r0n == r0n
    # a generator of pieces sums to the bits of a list of them; one piece is
    # returned as it is
    listed, streamed = sum_pieces(pieces), sum_pieces(iter(pieces))
    assert listed.zz.tobytes() == streamed.zz.tobytes()
    assert listed.zr.tobytes() == streamed.zr.tobytes()
    assert (listed.rr, listed.rows) == (streamed.rr, streamed.rows)
    assert (listed is pieces[0]) == (count == 1)
    # a streamed sum forms each piece after the third with no earlier one alive
    alive = []

    def formed(i):
        z, r = blocks[i]
        if i > 1:
            alive.append(sum(ref() is not None for ref in refs))
        piece = gram_piece(z, r)
        refs.append(weakref.ref(piece))
        return piece

    refs = []
    assert sum_pieces(formed(i) for i in range(count)).zz.tobytes() == listed.zz.tobytes()
    assert alive == [0] * max(count - 2, 0)
    for offset in (None, np.linspace(-0.2, 0.2, p)):
        coef, objective, _, kkt, _ = _fit_gram(
            a, qn, r0n, 0.05, offset, None, DEFAULT_TOL, DEFAULT_MAX_ITER
        )
        # read-only pieces, as detection hands them on, give the same bits
        shared = [read_only(piece) for piece in pieces]
        for given_blocks in (blocks, pieces, shared, [sum_pieces(pieces)]):
            sol = lasso_fit(LassoProblem(given_blocks, 0.05, offset=offset))
            assert sol.coef.tobytes() == coef.tobytes()
            assert sol.objective == objective
            assert sol.kkt_violation == kkt
    # a problem reads its pieces without writing to them
    for piece, (zz, zr) in zip(pieces, kept):
        assert piece.zz.tobytes() == zz.tobytes() and piece.zr.tobytes() == zr.tobytes()


def test_bad_block_is_named():
    z, r = np.ones((4, 2)), np.ones(4)
    nan_z = z.copy()
    nan_z[1, 1] = np.nan
    nan_r = r.copy()
    nan_r[2] = np.nan
    cases = [
        ((nan_z, r), "block 1 design contains non-finite entries"),
        ((z, nan_r), "block 1 response contains non-finite entries"),
        ((z, np.ones(3)), "block 1: design has 4 rows, response has 3"),
        ((np.ones((4, 3)), r), "block 1 has 3 columns, expected 2"),
        (gram_piece(np.ones((4, 3)), r), "block 1 has 3 columns, expected 2"),
    ]
    for first in ((z, r), gram_piece(z, r)):
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                LassoProblem([first, bad], lam=0.1)
    with pytest.raises(ValueError, match="block 0 is empty"):
        LassoProblem([(np.ones((0, 2)), np.ones(0))], lam=0.1)
    assert isinstance(LassoProblem([(z, r)], lam=0.1).blocks[0], GramPiece)


def test_penalty_level_formula():
    expected = 0.5 * 2.0 * math.sqrt(2.0 * math.log(100) / 400)
    assert penalty_level(2.0, 100, 400) == expected
    with pytest.raises(ValueError):
        penalty_level(-1.0, 10, 10)


# ----------------------------------------------------------------------
# the coordinate-descent core against a one-coordinate-at-a-time loop
# ----------------------------------------------------------------------


def one_at_a_time(a, qn, r0n, lam, offset, start, tol, max_iter):
    """Coordinate descent that visits every coordinate on every sweep.

    The sweeps the solver core must reproduce bit for bit until its exact
    finish fires: the same updates in the same order, the fresh a @ b
    after each sweep, and the same KKT value and stop rule.  It has no
    exact finish and calls nothing in transfarm.solver.
    """
    p = qn.size
    delta = np.zeros(p) if start is None else start.copy()
    b = (delta if offset is None else offset + delta).copy()
    rms = math.sqrt(r0n) if r0n > 0 else 0.0
    cap = tol * (rms if rms > 0 else 1.0)
    diag = np.diagonal(a).copy()
    v = a @ b
    sweeps, converged, kkt = 0, False, math.inf
    while sweeps < max_iter:
        max_change = 0.0
        for j in range(p):
            ajj = diag[j]
            if ajj <= 0.0:
                continue
            dj = delta[j]
            c = qn[j] - v[j] + ajj * dj
            if c > lam:
                new = (c - lam) / ajj
            elif c < -lam:
                new = (c + lam) / ajj
            else:
                new = 0.0
            if new != dj:
                step = new - dj
                v += a[j] * step
                delta[j] = new
                b[j] += step
                max_change = max(max_change, abs(step))
        sweeps += 1
        v = a @ b
        g = qn - v
        np.subtract(g, lam, out=g, where=delta > 0.0)
        np.add(g, lam, out=g, where=delta < 0.0)
        np.abs(g, out=g)
        np.subtract(g, lam, out=g, where=delta == 0.0)
        kkt = float(g.max(initial=0.0))
        if max_change <= cap and kkt <= cap:
            converged = True
            break
    objective = 0.5 * (r0n - 2.0 * float(qn @ b) + float(b @ v))
    objective += lam * float(np.abs(delta).sum())
    return delta, objective, sweeps, kkt, converged


def ulps(x, k):
    """x moved k representable doubles up (k > 0) or down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


@st.composite
def gram_problems(draw):
    p = draw(st.integers(1, 40))
    n = draw(st.integers(1, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = gen.standard_normal((n, p))
    for j, k in draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=3)):
        z[:, j] = z[:, k]  # duplicate columns
    for j in draw(st.sets(st.integers(0, p - 1), max_size=3)):
        z[:, j] = 0.0  # zero-variance coordinates
    a = z.T @ z / n
    magnitude = 10.0 ** draw(st.integers(-2, 6))
    offset = gen.standard_normal(p) * magnitude if draw(st.booleans()) else None
    start = None
    if draw(st.booleans()):
        start = gen.standard_normal(p) * magnitude
        start[gen.random(p) < draw(st.floats(0.0, 1.0))] = 0.0
    b0 = np.zeros(p) if start is None else start.copy()
    if offset is not None:
        b0 = offset + b0
    v0 = a @ b0  # v at the start of the first sweep, as the core computes it
    lam_draw = draw(st.sampled_from(["zero", "above-max", "tie", "fraction"]))
    if draw(st.booleans()):
        # near-stationary start: each nonzero of start sits within a few
        # ulps of v of |qn - v| = lam, so its first steps are rounding
        # sized, and the zeros sit just inside that boundary or anywhere
        # in [-lam, lam]; rounding in v then decides which zeros move
        lam = 0.0 if lam_draw == "zero" else float(gen.uniform(0.01, 1.0))
        ulp_v = np.spacing(np.abs(v0))
        sign = np.zeros(p) if start is None else np.sign(start)
        held = sign != 0
        sign[~held] = np.where(gen.random(p - int(held.sum())) < 0.5, -1.0, 1.0)
        g = sign * lam
        g[held] += gen.uniform(-3.0, 3.0, int(held.sum())) * ulp_v[held]
        g[~held] -= sign[~held] * gen.uniform(0.0, 4.0, p - int(held.sum())) * ulp_v[~held]
        inside = ~held & (gen.random(p) < 0.3)
        g[inside] = gen.uniform(-lam, lam, int(inside.sum()))
        qn = v0 + g
        r0n = float(b0 @ v0) + lam * lam + 1.0
    else:
        r = gen.standard_normal(n)
        qn = z.T @ r / n
        r0n = float(r @ r) / n
        live = np.diagonal(a) > 0.0
        gaps = np.abs(qn - v0)[live]
        lam_max = float(gaps.max()) if gaps.size else 0.0
        if lam_draw == "zero":
            lam = 0.0
        elif lam_draw == "above-max":
            lam = ulps(lam_max, draw(st.integers(0, 4)))
        elif lam_draw == "tie":
            lam = float(gaps[draw(st.integers(0, gaps.size - 1))]) if gaps.size else 0.0
        else:
            lam = lam_max * draw(st.floats(0.0, 1.0))
    if lam_draw == "tie" and lam > 0.0:
        lam = ulps(lam, draw(st.integers(-4, 4)))
    return a, qn, r0n, max(lam, 0.0), offset, start


def rounding_trap():
    """A zero coordinate that only rounding in v pushes past lam.

    v[1] = 2**30 + 1/2 has ulp 2**-22.  The first update, at coordinate
    0, moves v[1] by 0.5625 ulp, which rounds to a whole ulp.  Coordinate
    1 starts with slack lam - |qn[1] - v[1]| = 0.875 ulp: more than the
    exact move, less than the rounded one, so it must be updated.
    """
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    offset = np.array([0.0, 2.0**30])
    start = np.array([1.0, 0.0])  # v = a @ (offset + start) = [2**29 + 1, 2**30 + 1/2]
    lam = 1.0 + 7 * 2.0**-25
    qn = np.array([2.0**29 + 2.0 + 2.0**-21, 2.0**30 - 0.5])
    return a, qn, 2.0**60, lam, offset, start


def tie_problem():
    """A solution with |g_2| = lam exactly: coordinate 2 sits on the
    boundary of the support {0, 1} of [1.5, -0.8, 0, 0, 0]."""
    gen = np.random.default_rng(22)
    z = gen.standard_normal((50, 5))
    a = z.T @ z / 50
    lam = 0.3
    qn = a @ np.array([1.5, -0.8, 0.0, 0.0, 0.0]) + np.array([lam, -lam, lam, 0.1, -0.2])
    return a, qn, 4.0, lam, None, None


def correlated_problem(seed, beta, start, same=None, zero=None):
    """A lasso at lam = 0.1 on six columns that share one factor, warm
    started at start.  same = (j, k) copies column k into column j and
    zero = j zeroes column j, before the response is drawn."""
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((30, 6)) + 0.8 * gen.standard_normal((30, 1))
    if same is not None:
        z[:, same[0]] = z[:, same[1]]
    if zero is not None:
        z[:, zero] = 0.0
    r = z @ np.array(beta) + 0.5 * gen.standard_normal(30)
    return z.T @ z / 30, z.T @ r / 30, float(r @ r) / 30, 0.1, None, np.array(start)


def drop_problem():
    """The first sweep keeps the warm start's signs, but the solution on
    its support {0, 1, 3, 5} turns coordinate 5 negative."""
    return correlated_problem(7, [1.0, -1.0, 0.0, 0.8, 0.0, 0.0], [1.0, -0.9, 0.0, 0.7, 0.0, 0.3])


def exact_objective(a, qn, r0n, lam, offset, delta):
    """The objective at delta in exact rational arithmetic.

    Near r0n = 2**60, or with offsets of 1e6, rounding in the float
    objective is far larger than tol * RMS; computed exactly, the
    objectives of two points can be compared at that level.
    """
    b = [Fraction(x) for x in delta]
    if offset is not None:
        b = [Fraction(o) + x for o, x in zip(offset.tolist(), b)]
    ab = [sum(Fraction(x) * y for x, y in zip(row, b)) for row in a.tolist()]
    quad = sum(x * y for x, y in zip(b, ab))
    linear = sum(Fraction(q) * x for q, x in zip(qn.tolist(), b))
    l1 = sum(abs(Fraction(x)) for x in delta.tolist())
    return Fraction(r0n) / 2 - linear + quad / 2 + Fraction(lam) * l1


def clear_of_ties(a, qn, lam, offset, delta, cap):
    """Whether delta is the unique lasso solution with no tie near it.

    The Gram of its support must be well conditioned, and every zero
    coordinate of nonzero variance must have |g_j| below lam, and every
    support coordinate |delta_j| above zero, by a margin far beyond what
    a stop at tolerance cap can move.  Then any solve that stops at cap
    has the same support and signs.
    """
    live = np.diagonal(a) > 0.0
    support = np.flatnonzero(delta)
    if not live[support].all():
        return False
    lam_min = float(np.linalg.eigvalsh(a[np.ix_(support, support)]).min(initial=1.0))
    if lam_min <= 1e-6:
        return False
    margin = 1e3 * cap / min(lam_min, 1.0)
    g = qn - a @ (delta if offset is None else offset + delta)
    off = live & (delta == 0.0)
    return bool(np.all(np.abs(g[off]) < lam - margin) and np.all(np.abs(delta[support]) > margin))


@settings(max_examples=60, deadline=None)
@given(gram_problems())
@example(rounding_trap())
@example(tie_problem())
@example(drop_problem())
def test_core_finishes_exactly_on_the_one_at_a_time_solution(problem):
    a, qn, r0n, lam, offset, start = problem
    rms = math.sqrt(r0n) if r0n > 0 else 0.0
    cap = DEFAULT_TOL * (rms if rms > 0 else 1.0)
    for max_iter in (1, 2, 3, DEFAULT_MAX_ITER):
        got = _fit_gram(a, qn, r0n, lam, offset, start, DEFAULT_TOL, max_iter)
        want = one_at_a_time(a, qn, r0n, lam, offset, start, DEFAULT_TOL, max_iter)
        if np.array_equal(got[0], want[0]) and got[1:] == want[1:]:
            continue
        # the sweeps match bit for bit until the exact finish ends the solve
        delta, _, sweeps, kkt, converged = got
        assert converged and sweeps <= want[2]
        assert kkt <= cap
        if not want[4]:
            continue
        assert exact_objective(a, qn, r0n, lam, offset, delta) <= (
            exact_objective(a, qn, r0n, lam, offset, want[0]) + Fraction(cap)
        )
        if clear_of_ties(a, qn, lam, offset, delta, cap):
            assert np.array_equal(np.sign(delta), np.sign(want[0]))
    assert got[4] or not want[4]


def kkt_gap(g, x, lam):
    """Largest violation of g_j = lam * sign(x_j) on the support of x and
    |g_j| <= lam off it, where g is the correlation with the residual."""
    on = x != 0.0
    return max(
        float(np.abs(g[on] - lam * np.sign(x[on])).max(initial=0.0)),
        float((np.abs(g[~on]) - lam).max(initial=0.0)),
    )


def gram_of(z, r):
    n = z.shape[0]
    return z.T @ z / n, z.T @ r / n, float(r @ r) / n


def ends_on_its_support_point(a, qn, r0n, lam, start):
    """_fit_gram's solution, checked to be the support point of its own
    support and signs with a KKT gap at most cap, reached in fewer sweeps
    than one_at_a_time; returned with its sweeps and one_at_a_time's
    result."""
    delta, _, sweeps, kkt, converged = _fit_gram(a, qn, r0n, lam, None, start, DEFAULT_TOL, DEFAULT_MAX_ITER)
    want = one_at_a_time(a, qn, r0n, lam, None, start, DEFAULT_TOL, DEFAULT_MAX_ITER)
    support = np.flatnonzero(delta)
    assert converged and kkt <= DEFAULT_TOL * math.sqrt(r0n)
    assert delta.tobytes() == embedded(a, qn, lam, support, np.sign(delta[support])).tobytes()
    assert sweeps < want[2]
    return delta, sweeps, want


def embedded(a, base, lam, support, sign):
    """The support point of (support, sign), zero off the support."""
    support = np.asarray(support)
    x = np.zeros(base.size)
    x[support] = _support_point(a, base, lam, support, np.asarray(sign, dtype=float))
    return x


def test_finish_on_a_singular_support_keeps_sweeping():
    # two equal rows of a make a[S, S] singular while both are in the
    # support, so the finish is rejected and the sweeps converge alone
    z, r, _ = sparse_instance(40, 6, 3, 19)
    a, qn, r0n = gram_of(z, r)
    a[1], a[:, 1] = a[0], a[:, 0]
    qn[1] = qn[0]
    start = np.array([0.4, 0.3, 0.0, 0.0, 0.0, 0.0])
    got = _fit_gram(a, qn, r0n, 0.05, None, start, DEFAULT_TOL, DEFAULT_MAX_ITER)
    want = one_at_a_time(a, qn, r0n, 0.05, None, start, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert got[4] and got[0][0] != 0.0 and got[0][1] != 0.0
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_finish_rejects_a_nearly_singular_support():
    # column 9 repeats column 1, but a[1] and a[9] may differ in the last
    # bits, so a[S, S] is singular in all but rounding.  With lam far
    # below the KKT tolerance, a solve there returns coefficients near 1e6
    # that still pass the KKT test; the pivot floor turns it down
    gen = np.random.default_rng(109)
    z = gen.standard_normal((40, 12))
    z[:, 9] = z[:, 1]
    a, qn, r0n = gram_of(z, gen.standard_normal(40))
    got = _fit_gram(a, qn, r0n, 1e-10, None, None, DEFAULT_TOL, DEFAULT_MAX_ITER)
    want = one_at_a_time(a, qn, r0n, 1e-10, None, None, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert got[4] and np.abs(got[0]).max() < 1.0
    cap = DEFAULT_TOL * math.sqrt(r0n)
    assert exact_objective(a, qn, r0n, 1e-10, None, got[0]) <= (
        exact_objective(a, qn, r0n, 1e-10, None, want[0]) + Fraction(cap)
    )


def test_finish_at_zero_penalty_is_least_squares():
    z, r, _ = sparse_instance(60, 8, 3, 20)
    a, qn, r0n = gram_of(z, r)
    delta, _, sweeps, kkt, converged = _fit_gram(a, qn, r0n, 0.0, None, None, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert converged and sweeps < one_at_a_time(a, qn, r0n, 0.0, None, None, DEFAULT_TOL, DEFAULT_MAX_ITER)[2]
    assert kkt <= 1e-12 * math.sqrt(r0n)
    assert_allclose(delta, np.linalg.solve(a, qn), rtol=0.0, atol=1e-12)


def test_finish_skips_zero_variance_columns():
    z, r, _ = sparse_instance(50, 7, 3, 21)
    z[:, 4] = 0.0
    a, qn, r0n = gram_of(z, r)
    delta, _, sweeps, kkt, converged = _fit_gram(a, qn, r0n, 0.05, None, None, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert converged and delta[4] == 0.0
    assert kkt <= 1e-12 * math.sqrt(r0n)
    assert sweeps < one_at_a_time(a, qn, r0n, 0.05, None, None, DEFAULT_TOL, DEFAULT_MAX_ITER)[2]
    assert_allclose(delta, split_lasso([(z, r)], 0.05), atol=1e-7)


def test_finish_with_a_tie_at_the_penalty():
    # The sweeps carry coordinate 2 in at a small positive value that
    # decays towards zero; the solve on that support puts it at zero up
    # to rounding, off its sign, so the drop step takes it out and the
    # solve ends on the support point of {0, 1} where one_at_a_time stops
    # at tol with coordinate 2 still nonzero.
    a, qn, r0n, lam, _, _ = tie_problem()
    cap = DEFAULT_TOL * 2.0
    delta, _, want = ends_on_its_support_point(a, qn, r0n, lam, None)
    assert delta[2] == 0.0
    assert delta.tobytes() == embedded(a, qn, lam, [0, 1], [1.0, -1.0]).tobytes()
    assert exact_objective(a, qn, r0n, lam, None, delta) <= (
        exact_objective(a, qn, r0n, lam, None, want[0]) + Fraction(cap)
    )
    assert_allclose(delta, [1.5, -0.8, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-8)


@pytest.fixture
def support_solves(monkeypatch):
    """Each support the core solves on, with whether it was singular."""
    calls = []

    def spy(a, base, lam, support, sign):
        x = _support_point(a, base, lam, support, sign)
        calls.append((support.tolist(), x is None))
        return x

    monkeypatch.setattr(solver, "_support_point", spy)
    return calls


def test_active_set_drops_a_coordinate_that_must_leave(support_solves):
    a, qn, r0n, lam, _, start = drop_problem()
    delta, sweeps, _ = ends_on_its_support_point(a, qn, r0n, lam, start)
    # drop 5, then add 2: all within the finish after the first sweep
    assert sweeps == 1
    assert support_solves == [([0, 1, 3, 5], False), ([0, 1, 3], False), ([0, 1, 2, 3], False)]
    assert delta[5] == 0.0


def test_active_set_adds_a_missing_coordinate(support_solves):
    # the first sweep leaves coordinate 2 at zero, but the solution on
    # {0, 1, 3} pushes its gradient past lam
    a, qn, r0n, lam, _, start = correlated_problem(
        355, [1.0, -1.0, 0.0, 0.8, 0.0, 0.0], [0.9, -0.9, 0.0, 0.8, 0.0, 0.0]
    )
    delta, sweeps, _ = ends_on_its_support_point(a, qn, r0n, lam, start)
    assert sweeps == 1
    assert support_solves == [([0, 1, 3], False), ([0, 1, 2, 3], False)]
    assert delta[2] != 0.0


def test_active_set_falls_back_when_a_duplicate_column_enters(support_solves):
    # columns 0 and 1 are equal, so they violate together and enter
    # together; their support is singular and the sweeps go on until
    # they hold only one of the two
    a, qn, r0n, lam, _, start = correlated_problem(
        15538, [1.0, 0.0, -1.0, 0.8, 0.5, 0.0], [0.0, 0.0, -0.77, 0.1, 0.3, 1.69], same=(1, 0)
    )
    delta, _, _ = ends_on_its_support_point(a, qn, r0n, lam, start)
    assert support_solves[:2] == [([2, 3, 4, 5], False), ([0, 1, 2, 3, 4, 5], True)]
    assert delta[1] == 0.0 and delta[0] != 0.0


def test_active_set_never_adds_a_zero_variance_column(support_solves):
    a, qn, r0n, lam, _, start = correlated_problem(
        13, [1.0, -1.0, 0.0, 0.8, 0.0, 0.0], [1.0, 0.0, 0.0, 0.7, 0.0, 0.0], zero=2
    )
    delta, sweeps, _ = ends_on_its_support_point(a, qn, r0n, lam, start)
    # the finish after the second sweep adds column 4 to {0, 1, 3}
    assert sweeps == 2
    assert support_solves == [([0, 1, 3], False), ([0, 1, 3, 4], False)]
    assert all(2 not in support for support, _ in support_solves)
    assert delta[2] == 0.0


def test_active_set_leaves_out_coordinates_outside_live(support_solves):
    # coordinate 2 is not a variable (as a nodewise problem's own column
    # is not): its gradient far exceeds lam at every point, yet only
    # coordinate 1 is added and the KKT value accepted ignores 2
    a = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
    qn = np.array([0.6, 0.5, 2.0])
    lam, cap = 0.05, 1e-8
    live = np.array([True, True, False])
    delta, _, v, kkt = _active_set_finish(a, qn, qn, lam, None, live, np.array([0.3, 0.0, 0.0]), cap)
    assert support_solves == [([0], False), ([0, 1], False)]
    assert kkt <= cap and qn[2] - v[2] > 30 * lam
    assert delta.tobytes() == embedded(a, qn, lam, [0, 1], [1.0, 1.0]).tobytes()


def test_desk_size_solves_end_on_the_exact_finish():
    # fails if the finish never fires: a stop at tol leaves KKT gaps near
    # 1e-8, four orders above these bounds
    z, r, _ = sparse_instance(150, 200, 10, 23)
    lam = penalty_level(1.0, 200, 150)
    sol = lasso_fit(LassoProblem([(z, r)], lam))
    a, qn, r0n = gram_of(z, r)
    rms = math.sqrt(r0n)
    assert sol.converged and sol.kkt_violation <= 1e-12 * rms
    assert kkt_gap(qn - a @ sol.coef, sol.coef, lam) <= 1e-12 * rms
    assert sol.iterations < one_at_a_time(a, qn, r0n, lam, None, None, DEFAULT_TOL, DEFAULT_MAX_ITER)[2]

    est = nodewise_precision(z)
    gram = z.T @ z / 150
    for j in range(200):
        others = np.arange(200) != j
        gamma = -est.theta[j, others] * est.tau_sq[j]
        g = gram[j, others] - gram[np.ix_(others, others)] @ gamma
        assert kkt_gap(g, gamma, est.lambdas[j]) <= 1e-12 * math.sqrt(gram[j, j])


def test_desk_lasso_mode_solve_ends_on_its_support_point_in_few_sweeps():
    # a Lasso-mode target fit at the desk design, on the raw x whose
    # columns share two factors
    config = SimConfig(n0=150, nk=150, p=200, s=10, k_sources=6, a_size=2, rank=2, eta=5.0, replications=1)
    target, _, _ = generate(config, RngStream(0))
    lam = penalty_level(1.0, 200, 150)
    sol = lasso_fit(LassoProblem([(target.x, target.y)], lam))
    a, qn, r0n = gram_of(target.x, target.y)
    want = one_at_a_time(a, qn, r0n, lam, None, None, DEFAULT_TOL, DEFAULT_MAX_ITER)
    support = np.flatnonzero(want[0])
    assert sol.converged and want[4]
    assert sol.coef.tobytes() == embedded(a, qn, lam, support, np.sign(want[0][support])).tobytes()
    # a finish that only sweeps on after a rejected support took 32 sweeps
    # here, and one_at_a_time takes more
    assert sol.iterations <= 16 and want[2] > 32


# ----------------------------------------------------------------------
# scaled lasso
# ----------------------------------------------------------------------


def test_scaled_lasso_noiseless_recovery():
    z, r, _ = sparse_instance(200, 10, 3, 11, noise=0.0)
    fit = scaled_lasso(z, r)
    assert fit.sigma <= 0.05


def test_scaled_lasso_pure_noise_level():
    inside = 0
    for seed in range(50):
        gen = np.random.default_rng(2000 + seed)
        z = gen.standard_normal((500, 50))
        r = gen.standard_normal(500)
        fit = scaled_lasso(z, r)
        if 0.85 <= fit.sigma <= 1.15:
            inside += 1
    assert inside == 50


def test_scaled_lasso_exact_homogeneity():
    z, r, _ = sparse_instance(80, 20, 5, 12, noise=0.7)
    base = scaled_lasso(z, r)
    quadrupled = scaled_lasso(z, 4.0 * r)
    # powers of two rescale every float op exactly, so the iterate path
    # and the alternation count are identical
    assert quadrupled.sigma == 4.0 * base.sigma
    assert np.array_equal(quadrupled.coef, 4.0 * base.coef)
    assert quadrupled.alternations == base.alternations
    general = scaled_lasso(z, 3.0 * r)
    assert abs(general.sigma - 3.0 * base.sigma) < 1e-10 * base.sigma


def test_scaled_lasso_zero_response_rejected():
    z = np.random.default_rng(0).standard_normal((20, 4))
    with pytest.raises(ValueError):
        scaled_lasso(z, np.zeros(20))


# ----------------------------------------------------------------------
# nodewise precision
# ----------------------------------------------------------------------


def test_nodewise_orthogonal_design_is_diagonal():
    gen = np.random.default_rng(13)
    q, _ = np.linalg.qr(gen.standard_normal((50, 5)))
    u = q * np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    est = nodewise_precision(u, lambda_node=0.0)
    expected = np.diag(50.0 / np.sum(u * u, axis=0))
    assert_allclose(est.theta, expected, atol=1e-8)


def test_nodewise_zero_penalty_matches_inverse():
    gen = np.random.default_rng(14)
    u = gen.standard_normal((200, 5)) @ np.linalg.cholesky(
        np.array(
            [
                [1.0, 0.3, 0.1, 0.0, 0.0],
                [0.3, 1.0, 0.3, 0.1, 0.0],
                [0.1, 0.3, 1.0, 0.3, 0.1],
                [0.0, 0.1, 0.3, 1.0, 0.3],
                [0.0, 0.0, 0.1, 0.3, 1.0],
            ]
        )
    ).T
    est = nodewise_precision(u, lambda_node=0.0, tol=1e-10)
    direct = np.linalg.inv(u.T @ u / 200)
    assert np.max(np.abs(est.theta - direct)) < 1e-5


def test_nodewise_auto_penalty_contract():
    gen = np.random.default_rng(15)
    u = gen.standard_normal((100, 8))
    est = nodewise_precision(u)
    expected_lam = 0.5 * math.sqrt(math.log(8) / 100)
    assert_allclose(est.lambdas, np.full(8, expected_lam))
    assert np.all(np.diagonal(est.theta) > 0)
    assert np.all(est.tau_sq > 0)


def test_nodewise_degenerate_column_reported():
    gen = np.random.default_rng(16)
    u = gen.standard_normal((30, 4))
    u[:, 2] = 0.0
    with pytest.raises(ValueError, match="column 2"):
        nodewise_precision(u, lambda_node=0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_nodewise_rejects_non_finite_scalar_penalty(lam):
    # NaN would run every sweep before a ConvergenceError, and inf would
    # return a diagonal theta
    u = np.random.default_rng(19).standard_normal((20, 3))
    with pytest.raises(ValueError, match="lambda_node contains non-finite entries"):
        nodewise_precision(u, lambda_node=lam)


def test_nodewise_single_column():
    u = np.linspace(1.0, 2.0, 25).reshape(-1, 1)
    est = nodewise_precision(u)
    assert_allclose(est.theta, [[25.0 / float(u.ravel() @ u.ravel())]])


@st.composite
def coupled_designs(draw):
    p = draw(st.integers(1, 8))
    n = draw(st.integers(2 * p + 6, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    coupling = draw(st.floats(0.0, 0.8))
    lambdas = draw(st.lists(st.floats(0.01, 0.4), min_size=p, max_size=p))
    gen = np.random.default_rng(seed)
    # one shared column couples every nodewise problem to the others
    u = gen.standard_normal((n, p)) + coupling * gen.standard_normal((n, 1))
    return u, np.array(lambdas)


@settings(max_examples=40, deadline=None)
@given(coupled_designs())
def test_nodewise_matches_row_by_row_oracle(design):
    u, lambdas = design
    p = u.shape[1]
    est = nodewise_precision(u, lambda_node=lambdas)
    theta, tau_sq = nodewise_oracle(u, lambdas)
    assert_allclose(est.theta, theta, atol=1e-6)
    assert_allclose(est.tau_sq, tau_sq, atol=1e-6)
    # every row stops where its own solve stops: a problem that kept
    # sweeping after it converged would drift from lasso_fit
    for j in range(p if p > 1 else 0):
        others = np.arange(p) != j
        alone = lasso_fit(LassoProblem([(u[:, others], u[:, j])], float(lambdas[j])))
        assert_allclose(-est.theta[j, others] * est.tau_sq[j], alone.coef, atol=1e-10)


def test_nodewise_rows_take_the_active_set_steps():
    # each row's finish drops and adds coordinates as a solve of its own
    # does, so the coupled rows settle in 6 sweeps on the same bits; a
    # finish that only sweeps on after a rejected support needed 12 here
    gen = np.random.default_rng(7)
    u = gen.standard_normal((60, 12)) + 0.7 * gen.standard_normal((60, 1))
    fast = nodewise_precision(u, lambda_node=0.05, max_iter=6)
    est = nodewise_precision(u, lambda_node=0.05)
    assert fast.theta.tobytes() == est.theta.tobytes()
    assert fast.tau_sq.tobytes() == est.tau_sq.tobytes()


def test_nodewise_reports_lowest_degenerate_column():
    gen = np.random.default_rng(17)
    u = gen.standard_normal((30, 7))
    u[:, 2] = 0.0
    u[:, 5] = 0.0
    with pytest.raises(ValueError, match=r"column 2 \("):
        nodewise_precision(u, lambda_node=0.05)


def test_nodewise_reports_lowest_unconverged_row():
    # row 0's large penalty settles it in one sweep; the coupled rows
    # after it need more, so row 1 is the one reported
    gen = np.random.default_rng(18)
    u = gen.standard_normal((40, 6)) + gen.standard_normal((40, 1))
    lambdas = np.full(6, 0.01)
    lambdas[0] = 10.0
    with pytest.raises(ConvergenceError, match="nodewise regression 1 hit 1 sweeps"):
        nodewise_precision(u, lambda_node=lambdas, max_iter=1)
    assert nodewise_precision(u, lambda_node=lambdas).tau_sq[0] > 0
