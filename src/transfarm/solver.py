"""Penalized least-squares solvers shared by every estimation step.

All fits minimise

    (1 / 2N) * sum_k ||r_k - Z_k (offset + delta)||^2 + lam * ||delta||_1

over delta, where the (Z_k, r_k) blocks are stacked datasets with a
common column count and N is the total row count.  Coordinate descent
runs on the pooled Gram matrix, so a block enters only through its Gram
piece (Z.T Z, Z.T r, r.T r, rows).  A caller that solves several
problems sharing a block forms its piece once with `gram_piece` and
passes it in place of (Z, r).  `sum_pieces` is the one place pieces are
added: in block order, into new arrays, so no piece is ever written to,
and with the same bits as adding each block's products to zeros.
`lasso_fit` divides that sum by N, and a pooled piece summed over blocks
formed one at a time holds only the sum and the current piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from transfarm.numerics import (
    ConvergenceError, DegenerateError, check_design, check_matrix, check_nonnegative, check_vector,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1000

# Default penalty constant in c * sigma * sqrt(2 log p / N).
DEFAULT_LAMBDA_C = 0.5

# A nodewise residual variance at or below this times its column's
# variance G[j, j] is treated as degenerate.
TAU_SQ_FLOOR = 1e-12

# Relative Cholesky pivot at or below which a support Gram counts as singular.
SUPPORT_PIVOT_FLOOR = 1e-8


def penalty_level(sigma: float, p: int, n_effective: int, lambda_c: float = DEFAULT_LAMBDA_C) -> float:
    """Penalty rule lambda = c * sigma * sqrt(2 log p / N)."""
    check_nonnegative(sigma, "sigma")
    if p < 1 or n_effective < 1:
        raise ValueError("p and n_effective must be positive")
    return lambda_c * sigma * math.sqrt(2.0 * math.log(p) / n_effective)


@dataclass(frozen=True)
class GramPiece:
    """The Gram pieces of one (z, r) block: z.T z, z.T r, r.T r and the
    row count.  Pieces are shared between problems, so none is written to."""

    zz: np.ndarray
    zr: np.ndarray
    rr: float
    rows: int

    @property
    def p(self) -> int:
        return self.zr.size


def gram_piece(z: np.ndarray, r: np.ndarray, name: str = "block") -> GramPiece:
    """The checked Gram piece of one block; errors name it.  A piece that
    overflows raises DegenerateError: z.T z is tested on its diagonal,
    which bounds every other entry (Cauchy-Schwarz), beside z.T r and r.T r."""
    z, r = check_design(z, r, f"{name} design", f"{name} response")
    if z.shape[0] < 1:
        raise ValueError(f"{name} is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        zz, zr, rr = z.T @ z, z.T @ r, float(r @ r)
    if not (math.isfinite(rr) and np.isfinite(np.diagonal(zz)).all() and np.isfinite(zr).all()):
        raise DegenerateError(f"{name}: the Gram piece overflows; rescale the data")
    return GramPiece(zz, zr, rr, z.shape[0])


def sum_pieces(pieces) -> GramPiece:
    """The piece of the stacked blocks: a single piece as it is, else the
    first two added into new arrays and each later one added to those in
    place.  pieces may be a generator, so a sum over blocks formed one at
    a time holds only the sum and the current piece.
    """
    pieces = iter(pieces)
    first = next(pieces)
    second = next(pieces, None)
    if second is None:
        return first
    zz, zr = first.zz + second.zz, first.zr + second.zr
    rr, rows = first.rr + second.rr, first.rows + second.rows
    del first, second
    for piece in pieces:
        zz += piece.zz
        zr += piece.zr
        rr += piece.rr
        rows += piece.rows
        del piece  # before the next piece is formed
    return GramPiece(zz, zr, rr, rows)


@dataclass
class LassoProblem:
    """Stacked-block Lasso problem; offset shifts the fitted coefficient.

    Each block is a (z, r) pair or its GramPiece; pairs are turned into
    pieces here, so blocks holds pieces only.
    """

    blocks: list[GramPiece | tuple[np.ndarray, np.ndarray]]
    lam: float
    offset: np.ndarray | None = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one (z, r) block is required")
        pieces = []
        for i, block in enumerate(self.blocks):
            if not isinstance(block, GramPiece):
                block = gram_piece(*block, name=f"block {i}")
            if pieces and block.p != pieces[0].p:
                raise ValueError(f"block {i} has {block.p} columns, expected {pieces[0].p}")
            pieces.append(block)
        self.blocks = pieces
        check_nonnegative(self.lam, "lam")
        if self.offset is not None:
            self.offset = check_vector(self.offset, "offset")
            if self.offset.size != self.p:
                raise ValueError(
                    f"offset has length {self.offset.size}, expected {self.p}"
                )

    @property
    def p(self) -> int:
        return self.blocks[0].p


@dataclass
class LassoSolution:
    coef: np.ndarray
    iterations: int
    kkt_violation: float
    converged: bool


def _kkt_violation(g: np.ndarray, delta: np.ndarray, lam: float) -> np.ndarray:
    # g is the scaled correlation (1/N) sum Z.T (r - Z b); stationarity
    # needs g_j = lam * sign(delta_j) on the active set and |g_j| <= lam off it.
    # Rows of a 2-d g are separate problems at the same lam; g is overwritten.
    np.subtract(g, lam, out=g, where=delta > 0.0)
    np.add(g, lam, out=g, where=delta < 0.0)
    np.abs(g, out=g)
    np.subtract(g, lam, out=g, where=delta == 0.0)
    return g.max(axis=-1, initial=0.0)


def _support_point(a, base, lam, support, sign):
    """Solve the lasso KKT equations on a fixed support and sign pattern.

    Returns x with a[S, S] @ x = base[S] - lam * sign, where S = support,
    or None when a[S, S] is singular; whether sign(x) keeps the pattern
    is for the caller to check.  a[S, S] counts as singular when a
    Cholesky pivot falls to SUPPORT_PIVOT_FLOOR of its diagonal entry or
    below: that column nearly repeats earlier ones (a duplicate column,
    or more columns than rows), and a solve would return rounding error
    blown up along the null space.
    """
    a_ss = a[np.ix_(support, support)]
    try:
        pivots = np.diagonal(np.linalg.cholesky(a_ss)) ** 2
        if np.any(pivots <= SUPPORT_PIVOT_FLOOR * np.diagonal(a_ss)):
            return None
        return np.linalg.solve(a_ss, base[support] - lam * sign)
    except np.linalg.LinAlgError:
        return None


def _active_set_finish(a, qn, base, lam, offset, live, start, cap):
    """Primal active-set steps (Osborne, Presnell and Turlach 2000) from
    a swept iterate to the support point that solves the problem.

    The pattern starts as sign(start).  Each step solves the KKT
    equations on the pattern's support S with `_support_point`:
    - drop: when the solution leaves the pattern, the current point
      (start, at first) moves toward it until the first coordinate
      reaches zero, and that coordinate leaves S;
    - add: when the signs hold but the KKT violation is above cap, every
      live coordinate off S whose |gradient| exceeds lam by more than cap
      enters S with the sign of its gradient, and the current point
      becomes the solution with those coordinates at zero;
    - accept: when the signs hold and the KKT violation is at most cap,
      (delta, kkt) at that point is returned.
    None is returned, so the sweeps go on, on a singular support, an
    empty S, a step outside [0, 1], a drop of a coordinate that the last
    add brought in, or after p steps.  A coordinate outside live (zero
    variance, or a nodewise problem's own column) is not a variable: its
    gradient is zeroed, so it is neither added nor counted in the KKT value.
    """
    p = qn.size
    cur = start.copy()
    pattern = np.sign(start)
    fresh = np.zeros(p, dtype=bool)  # the coordinates of the last add
    for _ in range(p):
        support = np.flatnonzero(pattern)
        if not support.size:
            return None
        sign = pattern[support]
        x = _support_point(a, base, lam, support, sign)
        if x is None:
            return None
        off = np.flatnonzero(np.sign(x) != sign)
        if off.size:
            c = cur[support]
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = c[off] / (c[off] - x[off])
            first = int(reach.argmin())
            t = reach[first]
            j = support[off[first]]
            if not 0.0 <= t <= 1.0 or fresh[j]:
                return None
            cur[support] = c + t * (x - c)
            cur[j] = 0.0
            pattern[j] = 0.0
            continue
        exact = np.zeros(p)
        exact[support] = x
        exact_b = exact if offset is None else offset + exact
        exact_v = a @ exact_b
        g = qn - exact_v
        g[~live] = 0.0
        kkt = float(_kkt_violation(g, exact, lam))
        if kkt <= cap:
            return exact, kkt
        # g now holds each coordinate's violation, |g_j| - lam off S
        new = np.flatnonzero((g > cap) & (pattern == 0.0))
        if not new.size:
            return None
        pattern[new] = np.sign(qn[new] - exact_v[new])
        fresh[:] = False
        fresh[new] = True
        cur = exact
    return None


def _fit_gram(a, qn, r0n, lam, offset, start):
    """Coordinate descent on precomputed Gram pieces, finished exactly on
    the support; returns the LassoSolution.

    a = (1/N) sum Z.T Z, qn = (1/N) sum Z.T r, r0n = (1/N) sum r.T r.
    Stopping is scale-relative (thresholds multiply the response RMS) so
    the result is exactly equivariant under rescaling of r and lam by a
    power of two.

    Each sweep visits the live coordinates, those with a[j, j] > 0, in
    index order and soft-thresholds each against the current v.

    A sweep that leaves the sign pattern of delta unchanged is followed
    by the exact finish, a primal active-set loop
    (Osborne, Presnell and Turlach 2000, IMA J. Numer. Anal.) run by
    `_active_set_finish`.  Each step solves
    a[S, S] delta_S = (qn - a @ offset)[S] - lam * sign_S with delta zero
    off S (the sign-consistent step of homotopy and LARS).  A solution
    that leaves the pattern drops the first coordinate that a move toward
    it brings to zero; one that keeps the pattern but fails the KKT test
    adds every violator off S.  The first point that keeps its pattern
    with a KKT violation of at most DEFAULT_TOL * RMS is returned as converged,
    so the result depends on its support and signs only, not on the
    sweeps that found them.  When a step cannot be taken (a singular or
    empty support, a step outside [0, 1], a coordinate dropped right
    after it was added, or p steps) the swept iterate stands, and the
    pattern is not tried again until a sweep changes it.  Without a
    finish, a sweep passes when its largest coefficient move and its KKT
    violation are both at most DEFAULT_TOL * RMS.
    """
    p = qn.size
    lam = float(lam)
    delta = np.zeros(p) if start is None else start.copy()
    b = delta if offset is None else offset + delta
    b = b.copy()
    rms = math.sqrt(r0n) if r0n > 0 else 0.0
    scale = rms if rms > 0 else 1.0
    cap = DEFAULT_TOL * scale
    diag = np.diagonal(a).copy()
    diag_l = diag.tolist()
    qn_l = qn.tolist()
    live = diag > 0.0
    coords = np.flatnonzero(live).tolist()
    v = a @ b
    base = qn if offset is None else qn - a @ offset
    tried = False  # the current sign pattern has failed its exact finish
    sweeps = 0
    converged = False
    kkt = math.inf
    while sweeps < DEFAULT_MAX_ITER:
        max_change = 0.0
        sign = np.sign(delta)
        for j in coords:
            ajj = diag_l[j]
            dj = delta.item(j)
            c = qn_l[j] - v.item(j) + ajj * dj
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
                moved = abs(step)
                if moved > max_change:
                    max_change = moved
        sweeps += 1
        if not np.array_equal(np.sign(delta), sign):
            tried = False
        elif not tried:
            tried = True
            finish = _active_set_finish(a, qn, base, lam, offset, live, delta, cap)
            if finish is not None:
                delta, kkt = finish
                converged = True
                break
        v = a @ b  # fresh product keeps accumulated rounding out of the tests below
        kkt = float(_kkt_violation(qn - v, delta, lam))
        if max_change <= cap and kkt <= cap:
            converged = True
            break
    return LassoSolution(delta, sweeps, kkt, converged)


def _scaled(pieces):
    """(a, qn, r0n) of stacked pieces: their `sum_pieces` divided by the
    total row count N.  A single piece is divided into new arrays and a
    fresh sum in place, so no piece is written to."""
    total = sum_pieces(pieces)
    n = total.rows
    if total is pieces[0]:
        return total.zz / n, total.zr / n, total.rr / n
    a, qn = total.zz, total.zr
    a /= n
    qn /= n
    return a, qn, total.rr / n


def lasso_fit(problem: LassoProblem, warm_start: np.ndarray | None = None) -> LassoSolution:
    """Coordinate-descent Lasso over stacked blocks.

    The blocks' pieces are summed by `sum_pieces` and divided by N in new
    arrays, so a piece may be shared or read-only.

    After a sweep that keeps the sign pattern, primal active-set steps
    (Osborne, Presnell and Turlach 2000) solve the KKT equations on the
    support, drop a coordinate whose sign the solve flips and add the
    KKT violators off the support, until the solution keeps its signs
    and its KKT violation is at most DEFAULT_TOL times the response RMS;
    that exact point is returned.  When a step cannot be taken (on a
    singular support, for one) the sweeps go on, and the solve converges
    when the largest coefficient move in a sweep and the KKT violation
    both fall below that bound.
    After DEFAULT_MAX_ITER sweeps the last iterate is returned flagged
    converged=False rather than raising.
    """
    if warm_start is not None:
        warm_start = check_vector(warm_start, "warm_start")
        if warm_start.size != problem.p:
            raise ValueError(
                f"warm_start has length {warm_start.size}, expected {problem.p}"
            )
    a, qn, r0n = _scaled(problem.blocks)
    return _fit_gram(a, qn, r0n, problem.lam, problem.offset, warm_start)


# ======================================================================
# scaled Lasso (joint noise-level estimate)
# ======================================================================


@dataclass
class ScaledLassoFit:
    coef: np.ndarray
    sigma: float
    alternations: int


def scaled_lasso(z: np.ndarray, r: np.ndarray) -> ScaledLassoFit:
    """Alternating Lasso / noise-level estimate.

    Iterates beta <- Lasso(lam = sigma * lambda0) and
    sigma <- ||r - z beta|| / sqrt(n) from sigma = ||r|| / sqrt(n) until
    sigma moves by less than 1e-6 relative, with lambda0 =
    sqrt(2 log p / n) and the solver's default tolerance and sweep cap.
    Scaling r by a constant scales sigma by the same constant with an
    identical iterate path.  A zero r or residual raises DegenerateError.
    """
    z, r = check_design(z, r, "z", "r")
    n, p = z.shape
    if n < 1 or p < 1:
        raise ValueError("z must have at least one row and one column")
    lambda0 = math.sqrt(2.0 * math.log(p) / n)

    a, qn, r0n = _scaled([gram_piece(z, r, "noise-scale fit")])
    sigma = math.sqrt(r0n)
    if sigma == 0.0:
        raise DegenerateError("response has zero variance")
    sigma_init = sigma
    coef = np.zeros(p)
    for it in range(100):
        lam = sigma * lambda0
        sol = _fit_gram(a, qn, r0n, lam, None, coef)
        coef = sol.coef
        if not sol.converged:
            raise ConvergenceError(
                f"scaled lasso inner solve hit {DEFAULT_MAX_ITER} sweeps at alternation {it + 1}"
            )
        resid = r - z @ coef
        sigma_new = math.sqrt(float(resid @ resid) / n)
        if sigma_new == 0.0:
            raise DegenerateError("residual variance collapsed to zero")
        # a noiseless response decays sigma geometrically forever; treat a
        # collapse far below the initial scale as converged-at-zero-noise
        if sigma_new < 1e-8 * sigma_init or abs(sigma_new - sigma) < 1e-6 * sigma:
            return ScaledLassoFit(coef=coef, sigma=sigma_new, alternations=it + 1)
        sigma = sigma_new
    raise ConvergenceError("scaled lasso did not settle within 100 alternations")


# ======================================================================
# nodewise precision-matrix estimate
# ======================================================================


@dataclass
class PrecisionEstimate:
    """Row-wise regression inverse theta of a Gram matrix u.T u / n.

    Row j is omega_j / tau_sq_j where omega_j has a one at j and minus
    the nodewise Lasso coefficients gamma_j elsewhere, and tau_sq_j is the
    corresponding residual scale (1/n) u_j.T (u_j - U_{-j} gamma_j); so
    theta[j, j] = 1 / tau_sq_j and gamma_j = -theta[j, -j] / theta[j, j].
    """

    theta: np.ndarray


def nodewise_precision(
    u: np.ndarray,
    lambda_node: float | None = None,
    lambda_c: float = DEFAULT_LAMBDA_C,
) -> PrecisionEstimate:
    """Nodewise-Lasso precision estimate of (u.T u / n)^(-1).

    Every row takes one penalty: lambda_node, or lambda_c * sqrt(log p / n)
    when it is None.  Either must pass check_nonnegative; lambda_node
    must be one number, not a bool, a list or an array with an axis.

    Row j is the Lasso of column j on the other columns, with Gram
    pieces taken from G = u.T u / n (van de Geer, Buhlmann, Ritov and
    Dezeure 2014).  All p problems share G, so one coordinate-descent
    loop solves them together: the visit to coordinate k updates every
    live problem j != k at once, in the coordinate order of `_fit_gram`,
    skipping zero-variance coordinates, with a fresh G @ gamma after
    every sweep.  A visit reads only its own column of G @ gamma, so it
    adds its update only to the columns after k, which the sweep has not
    visited yet; the fresh product replaces the rest.  A problem whose
    sign pattern survives a sweep takes the active-set steps of
    `_active_set_finish` on base G[j], with coordinate j not a variable,
    and so ends where a solve of its own ends: on the first support point
    that keeps its signs with a KKT violation of at most
    DEFAULT_TOL * sqrt(G[j, j]).  When a step cannot be taken, the
    pattern is not tried again until a sweep changes it, and the problem
    passes when its largest coefficient move and its KKT violation are
    both at most that cap.  A sweep visits each coordinate once, so a
    problem's moves are its net change over the sweep, and the KKT test
    runs only on problems whose move passed.  Rows are kept by problem: a
    problem that passes is frozen, its gamma goes straight to row j of
    the result, and the sweeps go on over the live problems' rows in
    index order.  Failures are reported for the lowest failing row:
    ConvergenceError after DEFAULT_MAX_ITER sweeps, DegenerateError when
    its residual variance is at most TAU_SQ_FLOOR * G[j, j].
    """
    if isinstance(lambda_node, (bool, np.bool_)) or np.ndim(lambda_node):
        raise ValueError(f"lambda_node must be one number, got {lambda_node!r}")
    u = check_matrix(u, "u")
    n, p = u.shape
    if n < 2 or p < 1:
        raise ValueError(f"u must have at least 2 rows and 1 column, got {u.shape}")
    name, lam = ("lambda_c", lambda_c) if lambda_node is None else ("lambda_node", lambda_node)
    lam = float(lam)
    check_nonnegative(lam, name)
    if lambda_node is None:
        lam *= math.sqrt(math.log(p) / n)

    gram = u.T @ u / n
    diag = np.diagonal(gram).copy()
    diag_l = diag.tolist()
    # stopping thresholds of problem j, scaled by its response RMS as in _fit_gram
    caps = DEFAULT_TOL * np.where(diag > 0.0, np.sqrt(diag), 1.0)
    # Row j of coef holds gamma for problem j (zero at its own coordinate).
    # live lists the unconverged problems in index order; row c of gam and
    # fit holds gamma and gram @ gamma for problem live[c].
    coef = np.zeros((p, p))
    live = np.arange(p)
    gam = np.zeros((p, p))
    fit = np.zeros((p, p))
    tau_sq = np.zeros(p)
    converged = np.zeros(p, dtype=bool)
    tried = np.zeros(p, dtype=bool)  # problem j's sign pattern failed its exact finish
    sweeps = 0
    while live.size and sweeps < DEFAULT_MAX_ITER:
        slot = np.full(p, -1)
        slot[live] = np.arange(live.size)
        slot = slot.tolist()
        cap = caps[live]
        start = gam.copy()
        cols = gram[:, live]  # cols[k] is gram[k, live], read whole on each visit
        for k in range(p):
            gkk = diag_l[k]
            if gkk <= 0.0:
                continue
            old = gam[:, k]
            c = cols[k] - fit[:, k] + gkk * old
            new = (c - np.minimum(np.maximum(c, -lam), lam)) / gkk
            if slot[k] >= 0:
                new[slot[k]] = 0.0  # problem k does not regress on itself
            step = new - old
            rows = step.nonzero()[0]
            if rows.size:
                gam[:, k] = new
                # a visit reads only its own column of fit, and the fresh
                # product below overwrites the rest: update the unvisited ones
                fit[rows, k + 1 :] += step[rows, None] * gram[k, k + 1 :]
        sweeps += 1
        del cols
        # each coordinate moves once per sweep, so the net change of a row
        # holds its moves
        net = gam - start
        moves = np.abs(net, out=net).max(axis=1)
        # problems whose sign pattern survived the sweep, and has not
        # failed its finish yet, take the active-set steps below
        stable = (np.sign(gam, out=net) == np.sign(start, out=start)).all(axis=1)
        tried[live[~stable]] = False
        finish = np.flatnonzero(stable & ~tried[live])
        tried[live[finish]] = True
        del net, start, stable  # free them before g below
        np.matmul(gam, gram, out=fit)  # fresh product keeps incremental drift out of the tests below
        # done needs both tests, so the KKT test runs only on rows whose move passed
        done = moves <= cap
        test = np.flatnonzero(done)
        g = gram[live[test]]
        g -= fit[test]
        g[np.arange(test.size), live[test]] = 0.0  # coordinate j is not a variable of problem j
        done[test] = _kkt_violation(g, gam[test], lam) <= cap[test]
        del g  # free it before the filtering below makes its own copies
        for c in finish.tolist():
            j = live[c]
            own = diag > 0.0
            own[j] = False  # problem j does not regress on itself
            step = _active_set_finish(gram, gram[j], gram[j], lam, None, own, gam[c], cap[c])
            if step is not None:
                row = step[0]
                support = np.flatnonzero(row)
                # x_S @ G[S] keeps tau_sq's bits; the finish's G @ x differs in the last bit
                gam[c], fit[c], done[c] = row, row[support] @ gram[support], True
        if done.any():
            finished = live[done]
            tau_sq[finished] = diag[finished] - fit[done, finished]
            converged[finished] = True
            coef[finished] = gam[done]
            gam, fit, live = gam[~done], fit[~done], live[~done]

    bad = ~converged | (tau_sq <= TAU_SQ_FLOOR * diag)
    if bad.any():
        j = int(np.argmax(bad))
        if not converged[j]:
            raise ConvergenceError(f"nodewise regression {j} hit {DEFAULT_MAX_ITER} sweeps")
        raise DegenerateError(
            f"nodewise residual variance degenerate at column {j} ({tau_sq[j]:.3e})"
        )
    theta = coef
    theta /= -tau_sq[:, None]
    np.fill_diagonal(theta, 1.0 / tau_sq)
    return PrecisionEstimate(theta=theta)
