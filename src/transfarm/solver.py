"""Penalized least-squares solvers shared by every estimation step.

All fits minimise

    (1 / 2N) * sum_k ||r_k - Z_k (offset + delta)||^2 + lam * ||delta||_1

over delta, where the (Z_k, r_k) blocks are stacked datasets with a
common column count and N is the total row count.  Coordinate descent
runs on the pooled Gram matrix, so block structure costs nothing beyond
one pass to accumulate Z.T @ Z per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from transfarm.numerics import ConvergenceError, check_matrix, check_vector

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1000

# Default penalty constant in c * sigma * sqrt(2 log p / N).
DEFAULT_LAMBDA_C = 0.5

# Nodewise residual variances at or below this are treated as degenerate.
TAU_SQ_FLOOR = 1e-12

# Relative Cholesky pivot at or below which a support Gram counts as singular.
SUPPORT_PIVOT_FLOOR = 1e-8


def penalty_level(sigma: float, p: int, n_effective: int, lambda_c: float = DEFAULT_LAMBDA_C) -> float:
    """Penalty rule lambda = c * sigma * sqrt(2 log p / N)."""
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if p < 1 or n_effective < 1:
        raise ValueError("p and n_effective must be positive")
    return lambda_c * sigma * math.sqrt(2.0 * math.log(p) / n_effective)


@dataclass
class LassoProblem:
    """Stacked-block Lasso problem; offset shifts the fitted coefficient."""

    blocks: list[tuple[np.ndarray, np.ndarray]]
    lam: float
    offset: np.ndarray | None = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one (z, r) block is required")
        checked = []
        p = None
        for i, (z, r) in enumerate(self.blocks):
            z = check_matrix(z, f"block {i} design")
            r = check_vector(r, f"block {i} response")
            if z.shape[0] != r.size:
                raise ValueError(
                    f"block {i}: design has {z.shape[0]} rows, response has {r.size}"
                )
            if z.shape[0] < 1:
                raise ValueError(f"block {i} is empty")
            if p is None:
                p = z.shape[1]
            elif z.shape[1] != p:
                raise ValueError(
                    f"block {i} has {z.shape[1]} columns, expected {p}"
                )
            checked.append((z, r))
        self.blocks = checked
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if self.offset is not None:
            self.offset = check_vector(self.offset, "offset")
            if self.offset.size != p:
                raise ValueError(
                    f"offset has length {self.offset.size}, expected {p}"
                )

    @property
    def p(self) -> int:
        return self.blocks[0][0].shape[1]


@dataclass
class LassoSolution:
    coef: np.ndarray
    objective: float
    iterations: int
    kkt_violation: float
    converged: bool


def _kkt_violation(g: np.ndarray, delta: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    # g is the scaled correlation (1/N) sum Z.T (r - Z b); stationarity
    # needs g_j = lam * sign(delta_j) on the active set and |g_j| <= lam off it.
    # Rows of a 2-d g are separate problems, each with its own lam; g is
    # overwritten.
    np.subtract(g, lam, out=g, where=delta > 0.0)
    np.add(g, lam, out=g, where=delta < 0.0)
    np.abs(g, out=g)
    np.subtract(g, lam, out=g, where=delta == 0.0)
    return g.max(axis=-1, initial=0.0)


def _support_point(a, base, lam, support, sign):
    """Solve the lasso KKT equations on a fixed support and sign pattern.

    Returns x with a[S, S] @ x = base[S] - lam * sign, where S = support,
    or None when a[S, S] is singular or sign(x) leaves the pattern.
    a[S, S] counts as singular when a Cholesky pivot falls to
    SUPPORT_PIVOT_FLOOR of its diagonal entry or below: that column nearly
    repeats earlier ones (a duplicate column, or more columns than rows),
    and a solve would return rounding error blown up along the null space.
    """
    a_ss = a[np.ix_(support, support)]
    try:
        pivots = np.diagonal(np.linalg.cholesky(a_ss)) ** 2
        if np.any(pivots <= SUPPORT_PIVOT_FLOOR * np.diagonal(a_ss)):
            return None
        x = np.linalg.solve(a_ss, base[support] - lam * sign)
    except np.linalg.LinAlgError:
        return None
    return x if np.array_equal(np.sign(x), sign) else None


def _fit_gram(a, qn, r0n, lam, offset, start, tol, max_iter):
    """Coordinate descent on precomputed Gram pieces, finished exactly on
    the support.

    a = (1/N) sum Z.T Z, qn = (1/N) sum Z.T r, r0n = (1/N) sum r.T r.
    Stopping is scale-relative (thresholds multiply the response RMS) so
    the result is exactly equivariant under rescaling of r and lam by a
    power of two.

    Each sweep updates the coordinates in index order, skipping those
    with a[j, j] <= 0.  A coordinate that is zero stays zero when
    |qn[j] - v[j]| <= lam, so the nonzeros are visited one at a time and
    each run of zeros between two of them is tested at once against the
    current v; only a coordinate that fails the test is updated, and the
    run's test resumes after it.  Every update of v happens in the same
    order with the same operands as a visit to each coordinate in turn,
    so the sweeps are the same bit for bit.

    A sweep that leaves the sign pattern of delta unchanged, on a nonempty
    support S, is followed by the exact finish: delta_S solves
    a[S, S] delta_S = (qn - a @ offset)[S] - lam * sign_S with delta zero
    off S (the sign-consistent active-set step of homotopy and LARS).
    That point is returned as converged when it keeps the sign pattern
    and its KKT violation is at most tol * RMS.  Otherwise the swept
    iterate stands, and the pattern is not tried again until a sweep
    changes it.  Without a finish, a sweep passes when its largest
    coefficient move and its KKT violation are both at most tol * RMS.
    """
    p = qn.size
    lam = float(lam)
    delta = np.zeros(p) if start is None else start.copy()
    b = delta if offset is None else offset + delta
    b = b.copy()
    rms = math.sqrt(r0n) if r0n > 0 else 0.0
    scale = rms if rms > 0 else 1.0
    cap = tol * scale
    diag = np.diagonal(a).copy()
    diag_l = diag.tolist()
    qn_l = qn.tolist()
    # a zero coordinate leaves zero only when |qn[j] - v[j]| > bound[j];
    # the infinite bound keeps zero-variance coordinates out of the test
    bound = np.where(diag > 0.0, lam, math.inf)
    v = a @ b
    base = qn if offset is None else qn - a @ offset
    tried = False  # the current sign pattern has failed its exact finish
    sweeps = 0
    converged = False
    kkt = math.inf
    while sweeps < max_iter:
        max_change = 0.0
        sign = np.sign(delta)
        nonzero = np.flatnonzero(delta)
        # run i holds the zeros before nonzero i (the last run ends at p)
        ends = nonzero.tolist()
        ends.append(p)
        lo = 0
        for end in ends:
            while True:
                # next coordinate to visit: the first zero in [lo, end)
                # that fails its test, else the nonzero at end
                j = end
                if lo < end:
                    hit = np.abs(qn[lo:end] - v[lo:end]) > bound[lo:end]
                    first = int(hit.argmax())
                    if hit[first]:
                        j = lo + first
                if j == p:
                    break
                ajj = diag_l[j]
                if ajj > 0.0:
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
                lo = j + 1
                if j == end:
                    break
        sweeps += 1
        if not np.array_equal(np.sign(delta), sign):
            tried = False
        elif nonzero.size and not tried:
            tried = True
            x = _support_point(a, base, lam, nonzero, sign[nonzero])
            if x is not None:
                exact = np.zeros(p)
                exact[nonzero] = x
                exact_b = exact if offset is None else offset + exact
                exact_v = a @ exact_b
                exact_kkt = float(_kkt_violation(qn - exact_v, exact, lam))
                if exact_kkt <= cap:
                    delta, b, v, kkt = exact, exact_b, exact_v, exact_kkt
                    converged = True
                    break
        v = a @ b  # fresh product keeps accumulated rounding out of the tests below
        kkt = float(_kkt_violation(qn - v, delta, lam))
        if max_change <= cap and kkt <= cap:
            converged = True
            break
    objective = 0.5 * (r0n - 2.0 * float(qn @ b) + float(b @ v))
    objective += lam * float(np.abs(delta).sum())
    return delta, objective, sweeps, kkt, converged


def _gram_pieces(blocks):
    z0, r0 = blocks[0]
    p = z0.shape[1]
    n_total = sum(z.shape[0] for z, _ in blocks)
    h = np.zeros((p, p))
    q = np.zeros(p)
    rss = 0.0
    for z, r in blocks:
        h += z.T @ z
        q += z.T @ r
        rss += float(r @ r)
    return h / n_total, q / n_total, rss / n_total


def lasso_fit(
    problem: LassoProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: np.ndarray | None = None,
) -> LassoSolution:
    """Coordinate-descent Lasso over stacked blocks.

    After a sweep that keeps the sign pattern, the KKT equations are
    solved on the support; that exact point is returned when it keeps
    the signs and its KKT violation is at most tol times the response
    RMS.  Otherwise the solve converges when the largest coefficient
    move in a sweep and the KKT violation both fall below that bound.
    Hitting max_iter returns the last iterate flagged converged=False
    rather than raising.
    """
    if warm_start is not None:
        warm_start = check_vector(warm_start, "warm_start")
        if warm_start.size != problem.p:
            raise ValueError(
                f"warm_start has length {warm_start.size}, expected {problem.p}"
            )
    a, qn, r0n = _gram_pieces(problem.blocks)
    delta, objective, sweeps, kkt, converged = _fit_gram(
        a, qn, r0n, problem.lam, problem.offset, warm_start, tol, max_iter
    )
    return LassoSolution(
        coef=delta,
        objective=objective,
        iterations=sweeps,
        kkt_violation=kkt,
        converged=converged,
    )


# ======================================================================
# scaled Lasso (joint noise-level estimate)
# ======================================================================


@dataclass
class ScaledLassoFit:
    coef: np.ndarray
    sigma: float
    lambda0: float
    alternations: int


def scaled_lasso(
    z: np.ndarray,
    r: np.ndarray,
    lambda0: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScaledLassoFit:
    """Alternating Lasso / noise-level estimate.

    Iterates beta <- Lasso(lam = sigma * lambda0) and
    sigma <- ||r - z beta|| / sqrt(n) from sigma = ||r|| / sqrt(n) until
    sigma moves by less than 1e-6 relative.  lambda0 defaults to
    sqrt(2 log p / n).  Scaling r by a constant scales sigma by the same
    constant with an identical iterate path.
    """
    z = check_matrix(z, "z")
    r = check_vector(r, "r")
    n, p = z.shape
    if r.size != n:
        raise ValueError(f"z has {n} rows, r has {r.size}")
    if n < 1 or p < 1:
        raise ValueError("z must have at least one row and one column")
    if lambda0 is None:
        lambda0 = math.sqrt(2.0 * math.log(p) / n)
    elif lambda0 < 0:
        raise ValueError(f"lambda0 must be nonnegative, got {lambda0}")

    a, qn, r0n = _gram_pieces([(z, r)])
    sigma = math.sqrt(r0n)
    if sigma == 0.0:
        raise ValueError("response has zero variance")
    sigma_init = sigma
    coef = np.zeros(p)
    for it in range(100):
        lam = sigma * lambda0
        coef, _, _, _, converged = _fit_gram(a, qn, r0n, lam, None, coef, tol, max_iter)
        if not converged:
            raise ConvergenceError(
                f"scaled lasso inner solve hit {max_iter} sweeps at alternation {it + 1}"
            )
        resid = r - z @ coef
        sigma_new = math.sqrt(float(resid @ resid) / n)
        if sigma_new == 0.0:
            raise ValueError("residual variance collapsed to zero")
        # a noiseless response decays sigma geometrically forever; treat a
        # collapse far below the initial scale as converged-at-zero-noise
        if sigma_new < 1e-8 * sigma_init or abs(sigma_new - sigma) < 1e-6 * sigma:
            return ScaledLassoFit(
                coef=coef, sigma=sigma_new, lambda0=lambda0, alternations=it + 1
            )
        sigma = sigma_new
    raise ConvergenceError("scaled lasso did not settle within 100 alternations")


# ======================================================================
# nodewise precision-matrix estimate
# ======================================================================


@dataclass
class PrecisionEstimate:
    """Row-wise regression inverse of a Gram matrix u.T u / n.

    Row j is omega_j / tau_sq[j] where omega_j has a one at j and minus
    the nodewise Lasso coefficients elsewhere, and tau_sq[j] is the
    corresponding residual scale (1/n) u_j.T (u_j - U_{-j} gamma_j).
    """

    theta: np.ndarray
    lambdas: np.ndarray
    tau_sq: np.ndarray


def nodewise_precision(
    u: np.ndarray,
    lambda_node: float | np.ndarray | None = None,
    lambda_c: float = DEFAULT_LAMBDA_C,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PrecisionEstimate:
    """Nodewise-Lasso precision estimate of (u.T u / n)^(-1).

    lambda_node = None uses the uniform rule c * sqrt(log p / n); a
    scalar applies to every row and a length-p vector sets each row.

    Row j is the Lasso of column j on the other columns, with Gram
    pieces taken from G = u.T u / n (van de Geer, Buhlmann, Ritov and
    Dezeure 2014).  All p problems share G, so one coordinate-descent
    loop solves them together: the visit to coordinate k updates every
    live problem j != k at once.  Each problem follows the iterate path
    of a cold-start `_fit_gram` solve: the same coordinate order, the
    same skip of zero-variance coordinates, a fresh G @ gamma after every
    sweep, and the same stop rule.  A problem whose sign pattern on its
    nonempty support S survives a sweep gets the exact finish
    G[S, S] gamma_S = G[j, S] - lambda_j * sign_S, accepted when it keeps
    the pattern and its KKT violation is at most tol * sqrt(G[j, j]);
    a rejected pattern is not tried again until a sweep changes it.
    Otherwise the problem passes when its largest coefficient move and
    its KKT violation are both at most that cap.  A problem that passes is
    frozen, so it stops on the same sweep, at the same point, as a solve
    of its own.  Failures are reported for the lowest failing row:
    ConvergenceError when it used up max_iter sweeps, ValueError when its
    residual variance is degenerate.
    """
    u = check_matrix(u, "u")
    n, p = u.shape
    if n < 2 or p < 1:
        raise ValueError(f"u must have at least 2 rows and 1 column, got {u.shape}")
    if lambda_node is None:
        lambdas = np.full(p, lambda_c * math.sqrt(math.log(p) / n))
    elif np.isscalar(lambda_node):
        lambdas = np.full(p, float(lambda_node))
    else:
        lambdas = check_vector(np.asarray(lambda_node, dtype=np.float64), "lambda_node")
        if lambdas.size != p:
            raise ValueError(f"lambda_node has length {lambdas.size}, expected {p}")
    if np.any(lambdas < 0):
        raise ValueError("nodewise penalties must be nonnegative")

    gram = u.T @ u / n
    diag = np.diagonal(gram).copy()
    # stopping thresholds of problem j, scaled by its response RMS as in _fit_gram
    caps = tol * np.where(diag > 0.0, np.sqrt(diag), 1.0)
    # Problem-major storage: row c of coef holds gamma for problem order[c]
    # (zero at its own coordinate) and row c of fitted holds gram @ gamma.
    # Rows [:m] are the live problems; converged ones are moved behind them.
    coef = np.zeros((p, p))
    fitted = np.zeros((p, p))
    order = np.arange(p)
    tau_sq = np.zeros(p)
    converged = np.zeros(p, dtype=bool)
    tried = np.zeros(p, dtype=bool)  # problem j's sign pattern failed its exact finish
    m = p
    sweeps = 0
    while m and sweeps < max_iter:
        live = order[:m].copy()
        slot = np.full(p, -1)
        slot[live] = np.arange(m)
        hi = lambdas[live]
        lo = -hi
        cap = caps[live]
        gam, fit = coef[:m], fitted[:m]
        moves = np.zeros(m)
        signs = np.sign(gam)
        for k in range(p):
            gkk = diag[k]
            if gkk <= 0.0:
                continue
            old = gam[:, k]
            c = gram[k, live] - fit[:, k] + gkk * old
            new = (c - np.minimum(np.maximum(c, lo), hi)) / gkk
            if slot[k] >= 0:
                new[slot[k]] = 0.0  # problem k does not regress on itself
            step = new - old
            rows = step.nonzero()[0]
            if rows.size:
                gam[:, k] = new
                fit[rows] += step[rows, None] * gram[k]
                np.maximum(moves, np.abs(step), out=moves)
        sweeps += 1
        # problems whose nonempty sign pattern survived the sweep, and has
        # not failed its finish yet, try the exact finish below
        stable = (np.sign(gam) == signs).all(axis=1)
        tried[live[~stable]] = False
        finish = np.flatnonzero(stable & ~tried[live] & gam.any(axis=1))
        tried[live[finish]] = True
        del signs, stable  # free them before g below
        np.matmul(gam, gram, out=fit)  # fresh product keeps incremental drift out of the tests below
        g = gram[live]
        g -= fit
        g[np.arange(m), live] = 0.0  # coordinate j is not a variable of problem j
        done = (moves <= cap) & (_kkt_violation(g, gam, hi[:, None]) <= cap)
        del g  # free it before the compaction below makes its own copies
        for c in finish.tolist():
            j = live[c]
            support = np.flatnonzero(gam[c])
            x = _support_point(gram, gram[j], hi[c], support, np.sign(gam[c, support]))
            if x is None:
                continue
            row = np.zeros(p)
            row[support] = x
            row_fit = x @ gram[support]
            g = gram[j] - row_fit
            g[j] = 0.0
            if _kkt_violation(g, row, hi[c]) <= cap[c]:
                gam[c], fit[c], done[c] = row, row_fit, True
        if done.any():
            finished = live[done]
            tau_sq[finished] = diag[finished] - fit[done, finished]
            converged[finished] = True
            keep = np.flatnonzero(~done)
            perm = np.concatenate([keep, np.flatnonzero(done)])
            coef[:m] = gam[perm]
            fitted[: keep.size] = fit[keep]
            order[:m] = live[perm]
            m = keep.size

    bad = ~converged | (tau_sq <= TAU_SQ_FLOOR)
    if bad.any():
        j = int(np.argmax(bad))
        if not converged[j]:
            raise ConvergenceError(f"nodewise regression {j} hit {max_iter} sweeps")
        raise ValueError(
            f"nodewise residual variance degenerate at column {j} ({tau_sq[j]:.3e})"
        )
    theta = fitted  # the work buffer becomes the result
    theta[order] = coef
    theta /= -tau_sq[:, None]
    np.fill_diagonal(theta, 1.0 / tau_sq)
    return PrecisionEstimate(theta=theta, lambdas=lambdas, tau_sq=tau_sq)
