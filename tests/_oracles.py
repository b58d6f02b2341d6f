"""Independent brute-force references used by the tests.

Nothing here may call into the solver or eigensolver under test; every
routine takes a deliberately different algorithmic route (characteristic
polynomial instead of tridiagonalization, projected gradient instead of
coordinate descent, normal equations instead of iterative fitting, the
cell-by-cell CSV row loop instead of np.loadtxt).
"""

import csv
import math
import os

import numpy as np

# ======================================================================
# eigendecomposition via the characteristic polynomial
# ======================================================================


def charpoly_coefficients(a):
    # Faddeev-LeVerrier recursion for det(tI - A)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs[k] = c
    return coeffs


def fix_sign(v):
    # largest-magnitude entry positive, first index on ties
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        return -v
    return v


def charpoly_eig(a, top_k=None):
    """Eigenpairs of a small symmetric matrix without the library
    eigensolver: polynomial roots plus shifted inverse iteration.

    Only suitable for well-separated spectra (random test matrices);
    accuracy is ~1e-9 which is enough for the 1e-6..1e-8 comparisons.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    roots = np.roots(charpoly_coefficients(a))
    roots = np.sort(np.real(roots))[::-1]
    if top_k is None:
        top_k = n
    values = roots[:top_k]
    vectors = np.empty((n, top_k))
    for i, lam in enumerate(values):
        shift = lam + 1e-7 * max(1.0, abs(lam))
        v = np.ones(n) / np.sqrt(n)
        for _ in range(60):
            v = np.linalg.solve(a - shift * np.eye(n), v)
            v = v / np.linalg.norm(v)
        vectors[:, i] = fix_sign(v)
    return values, vectors


# ======================================================================
# l1-penalized least squares via projected gradient on the split form
# ======================================================================


def pooled_objective(blocks, coef, lam, offset=None):
    total = 0.0
    n_total = 0
    for z, r in blocks:
        fitted = z @ (coef if offset is None else offset + coef)
        total += float(np.sum((r - fitted) ** 2))
        n_total += z.shape[0]
    return total / (2.0 * n_total) + lam * float(np.sum(np.abs(coef)))


def split_lasso(blocks, lam, offset=None, max_iter=400000):
    """Projected gradient on the positive/negative split of the pooled
    objective (1/2N) sum ||r_k - Z_k (offset + d)||^2 + lam ||d||_1.

    Slow but unambiguous; stops when the iterate stalls below 1e-14.
    """
    p = blocks[0][0].shape[1]
    n_total = sum(z.shape[0] for z, _ in blocks)
    h = np.zeros((p, p))
    q = np.zeros(p)
    for z, r in blocks:
        resid = r if offset is None else r - z @ offset
        h += z.T @ z
        q += z.T @ resid
    h /= n_total
    q /= n_total
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(h).max()))
    pos = np.zeros(p)
    neg = np.zeros(p)
    for _ in range(max_iter):
        grad = h @ (pos - neg) - q
        new_pos = np.maximum(0.0, pos - step * (grad + lam))
        new_neg = np.maximum(0.0, neg - step * (-grad + lam))
        change = max(np.max(np.abs(new_pos - pos)), np.max(np.abs(new_neg - neg)))
        pos, neg = new_pos, new_neg
        if change < 1e-14:
            break
    return pos - neg


def nodewise_oracle(u, lambdas):
    """Nodewise precision estimate built row by row: row j regresses
    column j on the others with split_lasso at penalty lambdas[j].

    Returns (theta, tau_sq) with theta[j, j] = 1 / tau_sq[j] and
    theta[j, -j] = -gamma_j / tau_sq[j].
    """
    n, p = u.shape
    theta = np.zeros((p, p))
    tau_sq = np.zeros(p)
    for j in range(p):
        others = [k for k in range(p) if k != j]
        gamma = split_lasso([(u[:, others], u[:, j])], lambdas[j]) if others else np.zeros(0)
        tau_sq[j] = float(u[:, j] @ (u[:, j] - u[:, others] @ gamma)) / n
        theta[j, j] = 1.0 / tau_sq[j]
        theta[j, others] = -gamma / tau_sq[j]
    return theta, tau_sq


def ols(z, r):
    return np.linalg.solve(z.T @ z, z.T @ r)


# ======================================================================
# gaussian max-norm reference quantile
# ======================================================================


def gaussian_max_quantile(dim, level, samples=200000, seed=987654321):
    # independent sampler on the default bit generator, not RngStream
    gen = np.random.default_rng(seed)
    draws = np.max(np.abs(gen.standard_normal((samples, dim))), axis=1)
    return float(np.quantile(draws, level))


# ======================================================================
# CSV ingest, one float() call per cell
# ======================================================================


class IngestError(Exception):
    """A file ingest_rows rejects; the message is the one the CLI prints."""


def ingest_rows(path, response="y"):
    """The CLI's ingest_dataset as a csv.reader row loop: (x, y, names).

    Accepts every float() spelling and names the first bad row and
    column, counting data rows from 1.
    """
    if not os.path.isfile(path):
        raise IngestError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        hits = [i for i, h in enumerate(header) if h == response]
        if not hits:
            raise IngestError(f"{path}: response column {response!r} not found")
        if len(hits) > 1:
            raise IngestError(f"{path}: response column {response!r} appears twice")
        y_col = hits[0]
        feature_names = [h for i, h in enumerate(header) if i != y_col]
        if not feature_names:
            raise IngestError(f"{path}: no feature columns besides {response!r}")
        xs, ys = [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                )
            vals = []
            for i, cell in enumerate(row):
                try:
                    v = float(cell)
                except ValueError:
                    raise IngestError(
                        f"{path}: non-numeric value at row {row_no}, column {header[i]}"
                    ) from None
                if not math.isfinite(v):
                    raise IngestError(
                        f"{path}: non-finite value at row {row_no}, column {header[i]}"
                    )
                vals.append(v)
            ys.append(vals[y_col])
            xs.append([v for i, v in enumerate(vals) if i != y_col])
    if len(xs) < 2:
        raise IngestError(f"{path}: need at least 2 data rows, got {len(xs)}")
    return np.array(xs), np.array(ys), feature_names
