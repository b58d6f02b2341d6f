"""Latent factor extraction by principal components.

A design matrix x (n rows, p columns) is split as x = factors @ loadings.T
+ idiosyncratic, with the factor count picked by the eigenvalue-ratio
rule when not supplied.  Downstream regressions run on the idiosyncratic
part after the response has been purged of the factor span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from transfarm.numerics import DegenerateError, SymEigResult, check_matrix, check_vector, sym_eig

# Eigenvalues below this fraction of the leading one are floored before
# ratios are formed, so trailing zeros cannot fake a huge ratio.
EIGENVALUE_FLOOR_REL = 1e-12

# Cap on the candidate ranks of the automatic rank choice, which searches
# at most min(min(n, p) // 2, MAX_RANK_CAP) of them.
MAX_RANK_CAP = 15


@dataclass
class FactorDecomposition:
    """Split of a design matrix into common and idiosyncratic parts.

    The split is kept in factored form: the rank-r factors and loadings
    and a read-only view of the design x it split, so it holds (n + p) * r
    doubles beside x.  factors has unit-scaled columns
    (factors.T @ factors / n = I) and the loadings satisfy
    loadings = x.T @ factors / n.  idiosyncratic is the residual
    x - factors @ loadings.T, re-formed from x on each read as a
    read-only n x p array; at rank 0 it is the view of x itself, with no
    copy.  x must therefore not change while the split is in use.
    gram_eigenvalues is the descending spectrum of x @ x.T; it is empty
    for a split at a fixed rank 0, which never forms the Gram.
    """

    rank: int
    factors: np.ndarray
    loadings: np.ndarray
    x: np.ndarray
    gram_eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.factors.shape[0]

    @property
    def idiosyncratic(self) -> np.ndarray:
        if not self.rank:
            return self.x
        u = self.x - self.factors @ self.loadings.T
        u.flags.writeable = False
        return u


def select_rank(gram_eigenvalues: np.ndarray, max_rank: int) -> int:
    """Eigenvalue-ratio rank estimate.

    Floors the spectrum at EIGENVALUE_FLOOR_REL times the top eigenvalue,
    then returns the index i in 1..max_rank maximising the ratio of the
    i-th to the (i+1)-th eigenvalue (smallest index wins ties).  Invariant
    to positive rescaling; an all-zero spectrum raises DegenerateError.
    """
    values = check_vector(np.asarray(gram_eigenvalues, dtype=np.float64), "eigenvalues")
    if max_rank < 1:
        raise ValueError(f"max_rank must be at least 1, got {max_rank}")
    if max_rank + 1 > values.size:
        raise ValueError(
            f"need at least max_rank + 1 = {max_rank + 1} eigenvalues, got {values.size}"
        )
    top = values[0]
    if top <= 0.0:
        raise DegenerateError("leading eigenvalue must be positive")
    floored = np.maximum(values, EIGENVALUE_FLOOR_REL * top)
    ratios = floored[:max_rank] / floored[1 : max_rank + 1]
    return int(np.argmax(ratios)) + 1


def decompose(x: np.ndarray, rank: int | None = None) -> FactorDecomposition:
    """Principal-component factor split of a design matrix.

    rank = None picks the factor count by the eigenvalue-ratio rule over
    at most min(min(n, p) // 2, 15) candidates; rank = 0 is a valid
    degenerate split with empty factors whose idiosyncratic block is a
    read-only view of x.  The split stores the factors, the loadings and
    that view, not the n x p idiosyncratic block, which it re-forms from
    x on each read; so x must not be modified while the split is used.
    """
    x = check_matrix(x, "x")
    n, p = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    limit = min(n, p)
    if rank is not None and (rank < 0 or rank > limit):
        raise ValueError(f"rank must lie in [0, {limit}], got {rank}")

    # a rank-0 split passes x through and needs no spectrum
    eig = SymEigResult(np.zeros(0), np.zeros((n, 0))) if rank == 0 else sym_eig(x @ x.T)
    gram_eigenvalues = eig.eigenvalues
    if rank is None:
        # the gram spectrum dies at the column count, so an uncapped ratio
        # search on a narrow design would always pick the full column rank
        # and leave an all-zero idiosyncratic block
        cap = min(limit // 2, MAX_RANK_CAP)
        if cap < 1:
            raise ValueError(
                f"automatic rank selection needs at least 2 usable columns, got {limit}"
            )
        rank = select_rank(gram_eigenvalues, cap)

    factors = np.sqrt(n) * eig.eigenvectors[:, :rank]
    loadings = x.T @ factors / n
    view = x.view()
    view.flags.writeable = False
    return FactorDecomposition(
        rank=rank,
        factors=factors,
        loadings=loadings,
        x=view,
        gram_eigenvalues=gram_eigenvalues,
    )


def residualize(y: np.ndarray, decomp: FactorDecomposition) -> np.ndarray:
    """Project the estimated factor span out of a response vector."""
    y = check_vector(y, "y")
    f = decomp.factors
    if y.size != f.shape[0]:
        raise ValueError(f"y has {y.size} rows, decomposition has {f.shape[0]}")
    return y - f @ (f.T @ y) / f.shape[0]

