"""Deterministic numerical kernels: eigendecomposition and random sampling.

Everything downstream funnels its linear algebra and randomness through
this module so that determinism and sign conventions are fixed in one
place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# Relative tolerance for the symmetry pre-check in sym_eig.
SYMMETRY_RTOL = 1e-10

# Cholesky pivots at or below this value mean the covariance is not
# numerically positive definite.
CHOLESKY_PIVOT_FLOOR = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations without converging."""


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_vector(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _is_integer(value) -> bool:
    # a bool is not an integer here, nor is a float, even when integral
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_fields(config) -> None:
    """Check each field of the dataclass config against its annotation,
    which must be postponed so that it is text: a float must be finite and
    an int a Python or numpy integer, either may be None when annotated
    "| None".  The ValueError names the first field that fails."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if kind == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        if kind == "int" and not _is_integer(value):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


def check_indices(values, name: str = "indices") -> list[int]:
    """values as Python ints; an entry that is not a Python or numpy
    integer (a bool, or a float even when integral) raises."""
    out = []
    for v in values:
        if not _is_integer(v):
            raise ValueError(f"{name} entries must be integers, got {v!r}")
        out.append(int(v))
    return out


# ======================================================================
# random streams
# ======================================================================


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream addressed by (seed, stream, path).

    Substreams are derived through SeedSequence spawn keys, so any
    (seed, stream, *path) tuple names the same stream regardless of how
    many other streams were consumed before it.  That keeps replications,
    folds, and bootstrap draws reproducible under any execution order.
    """

    seed: int
    stream: int = 0
    path: tuple[int, ...] = field(default_factory=tuple)

    def generator(self, *key: int) -> np.random.Generator:
        """Fresh generator for this stream, further keyed by `key`."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream, *self.path, *key)
        )
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, *key: int) -> "RngStream":
        """Child stream whose generators never collide with the parent's."""
        return RngStream(self.seed, self.stream, self.path + key)


def correlated_normal(rng: RngStream, n: int, cov: np.ndarray) -> np.ndarray:
    """n rows of N(0, cov) via the Cholesky factor of cov.

    cov must be symmetric positive definite; a pivot at or below
    1e-12 is treated as rank deficiency and raises.
    """
    cov = check_matrix(cov, "cov")
    if n < 1:
        raise ValueError(f"row count must be positive, got {n}")
    if cov.shape[0] != cov.shape[1]:
        raise ValueError(f"cov must be square, got shape {cov.shape}")
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"cov is not positive definite: {exc}") from None
    pivots = np.diagonal(lower) ** 2
    if np.min(pivots) <= CHOLESKY_PIVOT_FLOOR:
        raise ValueError(
            f"cov is numerically rank deficient (pivot {np.min(pivots):.3e})"
        )
    z = rng.generator().standard_normal((n, cov.shape[0]))
    return z @ lower.T


def toeplitz_correlation(rho: float, p: int) -> np.ndarray:
    """Correlation matrix with entries rho ** |i - j|."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if p < 1:
        raise ValueError(f"dimension must be positive, got {p}")
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


# ======================================================================
# symmetric eigendecomposition
# ======================================================================


@dataclass
class SymEigResult:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Each column's largest-magnitude entry is made positive; ties in
    # magnitude resolve to the lowest index via argmax.
    if vectors.shape[1] == 0:
        return vectors
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eig(a: np.ndarray) -> SymEigResult:
    """Eigendecomposition of a symmetric matrix, deterministic across calls.

    Eigenvalues come back in descending order.  Eigenvector signs follow
    a fixed convention (largest-magnitude entry positive, first index on
    ties) so repeated calls agree bitwise.
    """
    a = check_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = np.max(np.abs(a)) if n > 0 else 0.0
    asym = np.max(np.abs(a - a.T)) if n > 0 else 0.0
    if asym > SYMMETRY_RTOL * max(1.0, scale):
        raise ValueError(
            f"matrix is not symmetric (max asymmetry {asym:.3e}, scale {scale:.3e})"
        )
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from None
    # Stable descending order: equal eigenvalues keep their LAPACK order,
    # which makes trivial cases like the identity return the identity basis.
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    return SymEigResult(eigenvalues=values, eigenvectors=vectors)
