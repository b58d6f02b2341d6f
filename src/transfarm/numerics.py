"""Deterministic numerical kernels: eigendecomposition and random sampling.

Everything downstream funnels its linear algebra and randomness through
this module so that determinism and sign conventions are fixed in one
place.  The gaussian sampler, spiked_ar1_normal, draws rows with AR(1)
correlation plus a rank-one spike in O(n·p): it applies the Cholesky
factor L = L_T·L_A (the AR(1) recursion times the rank-one update)
without forming the covariance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

# Relative tolerance for the symmetry pre-check in sym_eig.
SYMMETRY_RTOL = 1e-10


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations without converging."""


class DegenerateError(RuntimeError):
    """A computation met a degenerate quantity (a zero variance or spectrum)."""


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


def _check_kind(name: str, kind: str, value) -> None:
    if kind == "float":
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    elif kind == "int" and not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    elif kind == "bool" and not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    elif kind.startswith("tuple["):
        if not isinstance(value, tuple):
            raise ValueError(f"{name} must be a tuple, got {value!r}")
        entry = kind.removeprefix("tuple[").removesuffix(", ...]")
        for v in value:
            _check_kind(name, entry, v)


def check_fields(config, at_least: dict[str, float]) -> None:
    """Check each field of the dataclass config against its annotation,
    which must be postponed so that it is text, then against at_least, its
    lowest value by field name.  A float is a finite real number and not a
    bool, an int a Python or numpy integer, a bool a Python or numpy bool,
    a tuple[T, ...] a tuple of T; a str is not checked.  None passes a
    field annotated "| None".  The ValueError names the first field that
    fails; a key of at_least that names no field raises a TypeError."""
    stray = set(at_least).difference(f.name for f in fields(config))
    if stray:
        raise TypeError(f"{type(config).__name__} has no fields {sorted(stray)}")
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        _check_kind(f.name, kind, value)
        if f.name in at_least and value < at_least[f.name]:
            raise ValueError(f"{f.name} must be at least {at_least[f.name]}, got {value}")


def check_count(value, name: str, minimum: int = 0) -> int:
    """value as a Python int; a value that is not a Python or numpy
    integer (a bool, or a float even when integral), or is below minimum,
    raises a ValueError naming it."""
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def check_fraction(value, name: str) -> None:
    """value must lie strictly inside (0, 1), which NaN does not."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value}")


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


def spiked_ar1_normal(rng: RngStream, n: int, rho: float, spike) -> np.ndarray:
    """n rows of N(0, T + s·sᵀ) in O(n·p), where T[i, j] = rho ** |i - j|
    is the AR(1) correlation and s = spike a rank-one term (zeros for T
    alone).  The rows are z·Lᵀ, with z the n×p standard-normal draw of
    rng.generator() and L the Cholesky factor of T + s·sᵀ, applied
    without forming T, the covariance or L.

    With c = √(1 − rho²), T = L_T·L_Tᵀ where x = L_T·w is the recursion
    x₀ = w₀, x_j = rho·x_{j−1} + c·w_j.  The spike whitened by it,
    u = L_T⁻¹·s, is u₀ = s₀, u_j = (s_j − rho·s_{j−1}) / c.  With the
    running sums β₋₁ = 1, β_j = β_{j−1} + u_j², the Cholesky factor L_A
    of I + u·uᵀ (Gill, Golub, Murray and Saunders 1974, Math. Comp.) has
    L_A[j, j] = √(β_j / β_{j−1}) and L_A[i, j] = u_i·u_j / √(β_j·β_{j−1})
    for i > j, so w = L_A·z is √(β_j / β_{j−1})·z_j plus u_j times the
    exclusive cumulative sum of u_k·z_k / √(β_k·β_{k−1}).  L = L_T·L_A is
    lower triangular with a positive diagonal and L·Lᵀ = T + s·sᵀ; the
    Cholesky factor is unique, so L is it.  For rho < 1 the covariance is
    positive definite whatever the spike.  Each row is L_T·(L_A·z); the
    recursion runs on the transpose, so that each column is contiguous.
    The result is C-ordered.  A ValueError names an n below 1, a rho
    outside [0, 1), and a spike that is empty, not 1-d or not finite.
    """
    n = check_count(n, "row count n", minimum=1)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    s = check_vector(spike, "spike")
    if s.size < 1:
        raise ValueError("spike must have at least one entry, got none")
    c = math.sqrt(1.0 - rho * rho)
    u = np.empty_like(s)  # L_T⁻¹·s
    u[0] = s[0]
    u[1:] = (s[1:] - rho * s[:-1]) / c
    beta = np.cumsum(np.concatenate(([1.0], u * u)))  # β₋₁, β₀, …, β_{p−1}
    z = rng.generator().standard_normal((n, s.size))
    w = np.ascontiguousarray(z.T)  # row j holds column j of z
    acc = np.cumsum(w * (u / np.sqrt(beta[1:] * beta[:-1]))[:, None], axis=0)
    w *= np.sqrt(beta[1:] / beta[:-1])[:, None]
    acc[:-1] *= u[1:, None]
    w[1:] += acc[:-1]  # w = L_A·z
    w[1:] *= c
    prev = w[0]
    for row in w[1:]:  # x = L_T·w
        row += rho * prev
        prev = row
    z[...] = w.T  # back into the draw's own C-ordered buffer
    return z


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
