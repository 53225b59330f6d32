"""Numerical core: standardization, correlation, PCA, Moran's I.

PCA runs on the Pearson correlation matrix (the ten access variables mix
counts, densities, meters and percentages, so unit variance is the only
sane common scale). The eigensolver is a cyclic Jacobi sweep: for 10x10
symmetric matrices it is exact to machine precision, fully deterministic,
and needs no LAPACK.

Eigenvector signs are arbitrary, so a fixed convention is applied: within
each loading column the entry of largest absolute value is made positive.
Everything downstream (contributor thresholds, loading-profile
correlations) is invariant under per-column sign flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstantColumnError, DomainError, NumericalError
from .geometry import AdjacencyList

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True)
class ContributorThresholds:
    """Absolute-loading cutoffs for contributor classification."""

    significant: float = 0.4000
    secondary: float = 0.1000

    def __post_init__(self) -> None:
        if not (0 < self.secondary < self.significant):
            raise DomainError(
                f"need 0 < secondary < significant, got {self.secondary}, {self.significant}"
            )


@dataclass
class PcaResult:
    """Eigenvalues (descending), variance proportions, loadings, scores.

    loadings[:, k] is the unit eigenvector for eigenvalues[k]; scores are
    the standardized data projected onto the loadings (n x p).
    """

    eigenvalues: np.ndarray
    proportions: np.ndarray
    loadings: np.ndarray
    scores: np.ndarray

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)


@dataclass
class MoranResult:
    """Global Moran's I with a permutation-based pseudo p-value."""

    I: float
    expected: float
    permutations: int
    pseudo_p: float
    seed: int


def standardize(column: np.ndarray, name: str = "column") -> np.ndarray:
    """Z-scores with sample standard deviation (divisor n-1)."""
    col = np.asarray(column, dtype=float)
    if col.size < 2:
        raise DomainError(f"{name}: need at least 2 observations, got {col.size}")
    if not np.all(np.isfinite(col)):
        raise DomainError(f"{name} contains non-finite values")
    mean = col.mean()
    sd = col.std(ddof=1)
    if sd == 0.0:
        raise ConstantColumnError(f"{name} has zero variance")
    return (col - mean) / sd


def standardize_table(values: np.ndarray, names: list[str] | None = None) -> np.ndarray:
    """Standardize every column; errors name the offending variable."""
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    if names is None:
        names = [f"col{j}" for j in range(p)]
    z = np.empty_like(values)
    for j in range(p):
        z[:, j] = standardize(values[:, j], names[j])
    return z


def correlation_matrix(values: np.ndarray, names: list[str] | None = None) -> np.ndarray:
    """Symmetric Pearson correlation matrix with an exact unit diagonal."""
    z = standardize_table(values, names)
    n = z.shape[0]
    r = (z.T @ z) / (n - 1)
    r = 0.5 * (r + r.T)
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return r


def _jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Sweeps row-by-row, rotating away each off-diagonal entry, until the
    off-diagonal Frobenius norm drops below JACOBI_TOL. Returns
    (eigenvalues, eigenvectors-as-columns), unsorted.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)

    def off_norm() -> float:
        # direct sum over off-diagonal entries; subtracting the diagonal
        # from the total cancels catastrophically near convergence
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.sqrt((off * off).sum()))

    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm() < JACOBI_TOL:
            return np.diag(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # A <- J^T A J and V <- V J, with the (p,q) Givens rotation J
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if off_norm() < JACOBI_TOL:
        return np.diag(a).copy(), v
    raise NumericalError(
        f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps"
    )


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-|entry| element of each column positive (lowest row wins ties)."""
    fixed = vectors.copy()
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        pivot = int(np.argmax(np.abs(col)))  # argmax returns the lowest index on ties
        if col[pivot] < 0:
            fixed[:, k] = -col
    return fixed


def pca(values: np.ndarray, names: list[str] | None = None) -> PcaResult:
    """Correlation-matrix PCA of an n x p data table.

    Standardizes each column, eigendecomposes the Pearson correlation
    matrix with cyclic Jacobi rotations, sorts eigenpairs by descending
    eigenvalue (ties broken by the sign-fixed eigenvector's lexicographic
    order), applies the sign convention, and projects the standardized
    data onto the loadings.

    Rank-deficient tables (n <= p, duplicated variables) are fine: the
    correlation matrix just picks up zero eigenvalues.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DomainError(f"expected a 2-d table, got shape {values.shape}")
    n, p = values.shape
    if n < 2:
        raise DomainError(f"PCA needs at least 2 rows, got {n}")
    eigenvalues, vectors = _jacobi_eigh(correlation_matrix(values, names))
    if eigenvalues.min() < -1e-8:
        raise NumericalError(
            f"correlation matrix produced eigenvalue {eigenvalues.min()}; expected PSD"
        )
    eigenvalues = np.maximum(eigenvalues, 0.0)
    vectors = _fix_column_signs(vectors)
    order = sorted(
        range(p), key=lambda k: (-eigenvalues[k], tuple(vectors[:, k]))
    )
    eigenvalues = eigenvalues[order]
    loadings = vectors[:, order]
    total = eigenvalues.sum()
    if total <= 0:
        raise NumericalError("eigenvalue sum is not positive")
    return PcaResult(
        eigenvalues=eigenvalues,
        proportions=eigenvalues / total,
        loadings=loadings,
        scores=standardize_table(values, names) @ loadings,
    )


def classify_contributors(
    loading_column: list[tuple[str, float]],
    thresholds: ContributorThresholds = ContributorThresholds(),
) -> tuple[set[str], set[str]]:
    """Split a loading column into significant and secondary contributors.

    significant: |loading| >= thresholds.significant (inclusive);
    secondary: thresholds.secondary <= |loading| < thresholds.significant.
    The sets are disjoint by construction.
    """
    significant = set()
    secondary = set()
    for name, loading in loading_column:
        magnitude = abs(loading)
        if magnitude >= thresholds.significant:
            significant.add(name)
        elif magnitude >= thresholds.secondary:
            secondary.add(name)
    return significant, secondary


def loading_profile_correlation(
    loadings: np.ndarray, names: list[str] | None = None
) -> np.ndarray:
    """Pearson correlation between ROWS of a loading matrix.

    Each row is one variable's profile across all components; the result
    says which variables load the same way. Constant rows cannot be
    correlated and raise ConstantColumnError.
    """
    loadings = np.asarray(loadings, dtype=float)
    if loadings.ndim != 2 or loadings.shape[0] != loadings.shape[1]:
        raise DomainError(f"expected a square loading matrix, got {loadings.shape}")
    return correlation_matrix(loadings.T, names)


def moran_statistic(values: np.ndarray, adjacency: AdjacencyList) -> float:
    """Global Moran's I with row-standardized weights.

    I = (n / S0) * sum_ij w_ij z_i z_j / sum_i z_i^2, where w_ij = 1/|N(i)|
    for j in N(i) and S0 is the total weight (the number of tracts that
    have at least one neighbor, since rows sum to 1).
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    z = x - x.mean()
    denom = float(z @ z)
    if denom == 0.0:
        raise ConstantColumnError("values are constant; Moran's I is undefined")
    num = 0.0
    s0 = 0.0
    for i, neigh in enumerate(adjacency.neighbors):
        if not neigh:
            continue
        w = 1.0 / len(neigh)
        s0 += 1.0
        num += w * z[i] * sum(z[j] for j in neigh)
    if s0 == 0.0:
        raise DomainError("no tract has a neighbor; Moran's I is undefined")
    return float((n / s0) * num / denom)


def morans_i(
    values: np.ndarray,
    adjacency: AdjacencyList,
    permutations: int = 999,
    seed: int = 0,
) -> MoranResult:
    """Moran's I plus a two-sided permutation pseudo p-value.

    Permutation t shuffles the values with an RNG seeded as seed + t, so
    the result is independent of execution order. pseudo_p counts
    permuted |I| values at least as extreme as the observed |I|:
    (#{|I_perm| >= |I|} + 1) / (permutations + 1).
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 3:
        raise DomainError(f"Moran's I needs n >= 3, got {n}")
    if len(adjacency) != n:
        raise DomainError(
            f"adjacency covers {len(adjacency)} tracts but got {n} values"
        )
    if permutations < 99:
        raise DomainError(f"permutations must be >= 99, got {permutations}")
    observed = moran_statistic(x, adjacency)
    hits = 0
    for t in range(permutations):
        rng = np.random.default_rng(seed + t)
        perm = x[rng.permutation(n)]
        if abs(moran_statistic(perm, adjacency)) >= abs(observed):
            hits += 1
    return MoranResult(
        I=observed,
        expected=-1.0 / (n - 1),
        permutations=permutations,
        pseudo_p=(hits + 1) / (permutations + 1),
        seed=seed,
    )
