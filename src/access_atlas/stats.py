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

Global Moran's I uses row-standardised weights, built once per call as
flat (row, column, weight) arrays. One kernel evaluates any stack of
value vectors: the observed vector and, for the permutation test, the
permuted vectors, streamed through it in blocks of bounded size. A
permutation counts as a hit when it is at least as extreme as the
observed I up to a relative tolerance (MORAN_TIE_RTOL), so exact ties are
hits whatever order the floating-point sums ran in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstantColumnError, DomainError, NumericalError
from .geometry import AdjacencyList

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# Permuted vectors are evaluated in blocks of about this many
# (row x weight entry) products, so the memory held by one morans_i call
# stays bounded whatever the permutation count.
MORAN_BLOCK = 1 << 15

# A permutation counts as at least as extreme as the observed statistic
# when |I_perm| >= |I| * (1 - MORAN_TIE_RTOL). Permutations that tie the
# observed I exactly in rational arithmetic (common with integer-valued
# columns such as AV_INT) then count as hits, whatever order the floating
# point sums ran in; that rounding error is orders of magnitude smaller.
MORAN_TIE_RTOL = 1e-9


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


@dataclass(frozen=True)
class MoranWeights:
    """Row-standardised spatial weights as flat coordinate arrays.

    Entry k is the weight w[k] = 1/|N(rows[k])| that tract rows[k] gives
    its neighbour cols[k]; each tract's neighbours appear in ascending
    order. s0 is the total weight, i.e. the number of tracts that have at
    least one neighbour, since every non-empty row sums to 1.
    """

    rows: np.ndarray
    cols: np.ndarray
    w: np.ndarray
    s0: float


def moran_weights(adjacency: AdjacencyList) -> MoranWeights:
    """Row-standardised weights of an adjacency; DomainError if no tract
    has a neighbour."""
    rows: list[int] = []
    cols: list[int] = []
    w: list[float] = []
    s0 = 0.0
    for i, neigh in enumerate(adjacency.neighbors):
        if not neigh:
            continue
        rows.extend([i] * len(neigh))
        cols.extend(sorted(neigh))
        w.extend([1.0 / len(neigh)] * len(neigh))
        s0 += 1.0
    if s0 == 0.0:
        raise DomainError("no tract has a neighbor; Moran's I is undefined")
    return MoranWeights(
        rows=np.array(rows, dtype=np.intp),
        cols=np.array(cols, dtype=np.intp),
        w=np.array(w, dtype=float),
        s0=s0,
    )


def _moran_kernel(x: np.ndarray, weights: MoranWeights) -> np.ndarray:
    """Moran's I of every row of the m x n matrix x."""
    z = x - x.mean(axis=1, keepdims=True)
    denom = np.einsum("ij,ij->i", z, z)
    if not denom.all():
        raise ConstantColumnError("values are constant; Moran's I is undefined")
    num = (z[:, weights.rows] * z[:, weights.cols]) @ weights.w
    return (x.shape[1] / weights.s0) * num / denom


def moran_statistic(values: np.ndarray, adjacency: AdjacencyList) -> float:
    """Global Moran's I with row-standardized weights.

    I = (n / S0) * sum_ij w_ij z_i z_j / sum_i z_i^2, where z = x - mean(x),
    w_ij = 1/|N(i)| for j in N(i) and S0 is the total weight (see
    MoranWeights).
    """
    x = np.asarray(values, dtype=float)
    return float(_moran_kernel(x[None, :], moran_weights(adjacency))[0])


def morans_i(
    values: np.ndarray,
    adjacency: AdjacencyList,
    permutations: int = 999,
    seed: int = 0,
) -> MoranResult:
    """Moran's I plus a two-sided permutation pseudo p-value.

    Permutation t shuffles the values with an RNG seeded as seed + t, so
    the result is independent of execution order. The weights are built
    once; the permuted vectors go through the same kernel as the observed
    one, MORAN_BLOCK // (weight entries) rows at a time. pseudo_p is
    (hits + 1) / (permutations + 1), where a permutation is a hit when
    |I_perm| >= |I| * (1 - MORAN_TIE_RTOL).
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
    weights = moran_weights(adjacency)
    observed = float(_moran_kernel(x[None, :], weights)[0])
    threshold = abs(observed) * (1.0 - MORAN_TIE_RTOL)
    block = max(1, MORAN_BLOCK // weights.w.size)
    hits = 0
    for start in range(0, permutations, block):
        perms = np.stack(
            [
                x[np.random.default_rng(seed + t).permutation(n)]
                for t in range(start, min(start + block, permutations))
            ]
        )
        hits += int(np.count_nonzero(np.abs(_moran_kernel(perms, weights)) >= threshold))
    return MoranResult(
        I=observed,
        expected=-1.0 / (n - 1),
        permutations=permutations,
        pseudo_p=(hits + 1) / (permutations + 1),
        seed=seed,
    )
