"""Numerical core: standardization, correlation, PCA, Moran's I.

PCA runs on the Pearson correlation matrix (the ten access variables mix
counts, densities, meters and percentages, so unit variance is the only
sane common scale), decomposed by numpy's `eigh`. Rank-deficient tables
(n <= p, duplicated variables) have null components, eigenvalue at most
NULL_EIGENVALUE_TOL: any basis of the null space is as good as another, so
the one a solver returns is an artefact of that solver. Their eigenvalue
is therefore exactly 0 and their loading and score columns are all +0.0.

Eigenvector signs are arbitrary, so a fixed convention is applied: within
each loading column the entry of largest absolute value is made positive.
Everything downstream (contributor thresholds, loading-profile
correlations) is invariant under per-column sign flips.

Global Moran's I is computed for every column of the n x p table in one
call. The row-standardised weights are built once from the CSR adjacency,
in pair form: each linked pair of tracts once, with the sum of its two
weights (Cliff & Ord 1981), so no spatial lag is needed. The table is
centred once, with its sums of squares, since neither changes when the
rows are permuted. Permutation t draws one index from an RNG seeded as
seed + t and applies it to every column, so all columns share one
permutation stream; each permutation costs one gather of both ends of
every pair, into rows allocated once per call, and one product of the
pair weights with the ends' products, and the observed I is the identity
permutation. A permutation counts as a hit when it is at least as extreme
as the observed I up to a relative tolerance (MORAN_TIE_RTOL), so exact
ties are hits whatever order the floating-point sums ran in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantColumnError, DomainError, NumericalError

# eigenvalues at most this belong to null components (see module docstring)
NULL_EIGENVALUE_TOL = 1e-9

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
    """Eigenvalues (descending), variance proportions, loadings, scores,
    and the correlation matrix they decompose.

    loadings[:, k] is the unit eigenvector for eigenvalues[k], or all zeros
    for a null component; scores are the standardized data projected onto
    the loadings (n x p).
    """

    eigenvalues: np.ndarray
    proportions: np.ndarray
    loadings: np.ndarray
    scores: np.ndarray
    correlation: np.ndarray

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
    # min == max too: the mean of seven 0.1s is not 0.1, so its sd is not 0
    if sd == 0.0 or col.min() == col.max():
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
    return _correlation_of_standardized(standardize_table(values, names))


def _correlation_of_standardized(z: np.ndarray) -> np.ndarray:
    n = z.shape[0]
    r = (z.T @ z) / (n - 1)
    r = 0.5 * (r + r.T)
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return r


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

    Standardizes each column once, eigendecomposes the Pearson correlation
    matrix, applies the sign convention, zeroes the null components, sorts
    eigenpairs by descending eigenvalue (ties broken by the eigenvector's
    lexicographic order), and projects the standardized data onto the
    loadings.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DomainError(f"expected a 2-d table, got shape {values.shape}")
    n, p = values.shape
    if n < 2:
        raise DomainError(f"PCA needs at least 2 rows, got {n}")
    z = standardize_table(values, names)
    correlation = _correlation_of_standardized(z)
    eigenvalues, vectors = np.linalg.eigh(correlation)
    if eigenvalues.min() < -1e-8:
        raise NumericalError(
            f"correlation matrix produced eigenvalue {eigenvalues.min()}; expected PSD"
        )
    null = eigenvalues <= NULL_EIGENVALUE_TOL
    eigenvalues[null] = 0.0
    vectors = _fix_column_signs(vectors)
    vectors[:, null] = 0.0
    order = sorted(
        range(p), key=lambda k: (-eigenvalues[k], tuple(vectors[:, k]))
    )
    eigenvalues = eigenvalues[order]
    loadings = vectors[:, order]
    total = eigenvalues.sum()
    if total <= 0:
        raise NumericalError("eigenvalue sum is not positive")
    scores = z @ loadings
    scores[:, eigenvalues == 0.0] = 0.0  # +0.0, whatever the signs in z
    return PcaResult(
        eigenvalues=eigenvalues,
        proportions=eigenvalues / total,
        loadings=loadings,
        scores=scores,
        correlation=correlation,
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
    """Row-standardised spatial weights in pair form, as the permutation
    pass reads them.

    ab: the linked pairs a < b, each once in ascending (a, b) order, as the
    E a's followed by the E b's (intp, length 2E); c[k] = 1/|N(a_k)| +
    1/|N(b_k)|, the weight w_ab + w_ba of pair k; s0: the total weight, the
    number of tracts with a neighbour, since every non-empty row sums to 1.
    """

    ab: np.ndarray
    c: np.ndarray
    s0: float


def moran_weights(adjacency: tuple[np.ndarray, np.ndarray]) -> MoranWeights:
    """Pair-form weights of a symmetric CSR adjacency (indptr, nbr), each
    row's neighbours in ascending order; DomainError if no tract has a
    neighbour."""
    indptr, nbr = adjacency
    degree = np.diff(indptr)
    linked = np.count_nonzero(degree)
    if linked == 0:
        raise DomainError("no tract has a neighbor; Moran's I is undefined")
    row = np.repeat(np.arange(len(degree), dtype=np.intp), degree)
    upper = row < nbr
    a, b = row[upper], nbr[upper]
    c = 1.0 / degree[a] + 1.0 / degree[b]
    return MoranWeights(ab=np.concatenate([a, b]), c=c, s0=float(linked))


def _moran_stat(
    z: np.ndarray, ss: np.ndarray, weights: MoranWeights, perm: np.ndarray,
    idx: np.ndarray, rows: np.ndarray,
) -> np.ndarray:
    """Moran's I of every column of the centred n x p table z with its rows
    permuted by perm; ss holds the column sums of z**2. The numerator is
    sum_k c_k z[perm[a_k]] z[perm[b_k]]: one gather of both ends of every
    pair into the scratch rows (2E x p, with idx its 2E indices), their
    product in place and one product with c."""
    # every index is in range; under mode="raise" a take with out= is
    # buffered, and twice as slow
    np.take(perm, weights.ab, out=idx, mode="clip")
    np.take(z, idx, axis=0, out=rows, mode="clip")
    pairs = len(weights.c)
    head = rows[:pairs]
    np.multiply(head, rows[pairs:], out=head)
    return (len(z) / weights.s0) * (weights.c @ head) / ss


def morans_i(
    values: np.ndarray,
    adjacency: tuple[np.ndarray, np.ndarray],
    permutations: int = 999,
    seed: int = 0,
    names: list[str] | None = None,
) -> list[MoranResult]:
    """Moran's I of every column of the n x p table `values`, each with a
    two-sided permutation pseudo p-value; the p results in column order.
    `adjacency` is the (indptr, nbr) pair of geometry.queen_adjacency.

    I = (n / S0) * sum_{a<b linked} (w_ab + w_ba) z_a z_b / sum_i z_i^2,
    where z = x - mean(x), w_ij = 1/|N(i)| and S0 is the total weight (see
    MoranWeights). The table is centred once and its sums of squares taken
    once: both are the same for every permutation of the rows, so only the
    numerator is evaluated per permutation (_moran_stat), into scratch rows
    allocated once, the observed I being the identity permutation.
    Permutation t shuffles the rows with an RNG seeded as seed + t, drawn
    once and applied to every column, so each column's result is
    independent of execution order and of the other columns. pseudo_p is (hits + 1) / (permutations + 1), where a
    permutation is a hit when |I_perm| >= |I| * (1 - MORAN_TIE_RTOL). A
    constant column (so also its permutations) raises ConstantColumnError
    naming it, as in standardize_table.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise DomainError(f"expected an n x p table with p >= 1, got shape {x.shape}")
    n, p = x.shape
    if n < 3:
        raise DomainError(f"Moran's I needs n >= 3, got {n}")
    covered = len(adjacency[0]) - 1
    if covered != n:
        raise DomainError(f"adjacency covers {covered} tracts but got {n} values")
    if permutations < 99:
        raise DomainError(f"permutations must be >= 99, got {permutations}")
    weights = moran_weights(adjacency)
    standardize_table(x, names)  # names the first constant column
    z = x - x.mean(axis=0)
    ss = np.einsum("ij,ij->j", z, z)
    idx = np.empty(len(weights.ab), dtype=np.intp)
    rows = np.empty((len(weights.ab), p))
    observed = _moran_stat(z, ss, weights, np.arange(n), idx, rows)
    thresholds = np.abs(observed) * (1.0 - MORAN_TIE_RTOL)
    hits = np.zeros(p, dtype=np.int64)
    for t in range(permutations):
        perm = np.random.default_rng(seed + t).permutation(n)
        hits += np.abs(_moran_stat(z, ss, weights, perm, idx, rows)) >= thresholds
    return [
        MoranResult(
            I=float(observed[j]),
            expected=-1.0 / (n - 1),
            permutations=permutations,
            pseudo_p=(int(hits[j]) + 1) / (permutations + 1),
            seed=seed,
        )
        for j in range(p)
    ]
