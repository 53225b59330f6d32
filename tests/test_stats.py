import math
from fractions import Fraction

import numpy as np
import pytest

from access_atlas import stats
from access_atlas.errors import ConstantColumnError, DomainError
from access_atlas.geometry import queen_adjacency
from access_atlas.ingest import VARIABLE_COLUMNS
from access_atlas.stats import (
    ContributorThresholds,
    classify_contributors,
    correlation_matrix,
    loading_profile_correlation,
    moran_weights,
    morans_i,
    pca,
    standardize,
)

from _oracles import (
    csr,
    cubic_eigenvalues,
    cubic_eigenvector,
    moran_loop,
    moran_moments_loop,
    moran_weights_loop,
    neighbour_sets,
    pearson_brute,
)

CHAIN4 = csr([{1}, {0, 2}, {1, 3}, {2}])

# Frozen 6x3 table with well-separated correlation eigenvalues; the
# expected decomposition below comes from the characteristic-cubic oracle.
TABLE_6X3 = np.array(
    [
        [2.1, 3.4, 0.2],
        [4.3, 1.2, 5.6],
        [0.5, 4.8, 2.2],
        [3.7, 2.9, 4.1],
        [5.2, 0.8, 3.3],
        [1.9, 5.5, 1.0],
    ]
)


# ------------------------------------------------------------- standardize


def test_standardize_sample_sd():
    assert standardize(np.array([2.0, 4.0, 6.0])).tolist() == [-1.0, 0.0, 1.0]


def test_standardize_constant_column_named():
    with pytest.raises(ConstantColumnError, match="AFF_POV"):
        standardize(np.array([5.0, 5.0, 5.0]), "AFF_POV")


def test_standardize_rejects_constant_column_with_inexact_mean():
    # seven copies of 0.1 have a mean that is not 0.1, hence a tiny nonzero sd
    col = np.full(7, 0.1)
    assert col.std(ddof=1) != 0.0
    with pytest.raises(ConstantColumnError, match="AFF_POV"):
        standardize(col, "AFF_POV")


def test_standardize_long_vector_recomputation():
    rng = np.random.default_rng(123)
    x = rng.normal(40.0, 12.0, size=791)
    z = standardize(x)
    assert abs(z.mean()) < 1e-12
    assert abs(z.std(ddof=1) - 1.0) < 1e-12


def test_standardize_needs_two_values():
    with pytest.raises(DomainError):
        standardize(np.array([1.0]))


# ------------------------------------------------------------- correlation


def test_identical_columns_correlate_fully():
    t = np.array([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
    r = correlation_matrix(t)
    assert r[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_negated_column_correlates_negatively():
    t = np.array([[1.0, -1.0], [2.0, -2.0], [5.0, -5.0]])
    assert correlation_matrix(t)[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_matches_brute_force():
    rng = np.random.default_rng(77)
    t = rng.uniform(0, 10, size=(5, 3))
    r = correlation_matrix(t)
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else pearson_brute(t[:, i], t[:, j])
            assert r[i, j] == pytest.approx(want, abs=1e-12)
    assert np.array_equal(r, r.T)
    assert np.all(np.diag(r) == 1.0)


# --------------------------------------------------------------------- pca


def test_pca_perfectly_correlated_pair():
    t = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
    res = pca(t)
    assert res.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-9)
    assert res.proportions == pytest.approx([1.0, 0.0], abs=1e-9)
    assert res.loadings[:, 0] == pytest.approx([np.sqrt(0.5), np.sqrt(0.5)], abs=1e-9)


def test_pca_orthogonal_pair_is_degenerate_identity():
    t = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    res = pca(t)
    assert res.eigenvalues == pytest.approx([1.0, 1.0])
    assert res.proportions == pytest.approx([0.5, 0.5])
    # loadings are a signed permutation of the identity
    assert sorted(np.abs(res.loadings).flatten().tolist()) == [0.0, 0.0, 1.0, 1.0]
    col_max = np.abs(res.loadings).max(axis=0)
    assert np.all(col_max == 1.0)


def test_pca_matches_cubic_oracle():
    res = pca(TABLE_6X3)
    r = correlation_matrix(TABLE_6X3)
    want = cubic_eigenvalues(r)
    assert np.abs(res.eigenvalues - want).max() < 1e-8
    for k in range(3):
        v = cubic_eigenvector(r, want[k])
        got = res.loadings[:, k]
        assert min(np.abs(got - v).max(), np.abs(got + v).max()) < 1e-6


def test_pca_eigenvalues_match_scipy_eigh():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(77)
    for n, p in ((40, 10), (12, 5), (9, 10), (6, 3)):
        table = rng.normal(size=(n, p))
        table[:, -1] = table[:, 0] + 0.5 * table[:, 1]  # one exact null direction
        want = linalg.eigh(correlation_matrix(table), eigvals_only=True)[::-1]
        want[want <= stats.NULL_EIGENVALUE_TOL] = 0.0
        assert pca(table).eigenvalues == pytest.approx(want, abs=1e-10)


def test_pca_reconstruction_and_trace():
    res = pca(TABLE_6X3)
    r = correlation_matrix(TABLE_6X3)
    rebuilt = res.loadings @ np.diag(res.eigenvalues) @ res.loadings.T
    assert np.abs(rebuilt - r).max() < 1e-8
    assert res.eigenvalues.sum() == pytest.approx(3.0, abs=1e-8)
    assert res.proportions.sum() == pytest.approx(1.0, abs=1e-12)


def test_pca_loadings_orthonormal():
    rng = np.random.default_rng(3)
    t = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
    res = pca(t)
    g = res.loadings.T @ res.loadings
    assert np.abs(g - np.eye(6)).max() < 1e-9


def test_pca_score_covariance_is_eigenvalue_diag():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
    res = pca(t)
    cov = res.scores.T @ res.scores / (len(t) - 1)
    assert np.abs(cov - np.diag(res.eigenvalues)).max() < 1e-6


def test_pca_scale_invariance():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(30, 4))
    base = pca(t)
    scaled = t.copy()
    scaled[:, 2] *= 37.5
    res = pca(scaled)
    assert np.abs(res.loadings - base.loadings).max() < 1e-9
    negated = t.copy()
    negated[:, 1] *= -4.0
    res = pca(negated)
    flip = base.loadings.copy()
    flip[1, :] *= -1.0  # the negated variable's profile flips pre-convention
    from access_atlas.stats import _fix_column_signs

    assert np.abs(res.loadings - _fix_column_signs(flip)).max() < 1e-9


def test_pca_converges_on_many_random_tables():
    # the decomposition must rebuild the correlation matrix to well below
    # the 6 dp the report prints, across sizes from 2 to 11 variables
    rng = np.random.default_rng(99)
    for _ in range(40):
        p = int(rng.integers(2, 12))
        t = rng.normal(size=(p + 5, p))
        res = pca(t)
        r = correlation_matrix(t)
        rebuilt = res.loadings @ np.diag(res.eigenvalues) @ res.loadings.T
        assert np.abs(rebuilt - r).max() < 1e-10


def test_pca_rank_deficient_table_gets_zero_eigenvalues():
    rng = np.random.default_rng(6)
    t = rng.normal(size=(4, 6))  # n < p
    res = pca(t)
    assert np.all(res.eigenvalues >= 0.0)
    assert res.eigenvalues[-1] == 0.0
    assert np.all(np.diff(res.eigenvalues) <= 1e-12)


def rank_deficient_table(case):
    """A rank-deficient table and its number of null components."""
    rng = np.random.default_rng(11)
    if case == "n_lt_p":
        return rng.normal(size=(5, 8)), 4  # rank n - 1 = 4 of 8
    t = rng.normal(size=(30, 4))
    return np.column_stack([t, t[:, 2]]), 1


RANK_DEFICIENT = ["n_lt_p", "duplicated_column"]


@pytest.mark.parametrize("case", RANK_DEFICIENT)
def test_pca_null_components_are_exact_positive_zeros(case):
    table, n_null = rank_deficient_table(case)
    res = pca(table)
    null = res.eigenvalues <= stats.NULL_EIGENVALUE_TOL
    assert np.flatnonzero(null).tolist() == list(range(len(null) - n_null, len(null)))
    assert np.all(res.eigenvalues[null] == 0.0)
    assert not np.signbit(res.eigenvalues).any()
    for block in (res.loadings[:, null], res.scores[:, null]):
        assert np.all(block == 0.0)
        assert not np.signbit(block).any()
    names = [f"v{j}" for j in range(table.shape[1])]
    for k in np.flatnonzero(null):
        assert classify_contributors(list(zip(names, res.loadings[:, k]))) == (set(), set())


@pytest.mark.parametrize("case", RANK_DEFICIENT)
def test_pca_independent_of_null_space_basis(case, monkeypatch):
    table, _ = rank_deficient_table(case)
    base = pca(table)
    real_eigh = np.linalg.eigh
    rng = np.random.default_rng(13)

    def rotated_eigh(a):
        # the same decomposition, but with a random orthonormal basis of
        # the null space and fresh rounding residues on its eigenvalues
        w, v = real_eigh(a)
        null = w <= stats.NULL_EIGENVALUE_TOL
        q, _ = np.linalg.qr(rng.normal(size=(null.sum(), null.sum())))
        v[:, null] = v[:, null] @ q
        w[null] = rng.uniform(-1e-12, 1e-12, size=null.sum())
        return w, v

    monkeypatch.setattr(stats.np.linalg, "eigh", rotated_eigh)
    for _ in range(5):
        res = pca(table)
        for name in stats.PcaResult._fields:
            assert np.array_equal(getattr(res, name), getattr(base, name)), name


def test_pca_single_row_rejected():
    with pytest.raises(DomainError):
        pca(np.array([[1.0, 2.0, 3.0]]))


def test_pca_names_constant_column():
    t = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    with pytest.raises(ConstantColumnError, match="ACE_NV"):
        pca(t, ["AV_INT", "ACE_NV"])


def test_duplicate_variable_tolerated_and_visible():
    rng = np.random.default_rng(8)
    t = rng.normal(size=(30, 4))
    t = np.column_stack([t, t[:, 1]])  # duplicate one column
    res = pca(t)  # rank deficiency, but no ConstantColumnError
    assert res.eigenvalues[-1] == pytest.approx(0.0, abs=1e-9)
    assert correlation_matrix(t)[1, 4] == pytest.approx(1.0, abs=1e-12)
    # the duplicated pair loads identically on every non-null component
    # and opposite on the null one, so their profiles agree off the
    # zero-eigenvalue coordinate
    nonzero = res.eigenvalues > 1e-9
    assert np.abs(res.loadings[1, nonzero] - res.loadings[4, nonzero]).max() < 1e-9


# ------------------------------------------------------------- contributors


def test_threshold_exactly_at_cutoff_is_significant():
    sig, sec = classify_contributors([("A", 0.4000), ("B", -0.4000), ("C", 0.39999)])
    assert sig == {"A", "B"}
    assert sec == {"C"}


def test_all_zero_column_classifies_nothing():
    sig, sec = classify_contributors([("A", 0.0), ("B", 0.0)])
    assert sig == set() and sec == set()


def test_classification_invariant_under_sign_flip():
    col = [("A", 0.45), ("B", -0.2), ("C", 0.05)]
    flipped = [(n, -v) for n, v in col]
    assert classify_contributors(col) == classify_contributors(flipped)


def test_threshold_ordering_validated():
    with pytest.raises(DomainError):
        ContributorThresholds(significant=0.1, secondary=0.4)


# --------------------------------------------------- loading profile corr


def test_identity_loading_rows_correlate_at_minus_ninth():
    lc = loading_profile_correlation(np.eye(10))
    off = lc[~np.eye(10, dtype=bool)]
    assert off == pytest.approx(np.full(90, -1.0 / 9.0), abs=1e-12)


def test_constant_loading_row_rejected():
    m = np.eye(3)
    m[1] = 0.5
    with pytest.raises(ConstantColumnError):
        loading_profile_correlation(m)


def test_loading_profile_symmetric_bounded():
    res = pca(TABLE_6X3)
    lc = loading_profile_correlation(res.loadings)
    assert np.array_equal(lc, lc.T)
    assert np.all(np.diag(lc) == 1.0)
    assert np.all(np.abs(lc) <= 1.0 + 1e-12)


def test_non_square_loading_matrix_rejected():
    with pytest.raises(DomainError):
        loading_profile_correlation(np.ones((3, 2)))


# ----------------------------------------------------------------- moran


def observed_i(values, adjacency):
    """Moran's I of one vector, through the one-column table path."""
    return morans_i(np.asarray(values, dtype=float)[:, None], adjacency, 99, 0)[0].I


def test_moran_alternating_chain():
    assert observed_i([1.0, -1.0, 1.0, -1.0], CHAIN4) == -1.0


def test_moran_blocked_chain():
    assert observed_i([5.0, 5.0, 0.0, 0.0], CHAIN4) == 0.5


def test_moran_constant_values_rejected():
    with pytest.raises(ConstantColumnError):
        observed_i([3.0, 3.0, 3.0, 3.0], CHAIN4)


def test_morans_i_names_the_constant_column():
    # the mean of seven copies of 0.1 is not 0.1 in floats
    x = np.column_stack([np.arange(7.0), np.full(7, 0.1)])
    assert x[:, 1].mean() != 0.1
    ring = csr([{(i - 1) % 7, (i + 1) % 7} for i in range(7)])
    with pytest.raises(ConstantColumnError, match="^AFF_POV has zero variance"):
        morans_i(x, ring, 99, 0, names=["AV_INT", "AFF_POV"])
    with pytest.raises(ConstantColumnError, match="^col1 has zero variance"):
        morans_i(x, ring, 99, 0)


def test_moran_isolates_only_rejected():
    adj = csr([set(), set(), set()])
    with pytest.raises(DomainError):
        observed_i([1.0, 2.0, 3.0], adj)


def test_morans_i_needs_three_values():
    with pytest.raises(DomainError):
        morans_i(np.array([[1.0], [2.0]]), csr([{1}, {0}]), 99, 0)


@pytest.mark.parametrize("shape", [(4,), (4, 0)])
def test_morans_i_needs_a_table(shape):
    with pytest.raises(DomainError):
        morans_i(np.ones(shape), CHAIN4, 99, 0)


def test_morans_i_needs_99_permutations():
    values = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    with pytest.raises(DomainError):
        morans_i(values, CHAIN4, permutations=10, seed=0)


def test_morans_i_deterministic_given_seed():
    values = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    [a] = morans_i(values, CHAIN4, permutations=199, seed=11)
    [b] = morans_i(values, CHAIN4, permutations=199, seed=11)
    assert a == b
    assert a.expected == pytest.approx(-1.0 / 3.0)
    assert 0 < a.pseudo_p <= 1.0


def test_moran_matches_dense_double_sum_oracle():
    # independent formulation: explicit row-standardized weight matrix and
    # the full double sum, on random adjacency structures
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(4, 15))
        neighbors = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    neighbors[i].add(j)
                    neighbors[j].add(i)
        if not any(neighbors):
            neighbors[0].add(1)
            neighbors[1].add(0)
        adj = csr(neighbors)
        x = rng.normal(size=n)
        w = np.zeros((n, n))
        for i, neigh in enumerate(neighbors):
            for j in neigh:
                w[i, j] = 1.0 / len(neigh)
        z = x - x.mean()
        want = (n / w.sum()) * (z @ w @ z) / (z @ z)
        assert observed_i(x, adj) == pytest.approx(want, rel=1e-12)


def test_morans_i_pseudo_p_definition():
    # recompute the pseudo p-value from the documented permutation scheme
    values = np.array([5.0, 5.0, 0.0, 0.0])
    [res] = morans_i(values[:, None], CHAIN4, permutations=99, seed=42)
    hits = 0
    for t in range(99):
        rng = np.random.default_rng(42 + t)
        perm = values[rng.permutation(4)]
        if abs(observed_i(perm, CHAIN4)) >= abs(res.I):
            hits += 1
    assert res.pseudo_p == pytest.approx((hits + 1) / 100)


def random_graph_with_islands(rng, n, p_edge):
    """Random symmetric neighbour sets whose islands include the first
    tract, two consecutive mid-table tracts and the last three, so the
    weights skip empty CSR rows at both ends and inside."""
    islands = {0, n // 2, n // 2 + 1, n - 3, n - 2, n - 1}
    linked = [i for i in range(n) if i not in islands]
    neighbors = [set() for _ in range(n)]
    for a, i in enumerate(linked):
        for j in linked[a + 1 :]:
            if rng.random() < p_edge:
                neighbors[i].add(j)
                neighbors[j].add(i)
    return neighbors


def test_moran_weights_equal_per_tract_loop():
    rng = np.random.default_rng(44)
    for n, p_edge in ((5, 0.5), (40, 0.1), (90, 0.15), (120, 0.02)):
        neighbors = random_graph_with_islands(rng, n, p_edge)
        if not any(neighbors):
            neighbors[1].add(2)
            neighbors[2].add(1)
        got = moran_weights(csr(neighbors))
        want = moran_weights_loop(neighbors)
        for name in ("ab", "c"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert type(got.s0) is type(want.s0) and got.s0 == want.s0


def permuted_rows(x, permutations, seed):
    return [x[np.random.default_rng(seed + t).permutation(x.size)] for t in range(permutations)]


def loop_hits(x, neighbors, permutations, seed, exact):
    """Permutations at least as extreme as x, by one moran_loop per
    permutation, in exact fractions when `exact`."""
    number = Fraction if exact else float
    observed = abs(moran_loop(x, neighbors, number))
    return sum(
        abs(moran_loop(p, neighbors, number)) >= observed
        for p in permuted_rows(x, permutations, seed)
    )


def record_stats(monkeypatch):
    """The (permutation, statistics) pair of every stats._moran_stat call
    made after this, in call order."""
    calls = []
    original = stats._moran_stat

    def recorded(z, ss, weights, perm):
        got = original(z, ss, weights, perm)
        calls.append((perm.copy(), got))
        return got

    monkeypatch.setattr(stats, "_moran_stat", recorded)
    return calls


@pytest.mark.parametrize(
    "case, permutations, integer_data",
    [(0, 101, False), (1, 199, False), (2, 999, False), (3, 199, True), (4, 101, True)],
)
def test_batched_moran_matches_per_permutation_loop(
    monkeypatch, case, permutations, integer_data
):
    rng = np.random.default_rng(300 + case)
    n = int(rng.integers(60, 90))
    neighbors = random_graph_with_islands(rng, n, 0.15)
    adj = csr(neighbors)

    def draw():
        if integer_data:  # duplicated values: exact ties are possible
            return rng.integers(0, 6, size=n).astype(float)
        return rng.normal(size=n)

    x = draw()
    seed = 17 * case
    perms = permuted_rows(np.arange(n), permutations, seed)
    calls = record_stats(monkeypatch)
    [res] = morans_i(x[:, None], adj, permutations, seed)
    # the observed I first, then every permuted statistic the pass counted
    assert len(calls) == 1 + permutations
    assert np.array_equal(calls[0][0], np.arange(n))
    for perm, (used, stat) in zip(perms, calls[1:]):
        assert np.array_equal(used, perm)
        assert stat[0] == pytest.approx(moran_loop(x[perm], neighbors), rel=1e-12)
    assert res.I == pytest.approx(moran_loop(x, neighbors), rel=1e-12)
    hits = loop_hits(x, neighbors, permutations, seed, integer_data)
    assert res.pseudo_p == (hits + 1) / (permutations + 1)

    # three columns share every permutation
    table = np.column_stack([x, draw(), draw()])
    calls.clear()
    results = morans_i(table, adj, permutations, seed)
    assert len(calls) == 1 + permutations
    for perm, (used, stat) in zip(perms, calls[1:]):
        assert np.array_equal(used, perm)
        want = [moran_loop(column[perm], neighbors) for column in table.T]
        assert stat == pytest.approx(want, rel=1e-12)
    for column, res in zip(table.T, results):
        assert res.I == pytest.approx(moran_loop(column, neighbors), rel=1e-12)
        hits = loop_hits(column, neighbors, permutations, seed, integer_data)
        assert res.pseudo_p == (hits + 1) / (permutations + 1)


def grid_queen_neighbours(side):
    """Queen neighbour sets of a side x side grid of squares, row by row."""
    return [
        {
            (r + dr) * side + c + dc
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr or dc) and 0 <= r + dr < side and 0 <= c + dc < side
        }
        for r in range(side)
        for c in range(side)
    ]


def grid_columns(seed, side=20):
    """Ten columns over a side x side grid: normal, skewed, uniform, heavy
    tailed, a north-south gradient, and small integers with many ties."""
    rng = np.random.default_rng(seed)
    n = side * side
    return np.column_stack([
        *rng.normal(size=(4, n)),
        *rng.exponential(size=(2, n)),
        rng.uniform(size=n),
        rng.lognormal(sigma=0.75, size=n),
        np.repeat(np.arange(float(side)), side) + rng.normal(size=n),
        rng.integers(0, 6, size=n).astype(float),
    ])


def moran_null_case(name, seed, minitown_table):
    """(values, neighbour sets, permutations) of one case of the moments test."""
    if name == "minitown":
        tracts, table = minitown_table
        return table.values, neighbour_sets(queen_adjacency(tracts, table.index)), 4_999
    return grid_columns(seed), grid_queen_neighbours(20), 999


def moran_null_faults(monkeypatch, values, neighbors, permutations, seed):
    """The columns whose permuted I, as the package's own _moran_stat calls
    of one morans_i give it (the identity call skipped), misses the
    randomisation moments: |mean - E[I]| > 4 sd / sqrt(P), or
    |var / Var[I] - 1| > 5 sqrt(2 / (P - 1))."""
    calls = record_stats(monkeypatch)
    morans_i(values, csr(neighbors), permutations, seed)
    sims = np.array([stat for _, stat in calls[1:]])
    assert sims.shape == (permutations, values.shape[1])
    expected, variances = moran_moments_loop(neighbors, values)
    mean, var = sims.mean(axis=0), sims.var(axis=0, ddof=1)
    bias = np.abs(mean - expected) / np.sqrt(var / permutations)
    ratio = var / np.array(variances)
    bad = ~((bias <= 4.0) & (np.abs(ratio - 1.0) <= 5.0 * math.sqrt(2.0 / (permutations - 1))))
    return [(int(j), round(float(bias[j]), 2), round(float(ratio[j]), 4)) for j in np.flatnonzero(bad)]


@pytest.mark.parametrize("name, seed", [("minitown", 13), ("grid", 2019)])
def test_moran_permutation_null_has_the_randomisation_moments(
    monkeypatch, minitown_table, name, seed
):
    """The mean and variance of the package's permuted I against E[I] and
    the randomisation variance of Cliff & Ord (1981): minitown's ten
    variables at P = 4,999, and ten columns on a 20 x 20 grid of squares
    at P = 999. A broken gather, a wrong weight or a permutation reused
    across draws moves the variance ratio far out of its band (to 0 when
    one permutation serves every t). The seeds were fixed before the test
    first ran; each case, every column and both bounds, passed at each of
    the seeds 0-99 (100 of 100)."""
    values, neighbors, permutations = moran_null_case(name, seed, minitown_table)
    assert moran_null_faults(monkeypatch, values, neighbors, permutations, seed) == []


def test_morans_i_counts_exact_ties_as_hits(minitown_table):
    # AV_INT is integer-valued, so permutations can reproduce the observed I
    # exactly; in rational arithmetic 454 of the 999 permutations are hits
    tracts, table = minitown_table
    adjacency = queen_adjacency(tracts, table.index)
    x = table.values[:, VARIABLE_COLUMNS.index("AV_INT")]
    seed = 20240101
    neighbors = neighbour_sets(adjacency)
    observed = moran_loop(x, neighbors, Fraction)
    perm_values = [moran_loop(p, neighbors, Fraction) for p in permuted_rows(x, 999, seed)]
    assert sum(abs(i) == abs(observed) for i in perm_values) == 13
    hits = sum(abs(i) >= abs(observed) for i in perm_values)
    assert hits == 454
    [res] = morans_i(x[:, None], adjacency, 999, seed)
    assert res.I == pytest.approx(float(observed), rel=1e-12)
    assert res.pseudo_p == (hits + 1) / 1000


def random_table(rng, n, p):
    """An n x p table whose odd columns are small integers (exact ties)."""
    table = rng.normal(size=(n, p))
    table[:, 1::2] = rng.integers(0, 5, size=(n, p // 2))
    return table


def test_morans_i_evaluates_each_permutation_once(monkeypatch):
    # one draw per seed + t, and one evaluation of that draw for all ten
    # columns; the observed I is the identity permutation, evaluated first
    rng = np.random.default_rng(41)
    n, permutations, seed = 70, 199, 5
    adj = csr(random_graph_with_islands(rng, n, 0.15))
    table = random_table(rng, n, 10)
    want = permuted_rows(np.arange(n), permutations, seed)
    seeds = []
    original = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return original(seed)

    calls = record_stats(monkeypatch)
    monkeypatch.setattr(np.random, "default_rng", counted)
    results = morans_i(table, adj, permutations, seed)
    assert seeds == [seed + t for t in range(permutations)]
    assert [len(perm) for perm, _ in calls] == [n] * (1 + permutations)
    assert np.array_equal(calls[0][0], np.arange(n))
    for perm, (used, stat) in zip(want, calls[1:]):
        assert np.array_equal(used, perm) and stat.shape == (10,)
    assert [res.I for res in results] == calls[0][1].tolist()


def test_morans_i_draws_each_permutation_once_for_all_columns(monkeypatch):
    rng = np.random.default_rng(42)
    n, permutations = 40, 149
    adj = csr(random_graph_with_islands(rng, n, 0.2))
    table = random_table(rng, n, 10)
    seeds = []
    original = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    morans_i(table, adj, permutations, seed=9)
    assert seeds == [9 + t for t in range(permutations)]


def test_morans_i_column_equals_column_alone():
    rng = np.random.default_rng(43)
    for n, permutations in ((30, 99), (75, 301)):
        adj = csr(random_graph_with_islands(rng, n, 0.15))
        table = random_table(rng, n, 10)
        results = morans_i(table, adj, permutations, seed=13)
        assert len(results) == 10
        for j, res in enumerate(results):
            [alone] = morans_i(table[:, j : j + 1], adj, permutations, seed=13)
            assert res.pseudo_p == alone.pseudo_p
            assert res.I == pytest.approx(alone.I, rel=1e-12)
            assert (res.expected, res.permutations, res.seed) == (
                alone.expected,
                alone.permutations,
                alone.seed,
            )
