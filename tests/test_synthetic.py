"""Synthetic generators: distributions, structure, determinism."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import norm

from peergrade import (
    BiasReliabilityConfig,
    ErConfig,
    GroundTruth,
    HomophilyConfig,
    MixtureConfig,
    ScenarioConfig,
    StrategicConfig,
    ValidationError,
    build_scenario,
    default_scenario,
    gen_assess_bias_reliability,
    gen_assess_strategic,
    gen_ground_truth,
    gen_ownership_one_to_one,
    gen_social_er,
    gen_social_homophily,
    graphs_equal,
    strategic_scenario,
)


def censored_normal_mean(mu, sigma):
    """Exact mean of a Normal(mu, sigma) clamped into [0, 1]."""
    if sigma == 0:
        return np.clip(mu, 0.0, 1.0)
    a = (0.0 - mu) / sigma
    b = (1.0 - mu) / sigma
    return (1.0 - norm.cdf(b)) + mu * (norm.cdf(b) - norm.cdf(a)) - sigma * (
        norm.pdf(b) - norm.pdf(a)
    )


HALF_KNOWN = GroundTruth(np.array([0.5, np.nan]), np.array([True, False]))


@pytest.mark.parametrize("call, message", [
    (lambda: MixtureConfig(pi=(0.2, 0.3, 0.5), mu=(0.3, 0.5, 0.7), sigma=(0.1, 0.1, 0.1)),
     "mixture config requires exactly two components"),
    (lambda: ErConfig(p=1.5), "connection probability 1.5 must lie in [0, 1]"),
    (lambda: HomophilyConfig(tau=-0.1), "tau -0.1 must lie in [0, 1]"),
    (lambda: StrategicConfig(k=0), "grader count k must be >= 1"),
    (lambda: StrategicConfig(sigma_h=-0.1), "sigma_h must be >= 0"),
    (lambda: BiasReliabilityConfig(k=0), "grader count k must be >= 1"),
    (lambda: BiasReliabilityConfig(sigma_max=-0.1), "sigma_max must be >= 0"),
    (lambda: ScenarioConfig(n=0), "scenario requires n >= 1 and m >= 1"),
    (lambda: gen_ground_truth(0, MixtureConfig(), np.random.default_rng(0)),
     "item count must be >= 1"),
    (lambda: gen_social_homophily(HALF_KNOWN, sp.identity(2, format="csr"), HomophilyConfig()),
     "homophily generation requires known values for all owned items"),
    (lambda: gen_assess_bias_reliability(HALF_KNOWN, sp.identity(2, format="csr"),
                                         BiasReliabilityConfig(k=1), np.random.default_rng(0)),
     "bias-reliability generation requires known values for all owned items"),
    # ScenarioConfig does not check the types of its parts; build_scenario does
    (lambda: build_scenario(ScenarioConfig(n=2, m=2, social=StrategicConfig())),
     "unknown social config StrategicConfig"),
    (lambda: build_scenario(ScenarioConfig(n=2, m=2, assessment=ErConfig())),
     "unknown assessment config ErConfig"),
])
def test_bad_configs_and_inputs_named(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestGroundTruth:
    def test_degenerate_mixture_is_constant(self):
        cfg = MixtureConfig(pi=(0.0, 1.0), mu=(0.3, 0.7), sigma=(0.0, 0.0))
        gt = gen_ground_truth(20, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(gt.v, 0.7)

    def test_default_mixture_mean(self):
        # analytic mixture mean 0.2*0.3 + 0.8*0.7 = 0.62; clamping shifts it
        # by < 1e-3 at sigma = 0.1 (3-sigma tails), well inside +-0.01
        gt = gen_ground_truth(10000, MixtureConfig(), np.random.default_rng(1))
        assert abs(gt.v.mean() - 0.62) <= 0.01

    def test_extreme_means_are_clamped(self):
        cfg = MixtureConfig(pi=(0.5, 0.5), mu=(0.0, 1.0), sigma=(0.1, 0.1))
        gt = gen_ground_truth(5000, cfg, np.random.default_rng(2))
        assert gt.v.min() >= 0.0 and gt.v.max() <= 1.0

    def test_invalid_mixture_rejected(self):
        with pytest.raises(ValidationError):
            MixtureConfig(pi=(0.5, 0.6))
        with pytest.raises(ValidationError):
            MixtureConfig(mu=(0.5, 1.4))
        with pytest.raises(ValidationError):
            MixtureConfig(sigma=(-0.1, 0.1))


class TestOwnership:
    def test_single_user(self):
        O = gen_ownership_one_to_one(1, 1, np.random.default_rng(0))
        assert O.toarray() == [[1.0]]

    def test_permutation_property(self):
        O = gen_ownership_one_to_one(3, 3, np.random.default_rng(3))
        np.testing.assert_array_equal(np.asarray(O.sum(axis=0)).ravel(), 1.0)
        np.testing.assert_array_equal(np.asarray(O.sum(axis=1)).ravel(), 1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            gen_ownership_one_to_one(3, 4, np.random.default_rng(0))


class TestSocialEr:
    def test_p_zero_empty(self):
        assert gen_social_er(10, ErConfig(p=0.0), np.random.default_rng(0)).nnz == 0

    def test_p_one_complete(self):
        S = gen_social_er(10, ErConfig(p=1.0), np.random.default_rng(0))
        assert S.nnz == 10 * 9  # both directions stored
        assert np.count_nonzero(S.diagonal()) == 0

    def test_edge_count_within_binomial_band(self):
        n, p = 500, 0.05
        S = gen_social_er(n, ErConfig(p=p), np.random.default_rng(4))
        pairs = n * (n - 1) / 2
        mean, sd = p * pairs, np.sqrt(pairs * p * (1 - p))
        assert abs(S.nnz / 2 - mean) <= 4 * sd

    def test_symmetry(self):
        S = gen_social_er(50, ErConfig(p=0.2), np.random.default_rng(5))
        assert (S != S.T).nnz == 0

    def test_equals_pair_walk_reference_bitwise(self):
        rng = np.random.default_rng(20)
        cases = [(n, p, seed) for n in (0, 1, 2, 3, 4, 7, 31, 60, 200)
                 # 1e-300 draws gaps of 2**63 - 1, which must not overflow the pair index
                 for p in (0.0, 1.0, 1e-300, *rng.random(3)) for seed in range(3)]
        for n, p, seed in cases:
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = gen_social_er(n, ErConfig(p=p), got_rng)
            assert_csr_bitwise(got, reference_social_er(n, p, ref_rng), (n, p, seed))
            assert got_rng.random() == ref_rng.random()  # the same draws were taken

    def test_each_batch_continues_where_the_last_ended(self):
        # At p = 1e-6 every batch is one gap, and short scripted gaps keep many pairs
        gaps = np.random.default_rng(24).integers(1, 4, size=200)
        for n in (5, 10, 20):
            got = gen_social_er(n, ErConfig(p=1e-6), ScriptedGaps(gaps))
            assert_csr_bitwise(got, reference_social_er(n, 1e-6, ScriptedGaps(gaps)), n)
            assert got.nnz > 0

    @pytest.mark.parametrize("p", [0.1, 0.6])  # numpy draws Geometric(p) two ways, split at 1/3
    def test_each_pair_kept_with_probability_p(self, p):
        n, seeds = 8, 4000
        counts = sum(gen_social_er(n, ErConfig(p=p), np.random.default_rng(seed)).toarray()
                     for seed in range(seeds))
        rates = counts[np.triu_indices(n, k=1)] / seeds
        assert np.all(np.abs(rates - p) <= 5 * np.sqrt(p * (1 - p) / seeds)), rates

    def test_peak_memory_holds_no_index_arrays(self):
        # About 100k edges: 12.2 MiB measured.  The two int64 np.triu_indices
        # arrays over all 2M pairs would take 30.5 MiB on their own.
        tracemalloc.start()
        try:
            gen_social_er(2000, ErConfig(p=0.05), np.random.default_rng(21))
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 25

    def test_peak_memory_is_linear_in_edges_at_50k_users(self):
        # About 125k edges: 16.3 MiB measured.  A draw per user pair would take 9.3 GiB.
        tracemalloc.start()
        try:
            S = gen_social_er(50_000, ErConfig(p=1e-4), np.random.default_rng(22))
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert abs(S.nnz / 2 - 124_997.5) <= 5 * np.sqrt(124_997.5)
        assert peak < 24


def assert_csr_bitwise(got, expected, context):
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(expected, attr)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (context, attr)


class ScriptedGaps:
    """Stands in for a Generator whose ``geometric`` hands out the given gaps in order."""

    def __init__(self, gaps):
        self.gaps = iter(gaps)

    def geometric(self, p, size):
        return np.array([next(self.gaps) for _ in range(size)], dtype=np.int64)


def reference_social_er(n, p, rng):
    """A walk over the pairs (i, j), i < j, in row order, keeping the pair each Geometric(p)
    gap lands on; the gaps are drawn in the batches of ``gen_social_er``."""
    pairs = n * (n - 1) // 2

    def gaps():
        last = -1  # index of the pair the gaps drawn so far reach
        while True:
            mean = (pairs - 1 - last) * p
            for gap in rng.geometric(p, size=int(mean + 5 * np.sqrt(mean)) + 1):
                last += int(gap)
                yield int(gap)

    rows, cols = [], []
    if p > 0 and pairs > 0:
        draw = gaps()
        skip = next(draw)
        for i in range(n):
            for j in range(i + 1, n):
                skip -= 1
                if skip == 0:
                    rows.append(i)
                    cols.append(j)
                    skip = next(draw)
    r, c = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    rows, cols = np.concatenate([r, c]), np.concatenate([c, r])
    return sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))


class TestSocialHomophily:
    def test_tau_one_complete(self):
        gt = GroundTruth.full([0.1, 0.5, 0.9])
        O = sp.identity(3, format="csr")
        S = gen_social_homophily(gt, O, HomophilyConfig(tau=1.0))
        assert S.nnz == 3 * 2

    def test_tau_zero_distinct_values_empty(self):
        gt = GroundTruth.full([0.1, 0.5, 0.9])
        O = sp.identity(3, format="csr")
        assert gen_social_homophily(gt, O, HomophilyConfig(tau=0.0)).nnz == 0

    def test_close_pair_connected(self):
        gt = GroundTruth.full([0.30, 0.35, 0.90])
        O = sp.identity(3, format="csr")
        S = gen_social_homophily(gt, O, HomophilyConfig(tau=0.1)).toarray()
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        np.testing.assert_array_equal(S, expected)

    def test_respects_ownership_permutation(self):
        # owners of close-valued items are linked regardless of index order
        gt = GroundTruth.full([0.90, 0.30, 0.35])
        O = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
        S = gen_social_homophily(gt, O, HomophilyConfig(tau=0.1)).toarray()
        assert S[0, 1] == 1.0 and S[1, 0] == 1.0 and S[0, 2] == 0.0

    def test_requires_one_to_one(self):
        gt = GroundTruth.full([0.5, 0.5])
        O = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            gen_social_homophily(gt, O, HomophilyConfig(tau=0.5))

    def test_deterministic(self):
        gt = GroundTruth.full(np.linspace(0, 1, 12))
        O = sp.identity(12, format="csr")
        s1 = gen_social_homophily(gt, O, HomophilyConfig(tau=0.2))
        s2 = gen_social_homophily(gt, O, HomophilyConfig(tau=0.2))
        assert (s1 != s2).nnz == 0


class TestStrategicAssessments:
    def test_complete_social_all_ones(self):
        n = 6
        rng = np.random.default_rng(6)
        gt = GroundTruth.full(np.linspace(0.1, 0.9, n))
        O = gen_ownership_one_to_one(n, n, rng)
        S = gen_social_er(n, ErConfig(p=1.0), rng)
        A = gen_assess_strategic(gt, O, S, StrategicConfig(k=3, sigma_h=0.25), rng)
        np.testing.assert_array_equal(A.tocoo().data, 1.0)

    def test_no_friends_zero_noise_reproduces_truth(self):
        n = 6
        rng = np.random.default_rng(7)
        gt = GroundTruth.full(np.linspace(0.1, 0.9, n))
        O = gen_ownership_one_to_one(n, n, rng)
        S = sp.csr_matrix((n, n))
        A = gen_assess_strategic(gt, O, S, StrategicConfig(k=3, sigma_h=0.0), rng).tocoo()
        np.testing.assert_array_equal(A.data, gt.v[A.col])

    def test_honest_grades_match_censored_normal_mean(self):
        n = 500
        rng = np.random.default_rng(8)
        gt = gen_ground_truth(n, MixtureConfig(), rng)
        O = gen_ownership_one_to_one(n, n, rng)
        S = sp.csr_matrix((n, n))
        A = gen_assess_strategic(gt, O, S, StrategicConfig(k=3, sigma_h=0.25), rng).tocoo()
        empirical_bias = float(np.mean(A.data - gt.v[A.col]))
        analytic_bias = float(np.mean(censored_normal_mean(gt.v, 0.25) - gt.v))
        assert abs(empirical_bias - analytic_bias) <= 0.01

    def test_too_many_graders_rejected(self):
        rng = np.random.default_rng(9)
        gt = GroundTruth.full([0.5, 0.5])
        O = gen_ownership_one_to_one(2, 2, rng)
        with pytest.raises(ValidationError):
            gen_assess_strategic(gt, O, sp.csr_matrix((2, 2)), StrategicConfig(k=2), rng)


class TestBiasReliabilityAssessments:
    def test_fully_reliable_grader_is_exact(self):
        # beta=1 with own value 1 gives zero grading noise
        rng = np.random.default_rng(10)
        gt = GroundTruth.full([1.0, 0.4, 0.6])
        O = sp.identity(3, format="csr")
        cfg = BiasReliabilityConfig(k=2, alpha=0.1, beta=1.0, sigma_max=0.25)
        A = gen_assess_bias_reliability(gt, O, cfg, rng).tocsr()
        grades_by_u0 = A[0].tocoo()
        for item, grade in zip(grades_by_u0.col, grades_by_u0.data):
            assert grade == np.clip(gt.v[item] + 0.1, 0.0, 1.0)

    def test_noiseless_unbiased_reproduces_truth(self):
        rng = np.random.default_rng(11)
        gt = GroundTruth.full(np.linspace(0.2, 0.8, 5))
        O = gen_ownership_one_to_one(5, 5, rng)
        cfg = BiasReliabilityConfig(k=2, alpha=0.0, beta=0.0, sigma_max=0.0)
        A = gen_assess_bias_reliability(gt, O, cfg, rng).tocoo()
        np.testing.assert_array_equal(A.data, gt.v[A.col])

    def test_positive_bias_clamps_at_one(self):
        rng = np.random.default_rng(12)
        gt = GroundTruth.full([0.9, 0.9])
        O = gen_ownership_one_to_one(2, 2, rng)
        cfg = BiasReliabilityConfig(k=1, alpha=0.3, beta=0.0, sigma_max=0.0)
        A = gen_assess_bias_reliability(gt, O, cfg, rng)
        np.testing.assert_array_equal(A.tocoo().data, 1.0)

    def test_negative_effective_sigma_rejected(self):
        rng = np.random.default_rng(13)
        gt = GroundTruth.full([1.0, 0.5])
        O = sp.identity(2, format="csr")
        # beta > 1 with an own-item value of 1 drives sigma negative
        cfg = BiasReliabilityConfig(k=1, beta=2.0)
        with pytest.raises(ValidationError):
            gen_assess_bias_reliability(gt, O, cfg, rng)

    def test_grader_sets_uniform_over_non_owners(self):
        # n = 5, k = 2: each owner's item gets one of the C(4, 2) = 6 pairs of non-owners
        n, k, campaigns = 5, 2, 3000
        rng = np.random.default_rng(23)
        truth = GroundTruth.full(np.full(n, 0.5))
        counts = {}
        for _ in range(campaigns):
            O = gen_ownership_one_to_one(n, n, rng)
            A = gen_assess_bias_reliability(truth, O, BiasReliabilityConfig(k=k), rng).tocsc()
            owner_of = O.tocsc().indices
            for item in range(n):
                graders = A.indices[A.indptr[item]:A.indptr[item + 1]]
                # a repeated grader would merge into one stored entry
                assert graders.shape == (k,) and owner_of[item] not in graders
                key = (int(owner_of[item]), frozenset(graders.tolist()))
                counts[key] = counts.get(key, 0) + 1
        assert len(counts) == n * 6
        sd = np.sqrt(campaigns * (1 / 6) * (5 / 6))
        assert all(abs(c - campaigns / 6) <= 5 * sd for c in counts.values()), counts

    def test_alpha_range_enforced(self):
        with pytest.raises(ValidationError):
            BiasReliabilityConfig(alpha=1.5)


class TestScenarios:
    def test_default_preset_edge_counts(self):
        ds = build_scenario(default_scenario(seed=0))
        assert ds.graph.A.nnz == 500 * 3
        assert ds.graph.O.nnz == 500
        assert ds.graph.S.nnz == 0

    def test_strategic_preset_social_edges(self):
        ds = build_scenario(strategic_scenario(seed=0))
        pairs = 500 * 499 / 2
        mean, sd = 0.05 * pairs, np.sqrt(pairs * 0.05 * 0.95)
        assert abs(ds.graph.S.nnz / 2 - mean) <= 4 * sd

    def test_k_one_single_grade_per_item(self):
        cfg = ScenarioConfig(n=20, m=20, seed=1,
                             assessment=BiasReliabilityConfig(k=1))
        ds = build_scenario(cfg)
        counts = np.diff(ds.graph.A.tocsc().indptr)
        np.testing.assert_array_equal(counts, 1)

    def test_each_item_gets_exactly_k_grades_never_from_owner(self):
        cfg = ScenarioConfig(n=30, m=30, seed=2,
                             assessment=BiasReliabilityConfig(k=4))
        ds = build_scenario(cfg)
        counts = np.diff(ds.graph.A.tocsc().indptr)
        np.testing.assert_array_equal(counts, 4)
        owners = ds.graph.O.tocoo()
        assessed = ds.graph.A.tocoo()
        graded = set(zip(assessed.row.tolist(), assessed.col.tolist()))
        for u, i in zip(owners.row, owners.col):
            assert (u, i) not in graded

    def test_all_grades_in_unit_interval(self):
        for cfg in (default_scenario(seed=3), strategic_scenario(seed=3)):
            ds = build_scenario(cfg)
            data = ds.graph.A.tocoo().data
            assert data.min() >= 0.0 and data.max() <= 1.0

    def test_same_seed_bit_identical(self):
        d1 = build_scenario(default_scenario(seed=42))
        d2 = build_scenario(default_scenario(seed=42))
        assert graphs_equal(d1.graph, d2.graph)
        np.testing.assert_array_equal(d1.truth.v, d2.truth.v)

    def test_different_seeds_differ(self):
        d1 = build_scenario(default_scenario(seed=1))
        d2 = build_scenario(default_scenario(seed=2))
        assert not np.array_equal(d1.truth.v, d2.truth.v)

    def test_strategic_and_bias_reliability_agree_without_friends(self):
        # with no social edges, alpha=beta=0, sigma_h=sigma_max the two
        # assessment models draw from the same distribution
        n = 2000
        strat = ScenarioConfig(n=n, m=n, seed=5, social=None,
                               assessment=StrategicConfig(k=3, sigma_h=0.25))
        bias = ScenarioConfig(n=n, m=n, seed=6, social=None,
                              assessment=BiasReliabilityConfig(k=3, alpha=0.0, beta=0.0,
                                                               sigma_max=0.25))
        a1 = build_scenario(strat).graph.A.tocoo().data
        a2 = build_scenario(bias).graph.A.tocoo().data
        assert abs(a1.mean() - a2.mean()) < 0.01
        assert abs(a1.std() - a2.std()) < 0.01

    def test_homophily_scenario_builds(self):
        cfg = ScenarioConfig(n=50, m=50, seed=7, social=HomophilyConfig(tau=0.01))
        ds = build_scenario(cfg)
        assert (ds.graph.S != ds.graph.S.T).nnz == 0


def dense_homophily(values, tau):
    """Reference homophily adjacency from the dense (n, n) pairwise comparison."""
    close = np.abs(values[:, None] - values[None, :]) <= tau
    np.fill_diagonal(close, False)
    rows, cols = np.nonzero(close)
    return sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=close.shape)


def loop_assessments(truth, O, S, cfg, rng):
    """Reference: dense lookups, Floyd's sampling item by item, one grade draw call per item.

    The grader draws come first, one ``rng.integers`` call per column for all items."""
    n, m = O.shape
    O_dense = O.toarray()
    owner_of, item_of = O_dense.argmax(axis=0), O_dense.argmax(axis=1)
    tops = range(n - 1 - cfg.k, n - 1)
    columns = [rng.integers(0, top + 1, size=m) for top in tops]
    graders = []
    for i in range(m):
        picks = []
        for top, column in zip(tops, columns):
            draw = int(column[i])
            picks.append(top if draw in picks else draw)
        picks = np.array(picks)
        graders.append(picks + (picks >= owner_of[i]))
    rows, cols, vals = [], [], []
    for i, users in enumerate(graders):
        if isinstance(cfg, StrategicConfig):
            owner = owner_of[i]
            friend = S.toarray()[users, owner] * O_dense[owner, i] == 1.0
            grades = np.ones(cfg.k)
            if (~friend).any():
                grades[~friend] = np.clip(
                    rng.normal(truth.v[i], cfg.sigma_h, size=int((~friend).sum())), 0.0, 1.0)
        else:
            sigma = cfg.sigma_max * (1.0 - cfg.beta * truth.v[item_of[users]])
            grades = np.clip(rng.normal(truth.v[i] + cfg.alpha, sigma), 0.0, 1.0)
        rows.extend(users)
        cols.extend([i] * cfg.k)
        vals.extend(grades)
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, m)))


def dataset_digest(ds):
    """sha256 of the lexsorted (row, col, data) bytes of S, O, A plus the truth bytes."""
    h = hashlib.sha256()
    for mat in (ds.graph.S, ds.graph.O, ds.graph.A):
        coo = mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        h.update(coo.row[order].astype(np.int64).tobytes())
        h.update(coo.col[order].astype(np.int64).tobytes())
        h.update(coo.data[order].astype(np.float64).tobytes())
    h.update(ds.truth.v.tobytes())
    return h.hexdigest()


# Values 0.3 and 0.4 only; in floating point 0.4 - 0.3 is just over 0.1.
TWO_POINT = MixtureConfig(pi=(0.5, 0.5), mu=(0.3, 0.4), sigma=(0.0, 0.0))


class TestPinnedOutputs:
    """Generator output bytes, recorded when Floyd's grader draw and the geometric-skip
    ER draw replaced the per-item ``rng.choice`` and per-pair uniform draws."""

    @pytest.mark.parametrize("cfg, digest", [
        (default_scenario(seed=0, n=60, m=60),
         "e3ade7ac0d8b9d5dc76e475277ab9c7db5abb7525454f9e476a6970fd4eb3444"),
        (ScenarioConfig(n=60, m=60, seed=1, social=ErConfig(p=0.05),
                        assessment=StrategicConfig(k=3, sigma_h=0.0)),
         "cf8f35343311d391f2189ed4e3e4c333eb29f5563b4c9917c67d4a499ad7befc"),
        (ScenarioConfig(n=60, m=60, seed=1, social=ErConfig(p=1.0),
                        assessment=StrategicConfig(k=3, sigma_h=0.0)),
         "55385a4ecc0c888435e3a608af81370136d43df84d318f65906525f71d5be0cc"),
        (ScenarioConfig(n=60, m=60, seed=1, social=ErConfig(p=0.05),
                        assessment=StrategicConfig(k=3, sigma_h=0.25)),
         "cfd9ea08e90d39857d361d75f1fb319f0f2dbced973889f8294dc78868d10906"),
        (ScenarioConfig(n=60, m=60, seed=2, mixture=TWO_POINT,
                        social=HomophilyConfig(tau=0.0), assessment=StrategicConfig()),
         "f48e7ff821e81a948eb7598eea06358259e4c3335e65ab0f3237cc4502299747"),
        (ScenarioConfig(n=60, m=60, seed=2, mixture=TWO_POINT,
                        social=HomophilyConfig(tau=0.1), assessment=StrategicConfig()),
         "f48e7ff821e81a948eb7598eea06358259e4c3335e65ab0f3237cc4502299747"),
        (ScenarioConfig(n=60, m=60, seed=2, mixture=TWO_POINT,
                        social=HomophilyConfig(tau=1.0), assessment=StrategicConfig()),
         "286b54da2b824555862e4d01ab0a0c31701a99180864ef89992e0b11e56c2949"),
        (ScenarioConfig(n=60, m=60, seed=3,
                        assessment=BiasReliabilityConfig(k=3, alpha=0.2, beta=0.9)),
         "905f5936338b40f09939064ca3620ceb19e181f1b9941fe9f803fb8d94141318"),
    ], ids=["default", "strategic-p0.05", "strategic-p1", "strategic-p0.05-noisy",
            "homophily-tau0", "homophily-tau0.1", "homophily-tau1", "bias-reliability"])
    def test_scenario_bytes(self, cfg, digest):
        assert dataset_digest(build_scenario(cfg)) == digest

    def test_homophily_matches_dense_oracle_with_ties(self):
        rng = np.random.default_rng(14)
        for case in range(60):
            n = int(rng.integers(1, 80))
            step = (0.1, 0.01, 1 / 3)[case % 3]
            values = np.clip(np.round(rng.random(n) / step) * step, 0.0, 1.0)
            a, b = rng.choice(values, 2)
            # tau exactly equal to a realised gap, or a grid multiple
            for tau in (abs(a - b), step, 0.0, 1.0):
                O = sp.identity(n, format="csr")
                S = gen_social_homophily(GroundTruth.full(values), O, HomophilyConfig(tau=tau))
                expected = dense_homophily(values, tau)
                np.testing.assert_array_equal(S.indptr, expected.indptr)
                np.testing.assert_array_equal(S.indices, expected.indices)
                np.testing.assert_array_equal(S.data, expected.data)


    def test_assessments_match_loop_reference(self):
        rng = np.random.default_rng(17)
        for case in range(40):
            n = int(rng.integers(2, 30))
            truth = GroundTruth.full(rng.random(n))
            O = gen_ownership_one_to_one(n, n, rng) * (0.5 if case % 5 == 0 else 1.0)
            S = gen_social_er(n, ErConfig(p=float(rng.random())), rng)
            S = S * (2.0 if case % 7 == 0 else 1.0)
            k = int(rng.integers(1, n))
            for cfg in (StrategicConfig(k=k, sigma_h=float(rng.random())),
                        BiasReliabilityConfig(k=k, alpha=float(rng.uniform(-1, 1)),
                                              beta=float(rng.random()))):
                seed = int(rng.integers(1 << 30))
                if isinstance(cfg, StrategicConfig):
                    A = gen_assess_strategic(truth, O, S, cfg, np.random.default_rng(seed))
                else:
                    A = gen_assess_bias_reliability(truth, O, cfg, np.random.default_rng(seed))
                expected = loop_assessments(truth, O, S, cfg, np.random.default_rng(seed))
                np.testing.assert_array_equal(A.indptr, expected.indptr)
                np.testing.assert_array_equal(A.indices, expected.indices)
                np.testing.assert_array_equal(A.data, expected.data)


class TestMemory:
    """No generator other than ER may allocate an (n, n) array."""

    LIMIT_MB = 40

    @pytest.fixture(scope="class")
    def inputs(self):
        rng = np.random.default_rng(15)
        truth = gen_ground_truth(5000, MixtureConfig(), rng)
        O = gen_ownership_one_to_one(5000, 5000, rng)
        return truth, O, gen_social_homophily(truth, O, HomophilyConfig(tau=0.002))

    @staticmethod
    def peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_homophily_peak(self, inputs):
        truth, O, _ = inputs
        peak = self.peak_mb(lambda: gen_social_homophily(truth, O, HomophilyConfig(tau=0.002)))
        assert peak < self.LIMIT_MB

    def test_strategic_peak(self, inputs):
        truth, O, S = inputs
        peak = self.peak_mb(lambda: gen_assess_strategic(
            truth, O, S, StrategicConfig(), np.random.default_rng(16)))
        assert peak < self.LIMIT_MB
