"""Graph construction, propagation operator, and validation."""

import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from peergrade import (
    Dataset,
    DuplicateEntryError,
    GroundTruth,
    SoanGraph,
    Split,
    ValidationError,
    ValidationReport,
    build_graph,
    datasets_equal,
    from_matrices,
    graphs_equal,
    propagation_matrix,
    validate,
)

from peergrade import graph as graph_module, synthetic
from peergrade.graph import PropagationMatrix, _csr, _outside_unit, _symmetric
from peergrade.io import load_dataset, save_dataset
from peergrade.synthetic import (
    BiasReliabilityConfig,
    HomophilyConfig,
    ScenarioConfig,
    build_scenario,
    strategic_scenario,
)

from conftest import dense_propagation, random_graph


class TestBuildGraph:
    def test_single_assessment(self):
        g = build_graph([("u1", "i1", 0.8)])
        assert (g.n, g.m) == (1, 1)
        assert g.A[0, 0] == 0.8
        assert g.S.nnz == 0 and g.O.nnz == 0

    def test_empty_graph_with_declared_ids(self):
        g = build_graph([], users=["u1"], items=["i1"])
        assert (g.n, g.m) == (1, 1)
        assert g.A.nnz == 0 and g.O.nnz == 0 and g.S.nnz == 0

    def test_declared_ids_are_taken_with_str(self, tmp_path):
        # As the edges' ids are: an int id neither escapes as a TypeError nor survives a bundle.
        assert build_graph([("u1", "i1", 0.5)], users=[1]).user_ids == ("1", "u1")
        assert build_graph([("u1", "i1", 0.5)], users=[1, "1"], items=[2]).item_ids == ("2", "i1")
        g = build_graph([], users=[3], items=["i"])
        assert g.user_ids == ("3",)
        dataset = Dataset(graph=g, truth=GroundTruth(np.full(1, np.nan), np.zeros(1, bool)))
        save_dataset(dataset, tmp_path / "bundle")
        assert datasets_equal(load_dataset(tmp_path / "bundle"), dataset)

    def test_duplicate_assessment_rejected(self):
        with pytest.raises(DuplicateEntryError):
            build_graph([("u1", "i1", 0.8), ("u1", "i1", 0.8)])

    def test_duplicate_ownership_rejected(self):
        with pytest.raises(DuplicateEntryError):
            build_graph([], ownerships=[("u1", "i1", 1.0), ("u1", "i1", 0.5)])

    def test_duplicate_social_rejected_even_reversed(self):
        with pytest.raises(DuplicateEntryError):
            build_graph([], social=[("a", "b", 1.0), ("b", "a", 1.0)])

    def test_out_of_range_weight_names_triple(self):
        with pytest.raises(ValidationError, match="u1"):
            build_graph([("u1", "i1", 1.5)])
        with pytest.raises(ValidationError, match="i9"):
            build_graph([("u1", "i9", -0.1)])

    def test_social_self_edge_rejected(self):
        with pytest.raises(ValidationError, match="self-edge"):
            build_graph([], social=[("a", "a", 0.5)])

    def test_social_symmetrized(self):
        g = build_graph([], social=[("a", "b", 0.7)])
        assert g.S[0, 1] == 0.7 and g.S[1, 0] == 0.7

    def test_lexicographic_index_order(self):
        g = build_graph([("zed", "i2", 0.5), ("amy", "i1", 0.5)])
        assert g.user_ids == ("amy", "zed")
        assert g.item_ids == ("i1", "i2")

    def test_explicit_zero_grade_is_stored(self):
        g = build_graph([("u1", "i1", 0.0)])
        assert g.A.nnz == 1
        assert g.A.tocoo().data[0] == 0.0


class TestPropagationMatrix:
    def test_single_assessment_hand_values(self):
        g = build_graph([("u1", "i1", 0.8)])
        prop = propagation_matrix(g)
        np.testing.assert_allclose(prop.N.toarray(), [[0.5, 0.4], [0.4, 0.5]])
        np.testing.assert_array_equal(prop.degrees, [2, 2])

    def test_empty_graph_gives_identity(self):
        g = build_graph([], users=["u1"], items=["i1"])
        prop = propagation_matrix(g)
        np.testing.assert_array_equal(prop.N.toarray(), np.eye(2))
        np.testing.assert_array_equal(prop.degrees, [1, 1])

    def test_ownership_and_assessment_sum(self):
        g = build_graph([("u1", "i1", 0.5)], ownerships=[("u1", "i1", 1.0)])
        prop = propagation_matrix(g)
        np.testing.assert_allclose(prop.N.toarray(), [[0.5, 0.75], [0.75, 0.5]])

    def test_shared_entry_counts_once_in_degree(self):
        # user owns and assesses the same item: one stored entry in the block
        g = build_graph([("u1", "i1", 0.5)], ownerships=[("u1", "i1", 1.0)])
        prop = propagation_matrix(g)
        np.testing.assert_array_equal(prop.degrees, [2, 2])

    def test_explicit_zero_grade_counts_toward_degree(self):
        g = build_graph([("u1", "i1", 0.0)])
        prop = propagation_matrix(g)
        np.testing.assert_array_equal(prop.degrees, [2, 2])
        np.testing.assert_allclose(prop.N.toarray(), [[0.5, 0.0], [0.0, 0.5]])

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_graph(rng)
            prop = propagation_matrix(g)
            N_ref, deg_ref = dense_propagation(g)
            np.testing.assert_allclose(prop.N.toarray(), N_ref, atol=1e-15)
            np.testing.assert_array_equal(prop.degrees, deg_ref)

    def test_assessment_only_matches_bipartite_normalization(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, social_density=0.0, own_density=0.0)
            prop = propagation_matrix(g)
            N_ref, _ = dense_propagation(g)
            np.testing.assert_allclose(prop.N.toarray(), N_ref, atol=1e-15)

    def test_unit_weight_rows_sum_to_one(self):
        g = build_graph(
            [("u1", "i1", 1.0), ("u2", "i1", 1.0)],
            ownerships=[("u1", "i2", 1.0)],
            social=[("u1", "u2", 1.0)],
        )
        prop = propagation_matrix(g)
        sums = np.asarray(prop.N.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_relabeling_preserving_order_is_bit_identical(self):
        edges = [("u1", "i1", 0.8), ("u2", "i2", 0.3), ("u1", "i2", 0.9)]
        g1 = build_graph(edges)
        g2 = build_graph([("aa" + u, "xx" + i, w) for u, i, w in edges])
        p1, p2 = propagation_matrix(g1), propagation_matrix(g2)
        assert np.array_equal(p1.N.data, p2.N.data)
        assert np.array_equal(p1.N.indices, p2.N.indices)
        assert np.array_equal(p1.N.indptr, p2.N.indptr)

    def test_edge_insertion_order_irrelevant(self):
        edges = [("u1", "i1", 0.8), ("u2", "i2", 0.3), ("u1", "i2", 0.9)]
        p1 = propagation_matrix(build_graph(edges))
        p2 = propagation_matrix(build_graph(edges[::-1]))
        assert np.array_equal(p1.N.data, p2.N.data)
        assert np.array_equal(p1.N.indices, p2.N.indices)

    def test_users_then_items_row_layout(self):
        g = build_graph([("u1", "i1", 0.8), ("u2", "i1", 0.6)])
        prop = propagation_matrix(g)
        assert prop.n == 2 and prop.m == 1
        # item row is the last one; it aggregates both grades plus self-loop
        np.testing.assert_allclose(prop.N.toarray()[2], [0.8 / 3, 0.6 / 3, 1 / 3])


class TestValidate:
    def test_clean_graph_empty_report(self):
        report = validate(build_graph([("u1", "i1", 0.8)]))
        assert report.ok and not report.warnings

    def test_isolated_item_warned(self):
        report = validate(build_graph([("u1", "i1", 0.8)], items=["lonely"]))
        assert report.ok
        assert any("lonely" in w for w in report.warnings)

    def test_isolated_user_warned(self):
        report = validate(build_graph([("u1", "i1", 0.8)], users=["ghost"]))
        assert any("ghost" in w for w in report.warnings)

    def test_asymmetric_social_is_fatal(self):
        g = build_graph([("u1", "i1", 0.8), ("u2", "i1", 0.6)])
        bad_S = sp.csr_matrix(np.array([[0.0, 0.5], [0.0, 0.0]]))
        broken = SoanGraph(n=g.n, m=g.m, S=bad_S, O=g.O, A=g.A,
                           user_ids=g.user_ids, item_ids=g.item_ids)
        report = validate(broken)
        assert not report.ok
        assert any("symmetric" in e for e in report.errors)

    def test_asymmetric_social_weights_are_fatal(self):
        # The pattern is symmetric; only the weights of (u1, u2) and (u2, u1) differ.
        g = build_graph([("u1", "i1", 0.8), ("u2", "i1", 0.6)])
        bad_S = sp.csr_matrix(np.array([[0.0, 0.5], [0.3, 0.0]]))
        broken = SoanGraph(n=g.n, m=g.m, S=bad_S, O=g.O, A=g.A,
                           user_ids=g.user_ids, item_ids=g.item_ids)
        assert validate(broken).errors == ["S is not symmetric"]
        with pytest.raises(ValidationError, match="^S is not symmetric$"):
            from_matrices(bad_S, g.O, g.A, g.user_ids, g.item_ids)

    def test_out_of_range_weight_is_fatal(self):
        g = build_graph([("u1", "i1", 0.8)])
        bad_A = sp.csr_matrix(np.array([[1.8]]))
        broken = SoanGraph(n=1, m=1, S=g.S, O=g.O, A=bad_A,
                           user_ids=g.user_ids, item_ids=g.item_ids)
        assert not validate(broken).ok

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -0.5, 1.0 + 2**-52])
    def test_weight_outside_unit_interval_is_fatal(self, weight):
        g = build_graph([("u1", "i1", 0.8)])
        broken = SoanGraph(n=1, m=1, S=g.S, O=g.O, A=sp.csr_matrix(np.array([[weight]])),
                           user_ids=g.user_ids, item_ids=g.item_ids)
        assert validate(broken).errors == ["A contains weights outside [0, 1]"]

    def test_nonzero_social_diagonal_is_fatal(self):
        # Refused when the graph is built, so validate never sees it.
        g = build_graph([("u1", "i1", 0.8), ("u2", "i1", 0.6)])
        bad_S = sp.csr_matrix(np.diag([0.5, 0.0]))
        with pytest.raises(ValidationError, match=r"^S stores entry \('u1', 'u1'\) on its diagonal$"):
            SoanGraph(n=2, m=1, S=bad_S, O=g.O, A=g.A, user_ids=g.user_ids, item_ids=g.item_ids)


# The pattern-copy validate of an earlier version, verbatim: the reference
# for the stored-entry counts of the current one.
def _structural_pattern(mat: sp.csr_matrix) -> sp.csr_matrix:
    pat = mat.copy()
    pat.data = np.ones_like(pat.data)
    return pat


def reference_validate(graph: SoanGraph) -> ValidationReport:
    """Check structural invariants; isolation is reported but not fatal."""
    errors: list[str] = []
    warnings: list[str] = []

    for name, mat in (("S", graph.S), ("O", graph.O), ("A", graph.A)):
        if _outside_unit(mat.data).any():
            errors.append(f"{name} contains weights outside [0, 1]")

    if np.count_nonzero(graph.S.diagonal()):
        errors.append("S has nonzero diagonal entries (self-friendship)")
    spat = _structural_pattern(graph.S)
    if (spat != spat.T).nnz or (graph.S != graph.S.T).nnz:
        errors.append("S is not symmetric")

    if not errors:
        opat = _structural_pattern(graph.O)
        apat = _structural_pattern(graph.A)
        item_links = np.asarray((opat.sum(axis=0) + apat.sum(axis=0))).ravel()
        for j in np.nonzero(item_links == 0)[0]:
            warnings.append(f"item {graph.item_ids[j]!r} has no assessments and no owners")
        user_links = (
            np.asarray(spat.sum(axis=1)).ravel()
            + np.asarray(opat.sum(axis=1)).ravel()
            + np.asarray(apat.sum(axis=1)).ravel()
        )
        for u in np.nonzero(user_links == 0)[0]:
            warnings.append(f"user {graph.user_ids[u]!r} has no edges")

    return ValidationReport(errors, warnings)


def raw_csr(rng, entries, shape):
    """CSR holding ``entries`` as given: rows in random order inside, duplicates kept."""
    rows, cols, vals = (np.array(x) for x in zip(*entries)) if entries else ([], [], [])
    order = np.argsort(np.asarray(rows, np.int64) + rng.random(len(rows)) * 0.5, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(np.asarray(rows, np.int64),
                                                        minlength=shape[0]))])
    return sp.csr_matrix((np.asarray(vals, np.float64)[order], np.asarray(cols, np.int32)[order],
                          indptr.astype(np.int32)), shape=shape)


def messy_graph(rng) -> dict:
    """The fields of a SoanGraph with unsorted rows, duplicates, +-0.0, NaN,
    out-of-range weights, diagonals and an asymmetric S: some are refused."""
    n, m = (int(k) for k in rng.integers(1, 7, size=2))
    pool = [0.0, -0.0, 0.25, 0.5, 1.0, 0.0, 0.7, np.nan, 1.5, -0.25]
    weight = lambda: pool[rng.integers(7) if rng.random() < 0.97 else rng.integers(len(pool))]
    ties, pairs = [], set()
    for _ in range(int(rng.integers(0, n + 2))):
        a, b = (int(k) for k in rng.integers(n, size=2))
        w = weight()
        if a == b and rng.random() < 0.9 or (min(a, b), max(a, b)) in pairs:
            continue
        pairs.add((min(a, b), max(a, b)))
        ties.append((a, b, w))
        if rng.random() < 0.85:
            ties.append((b, a, w if rng.random() < 0.9 else weight()))
        if rng.random() < 0.03:
            ties += ties[-2:]  # a duplicate, mirrored or not
    bipartite = [[(int(c) // m, int(c) % m, weight()) for c in
                  rng.choice(n * m, size=min(int(rng.integers(0, n + m)), n * m), replace=False)]
                 for _ in "OA"]
    for rel in bipartite:
        if rel and rng.random() < 0.1:
            rel.append(rel[int(rng.integers(len(rel)))])
    return dict(n=n, m=m, S=raw_csr(rng, ties, (n, n)),
                O=raw_csr(rng, bipartite[0], (n, m)), A=raw_csr(rng, bipartite[1], (n, m)),
                user_ids=tuple(f"u{i}" for i in range(n)),
                item_ids=tuple(f"i{j}" for j in range(m)))


def reference_refusal(n, m, S, O, A, user_ids, item_ids) -> str | None:
    """The error that building a SoanGraph of these fields raises, by a loop over
    sorted positions: the first position stored twice, in S, O, then A, else
    S's first diagonal entry; None for fields it accepts."""
    for name, mat, col_ids in (("S", S, user_ids), ("O", O, item_ids), ("A", A, item_ids)):
        coo = mat.tocoo()
        positions = sorted(zip(coo.row.tolist(), coo.col.tolist()))
        for (row, col), before in zip(positions[1:], positions):
            if (row, col) == before:
                return f"{name} stores entry {(user_ids[row], col_ids[col])!r} twice"
    coo = S.tocoo()
    for row, col in sorted(zip(coo.row.tolist(), coo.col.tolist())):
        if row == col:
            return f"S stores entry {(user_ids[row], user_ids[row])!r} on its diagonal"
    return None


def stored(*mats) -> list[bytes]:
    return [a.tobytes() for mat in mats for a in (mat.data, mat.indices, mat.indptr)]


def two_users(data, indices, indptr) -> dict:
    """The fields of users u0 and u1, each grading item i0 with 0.5, and ``S`` stored as given."""
    return dict(n=2, m=1, S=sp.csr_matrix((np.array(data, np.float64), indices, indptr), shape=(2, 2)),
                O=sp.csr_matrix((2, 1)), A=sp.csr_matrix(np.full((2, 1), 0.5)),
                user_ids=("u0", "u1"), item_ids=("i0",))


# S of two users, each case by its verdict: (data, indices, indptr) of the CSR arrays,
# and validate's errors or, for a graph refused when built, the error it raises.
EXPLICIT_S = {
    "0.0 tie stored one way only": (([0.0], [1], [0, 1, 1]), ["S is not symmetric"]),
    "NaN tie stored both ways": (([np.nan, np.nan], [1, 0], [0, 1, 2]),
                                 ["S contains weights outside [0, 1]", "S is not symmetric"]),
    "0.0 one way, -0.0 the other": (([0.0, -0.0], [1, 0], [0, 1, 2]), []),
    "stored twice one way, once the other": (([0.25, 0.25, 0.5], [1, 1, 0], [0, 2, 3]),
                                             "S stores entry ('u0', 'u1') twice"),
    "stored twice both ways": (([0.25, 0.5, 0.5, 0.25], [1, 1, 0, 0], [0, 2, 4]),
                               "S stores entry ('u0', 'u1') twice"),
    "0.0 on the diagonal beside a tie": (([0.0, 0.7, 0.7], [0, 1, 0], [0, 2, 3]),
                                         "S stores entry ('u0', 'u0') on its diagonal"),
    "0.0 on the diagonal, stored twice": (([0.0, 0.0], [0, 0], [0, 2, 2]),
                                          "S stores entry ('u0', 'u0') twice"),
    "0.5 on the diagonal": (([0.5], [1], [0, 0, 1]), "S stores entry ('u1', 'u1') on its diagonal"),
}


class TestValidateCountsStoredEntries:
    def test_equals_the_pattern_copy_reference_on_messy_graphs(self):
        rng = np.random.default_rng(19)
        explicit = {name: two_users(*arrays) for name, (arrays, _) in EXPLICIT_S.items()}
        for name, (_, verdict) in EXPLICIT_S.items():
            if isinstance(verdict, str):
                assert reference_refusal(**explicit[name]) == verdict, name
            else:
                assert reference_validate(SoanGraph(**explicit[name])).errors == verdict, name
        errors = warnings = refused = unsorted = 0
        for fields in [*explicit.values(), *(messy_graph(rng) for _ in range(1200))]:
            given = stored(fields["S"], fields["O"], fields["A"])
            refusal = reference_refusal(**fields)
            if refusal is not None:
                with pytest.raises(ValidationError, match=f"^{re.escape(refusal)}$"):
                    SoanGraph(**fields)
                refused += 1
                continue
            g = SoanGraph(**fields)
            assert stored(fields["S"], fields["O"], fields["A"]) == given
            before = stored(g.S, g.O, g.A)
            expected = reference_validate(g)
            assert validate(g) == expected
            assert stored(g.S, g.O, g.A) == before
            errors += bool(expected.errors)
            warnings += bool(expected.warnings)
            unsorted += not all(fields[name].has_sorted_indices for name in "SOA")
        assert errors > 200 and warnings > 200  # both branches are exercised
        assert refused >= 200 and unsorted >= 200, (refused, unsorted)

    def test_explicit_zero_links_count(self):
        # i1's only link and u1's only edge are 0.0 grades; u2 and u3 share only a 0.0 tie.
        g = build_graph([("u1", "i1", 0.0)], social=[("u2", "u3", 0.0)])
        assert g.A.nnz == 1 and g.S.nnz == 2
        assert validate(g) == ValidationReport([], [])


# _symmetric before it sorted the ties once and took one transpose, verbatim:
# the reference for the arrays of the current one.
def reference_symmetric(a, b, w, n: int) -> sp.csr_matrix:
    """The (n, n) relation storing each entry ``(a[k], b[k], w[k])`` both ways."""
    return _csr(np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([w, w]), (n, n))


def assert_reference_symmetric(got: sp.csr_matrix, a, b, w, n: int) -> None:
    want = reference_symmetric(a, b, w, n)
    for name in ("indptr", "indices", "data"):  # bytes: the dtypes and each sign bit too
        assert same_bytes(getattr(got, name), getattr(want, name)), name
    rows = np.repeat(np.arange(n), np.diff(got.indptr))
    assert np.all(np.diff(rows * n + got.indices) > 0)  # indices sorted, each position once


class TestSymmetric:
    def test_same_arrays_as_the_reference_on_random_ties(self):
        rng = np.random.default_rng(31)
        seen = dict.fromkeys(["n = 0", "n = 1", "no ties", "shuffled", "a > b", "0.0", "-0.0"], 0)
        for _ in range(400):
            n = int(rng.integers(0, 12))
            pairs = np.array(list(combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)
            pairs = pairs[rng.random(len(pairs)) < rng.choice([0.0, 0.3, 1.0])]
            if rng.random() < 0.7:
                pairs = pairs[rng.permutation(len(pairs))]
            flip = rng.random(len(pairs)) < 0.5
            a, b = np.where(flip, pairs[:, 1], pairs[:, 0]), np.where(flip, pairs[:, 0], pairs[:, 1])
            w = np.array([0.0, -0.0, 1.0, 0.3])[rng.integers(4, size=len(pairs))]
            assert_reference_symmetric(_symmetric(a, b, w, n), a, b, w, n)
            seen["n = 0"] += n == 0
            seen["n = 1"] += n == 1
            seen["no ties"] += n > 1 and not len(pairs)
            seen["shuffled"] += bool(np.any(np.diff(pairs[:, 0] * n + pairs[:, 1]) < 0))
            seen["a > b"] += bool(flip.any())
            seen["0.0"] += bool(np.any((w == 0) & ~np.signbit(w)))
            seen["-0.0"] += bool(np.any((w == 0) & np.signbit(w)))
        assert min(seen.values()) >= 20, seen

    def test_same_arrays_as_the_reference_on_each_caller(self, monkeypatch, tmp_path):
        calls = []

        def recorded(a, b, w, n):
            calls.append((_symmetric(a, b, w, n), a, b, w, n))
            return calls[-1][0]

        monkeypatch.setattr(graph_module, "_symmetric", recorded)
        monkeypatch.setattr(synthetic, "_symmetric", recorded)
        er = build_scenario(strategic_scenario(seed=1, n=60, m=60, p=0.2))
        build_scenario(ScenarioConfig(n=60, m=60, seed=2, social=HomophilyConfig(tau=0.05)))
        save_dataset(er, tmp_path / "bundle")
        load_dataset(tmp_path / "bundle")
        build_graph([("u1", "i1", 0.5)], social=[("u3", "u1", 0.0), ("u1", "u2", -0.0), ("u2", "u3", 1.0)])
        assert [len(a) > 0 for _, a, _, _, _ in calls] == [True] * 4  # ER, homophily, bundle, build_graph
        for got, a, b, w, n in calls:
            assert_reference_symmetric(got, a, b, w, n)


# propagation_matrix as it was before it assembled N with one _csr call, verbatim:
# the reference for the bytes of the current one on canonical graphs.
def reference_propagation_matrix(graph: SoanGraph) -> PropagationMatrix:
    """Build the row-normalized operator from the combined adjacency.

    The user-item block is ``P = O + A`` entrywise (a user who both owns and
    assesses an item contributes the sum of the two weights, as a single
    stored entry).  The combined matrix is ``[[S, P], [P^T, 0]] + I`` and
    every row is divided by its count of stored entries.
    """
    n, m, size = graph.n, graph.m, graph.n + graph.m

    oc = graph.O.tocoo()
    ac = graph.A.tocoo()
    P = sp.coo_matrix(
        (np.concatenate([oc.data, ac.data]),
         (np.concatenate([oc.row, ac.row]), np.concatenate([oc.col, ac.col]))),
        shape=(n, m),
    )
    P.sum_duplicates()  # merges own+assess on the same item into one entry

    sc = graph.S.tocoo()
    rows = np.concatenate([sc.row, P.row, P.col + n, np.arange(size)])
    cols = np.concatenate([sc.col, P.col + n, P.row, np.arange(size)])
    vals = np.concatenate([sc.data, P.data, P.data, np.ones(size)])

    degrees = np.bincount(rows, minlength=size)  # self-loop guarantees >= 1
    N = sp.coo_matrix((vals / degrees[rows], (rows, cols)), shape=(size, size)).tocsr()
    N.sort_indices()
    return PropagationMatrix(N=N, degrees=degrees, n=n, m=m)


def canonical_graph(rng) -> SoanGraph:
    """A ``build_graph`` graph: +-0.0 weights, owned-and-graded items, empty relations, lone nodes."""
    n, m = (int(k) for k in rng.integers(1, 7, size=2))
    users, items = [f"u{i}" for i in range(n)], [f"i{j}" for j in range(m)]
    pool = [0.0, -0.0, 0.1, 0.25, 0.5, 0.7, 1.0]

    def entries(pairs):
        density = rng.choice([0.0, 0.3, 0.7])
        return [(a, b, pool[int(rng.integers(len(pool)))])
                for a, b in pairs if rng.random() < density]

    grid = [(u, i) for u in users for i in items]
    return build_graph(entries(grid), ownerships=entries(grid),
                       social=entries(combinations(users, 2)), users=users, items=items)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPropagationReference:
    def test_same_bytes_as_the_reference_on_canonical_graphs(self):
        rng = np.random.default_rng(23)
        graphs = [canonical_graph(rng) for _ in range(400)] + [
            build_scenario(cfg).graph for cfg in (
                strategic_scenario(seed=1, n=40, m=40, p=0.1),
                ScenarioConfig(n=30, m=30, seed=2, social=HomophilyConfig(tau=0.1)),
                ScenarioConfig(n=25, m=25, seed=3))]
        seen = dict.fromkeys(["zero", "negative zero", "owned and graded", "empty S",
                              "empty O", "lone node", "n or m = 1"], 0)
        for g in graphs:
            prop, ref = propagation_matrix(g), reference_propagation_matrix(g)
            for got, want in ((prop.N.indptr, ref.N.indptr), (prop.N.indices, ref.N.indices),
                              (prop.N.data, ref.N.data), (prop.degrees, ref.degrees)):
                assert same_bytes(got, want)
            data = np.concatenate([g.S.data, g.O.data, g.A.data])
            seen["zero"] += bool(np.any((data == 0) & ~np.signbit(data)))
            seen["negative zero"] += bool(np.any((data == 0) & np.signbit(data)))
            seen["owned and graded"] += bool(g.O.multiply(g.A.astype(bool)).nnz)
            seen["empty S"] += g.S.nnz == 0 and g.n > 1
            seen["empty O"] += g.O.nnz == 0
            seen["lone node"] += bool(validate(g).warnings)
            seen["n or m = 1"] += 1 in (g.n, g.m)
        assert min(seen.values()) >= 30, seen


class TestPositionsStoredTwice:
    def test_each_position_counts_once_as_in_the_dense_oracle(self):
        rng = np.random.default_rng(29)
        seen = {"refused": 0, "unsorted": 0, "owned and graded": 0}
        for _ in range(1200):
            fields = messy_graph(rng)
            if reference_refusal(**fields) is not None:
                seen["refused"] += 1
                continue
            g = SoanGraph(**fields)
            if any(_outside_unit(mat.data).any() for mat in (g.S, g.O, g.A)):
                continue
            prop = propagation_matrix(g)
            N_ref, deg_ref = dense_propagation(g)
            np.testing.assert_allclose(prop.N.toarray(), N_ref, atol=1e-15)
            np.testing.assert_array_equal(prop.degrees, deg_ref)
            seen["unsorted"] += not all(fields[name].has_sorted_indices for name in "SOA")
            seen["owned and graded"] += bool(g.O.multiply(g.A.astype(bool)).nnz)
        assert min(seen.values()) >= 100, seen

    def test_hand_example(self):
        # S stores (u0, u1) and (u1, u0) twice each, A stores (u0, i0) twice: both are refused.
        S = raw_csr(np.random.default_rng(0), [(0, 1, 0.5), (1, 0, 0.5)] * 2, (2, 2))
        A = raw_csr(np.random.default_rng(0), [(0, 0, 0.25)] * 2, (2, 1))
        fields = dict(n=2, m=1, S=S, O=sp.csr_matrix((2, 1)), A=A, user_ids=("u0", "u1"), item_ids=("i0",))
        with pytest.raises(ValidationError, match=r"^S stores entry \('u0', 'u1'\) twice$"):
            SoanGraph(**fields)
        with pytest.raises(ValidationError, match=r"^A stores entry \('u0', 'i0'\) twice$"):
            SoanGraph(**{**fields, "S": sp.csr_matrix((2, 2))})
        # Each position stored once with the sum of its weights: the operator the sums give.
        g = SoanGraph(**{**fields, "S": sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]),
                         "A": sp.csr_matrix([[0.5], [0.0]])})
        prop = propagation_matrix(g)
        np.testing.assert_array_equal(prop.degrees, [3, 2, 2])
        np.testing.assert_allclose(prop.N.toarray(), [[1 / 3, 1 / 3, 1 / 6],
                                                      [1 / 2, 1 / 2, 0.0],
                                                      [1 / 4, 0.0, 1 / 2]])


TWO_USERS = build_graph([("u1", "i1", 0.8), ("u2", "i1", 0.6)])


def split_check_loop(graph, truth, split):
    """Dataset's split check as first written, one id at a time: the reference."""
    for ids in (split.train, split.test):
        for i in ids:
            if not (0 <= i < graph.m):
                raise ValidationError(f"split references unknown item index {i}")
            if not truth.mask[i]:
                raise ValidationError(f"split item {i} has no known ground-truth value")


def shuffled_rows(rng, mat: sp.csr_matrix) -> sp.csr_matrix:
    """The entries of ``mat`` in a random order inside each row."""
    coo = mat.tocoo()
    return raw_csr(rng, list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())), mat.shape)


def assert_canonical(graph: SoanGraph) -> None:
    """Each relation a CSR matrix with sorted indices, each position once, and no S diagonal,
    read from the arrays as well as from scipy's flag."""
    for mat in (graph.S, graph.O, graph.A):
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        assert isinstance(mat, sp.csr_matrix) and mat.has_canonical_format
        assert np.all(np.diff(rows * mat.shape[1] + mat.indices) > 0)
    assert not np.any(np.repeat(np.arange(graph.n), np.diff(graph.S.indptr)) == graph.S.indices)


class TestCanonicalRelations:
    def test_every_graph_the_package_builds_is_canonical(self, tmp_path):
        rng = np.random.default_rng(31)
        built = [canonical_graph(rng) for _ in range(100)]
        built += [from_matrices(*(shuffled_rows(rng, mat) for mat in (g.S, g.O, g.A)),
                                g.user_ids, g.item_ids) for g in built[:50]]
        er = strategic_scenario(seed=4, n=60, m=60, p=0.1)
        datasets = [build_scenario(cfg) for cfg in (
            ScenarioConfig(n=60, m=60, seed=4),  # default: bias-reliability, no social ties
            er,
            replace(er, social=HomophilyConfig(tau=0.2)),
            replace(er, assessment=BiasReliabilityConfig(k=4, alpha=0.1, beta=0.5)))]
        for k, dataset in enumerate(datasets):
            save_dataset(dataset, tmp_path / f"b{k}")
            loaded = load_dataset(tmp_path / f"b{k}")
            assert datasets_equal(loaded, dataset)
            built += [dataset.graph, loaded.graph]
        assert all(g.S.nnz for g in built[-6:])  # the three social scenarios store ties
        for g in built:
            assert_canonical(g)

    def test_an_unsorted_relation_is_held_sorted(self):
        rng = np.random.default_rng(37)
        unsorted = 0
        for _ in range(100):
            g = canonical_graph(rng)
            mats = [shuffled_rows(rng, mat) for mat in (g.S, g.O, g.A)]
            given = stored(*mats)
            held = SoanGraph(g.n, g.m, *mats, g.user_ids, g.item_ids)
            assert stored(*mats) == given  # sorted in a copy, never in place
            assert stored(held.S, held.O, held.A) == stored(g.S, g.O, g.A)
            assert_canonical(held)
            unsorted += not all(mat.has_sorted_indices for mat in mats)
        assert unsorted >= 50, unsorted


class TestDomainTypes:
    def test_ground_truth_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            GroundTruth.full([0.5, 1.2])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5, 1.0 + 2**-52])
    def test_ground_truth_rejects_outside_unit_interval(self, value):
        with pytest.raises(ValidationError,
                           match=r"^known ground-truth values must be finite and in \[0, 1\]$"):
            GroundTruth.full([0.5, value])

    def test_ground_truth_accepts_unit_interval_ends(self):
        assert GroundTruth.full([0.0, -0.0, 1.0, 5e-324]).mask.all()

    def test_ground_truth_ignores_unknown_entries(self):
        gt = GroundTruth(np.array([np.nan, 0.5]), np.array([False, True]))
        assert gt.mask.sum() == 1

    def test_split_rejects_overlap(self):
        with pytest.raises(ValidationError):
            Split(train=(0, 1), test=(1, 2))

    def test_dataset_rejects_unlabeled_split_item(self):
        g = build_graph([("u1", "i1", 0.8), ("u1", "i2", 0.4)])
        gt = GroundTruth(np.array([0.7, np.nan]), np.array([True, False]))
        with pytest.raises(ValidationError):
            Dataset(graph=g, truth=gt, split=Split(train=(1,), test=()))

    def test_split_check_equals_loop_reference(self):
        rng = np.random.default_rng(22)
        seen = set()
        for _ in range(400):
            m = int(rng.integers(0, 6))
            graph = build_graph([], users=["u1"], items=[f"i{j}" for j in range(m)])
            mask = rng.random(m) < 0.6
            truth = GroundTruth(np.where(mask, 0.5, np.nan), mask)
            small = [int(k) - 3 for k in rng.permutation(m + 6)]  # -3 .. m + 2, none repeated
            a, b = rng.integers(0, 4, size=2)
            train, test = small[:a], small[a:a + b]
            # numpy reads ids as uint64 only when all are >= 2**63, so they fill a tuple alone
            if rng.random() < 0.25:
                train = [2**63, 2**64 - 1][:int(rng.integers(1, 3))]
            if rng.random() < 0.25:
                test = [2**63 + 7]
            split = Split(train=tuple(train), test=tuple(test))
            outcomes = []
            for check in (lambda: split_check_loop(graph, truth, split),
                          lambda: Dataset(graph=graph, truth=truth, split=split)):
                try:
                    check()
                    outcomes.append(None)
                except ValidationError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], (m, mask, split)
            seen.add(outcomes[0] and outcomes[0][1].split(" ")[1])
        assert seen == {None, "references", "item"}  # passes, unknown ids, unlabelled ids

    def test_dataset_rejects_truth_length_mismatch(self):
        g = build_graph([("u1", "i1", 0.8)])
        with pytest.raises(ValidationError):
            Dataset(graph=g, truth=GroundTruth.full([0.5, 0.5]))

    def test_graphs_equal_detects_weight_change(self):
        g1 = build_graph([("u1", "i1", 0.8)])
        g2 = build_graph([("u1", "i1", 0.7)])
        assert graphs_equal(g1, g1)
        assert not graphs_equal(g1, g2)

    @pytest.mark.parametrize("make, message", [
        (lambda: GroundTruth(np.zeros((1, 2)), np.ones((1, 2), bool)),
         "ground truth vector and mask must be 1-d and same length"),
        (lambda: GroundTruth(np.zeros(2), np.ones(3, bool)),
         "ground truth vector and mask must be 1-d and same length"),
        (lambda: Dataset(graph=TWO_USERS, truth=GroundTruth.full([0.5]),
                         split=Split(train=(0,), test=(5,))),
         "split references unknown item index 5"),
        (lambda: replace(TWO_USERS, n=3),
         "id counts 2, 1 disagree with n=3, m=1"),
        (lambda: replace(TWO_USERS, item_ids=("i1", "i2")),
         "id counts 2, 2 disagree with n=2, m=1"),
        (lambda: replace(TWO_USERS, A=sp.csr_matrix((2, 2))),
         "relation shapes (2, 2), (2, 1), (2, 2) disagree with n=2, m=1"),
        (lambda: replace(TWO_USERS, S=sp.csr_matrix((1, 1))),
         "relation shapes (1, 1), (2, 1), (2, 1) disagree with n=2, m=1"),
        (lambda: from_matrices(sp.csr_matrix((2, 2)), sp.csr_matrix((2, 1)),
                               sp.csr_matrix((1, 1)), ["u1", "u2"], ["i1"]),
         "relation shapes (2, 2), (2, 1), (1, 1) disagree with n=2, m=1"),
    ])
    def test_construction_rejects_bad_sizes(self, make, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("users, items, message", [
        (("a", "a"), ("i", "j"), "user_ids[1] 'a' repeats user_ids[0]"),
        (("a", "b"), ("i", "j", "j"), "item_ids[2] 'j' repeats item_ids[1]"),
        ((1, "1"), ("i", "j"), "user_ids[1] '1' repeats user_ids[0]"),  # one text in a bundle
    ])
    def test_from_matrices_rejects_repeated_ids(self, users, items, message):
        empty = sp.csr_matrix((2, len(items)))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            from_matrices(sp.csr_matrix((2, 2)), empty, empty, users, items)

    @pytest.mark.parametrize("relation, entries, message", [
        ("A", [(1, 0, 0.5), (0, 0, 0.25), (0, 0, 0.25)], "A stores entry ('u0', 'i0') twice"),
        ("O", [(0, 0, 1.0), (1, 1, 0.5), (1, 0, 0.5), (1, 1, 0.0)], "O stores entry ('u1', 'i1') twice"),
        ("A", [(1, 1, 0.0), (1, 1, -0.0)], "A stores entry ('u1', 'i1') twice"),  # row 0 empty
        ("S", [(0, 1, 0.5), (1, 0, 0.5)] * 2, "S stores entry ('u0', 'u1') twice"),
    ])
    def test_from_matrices_rejects_an_entry_stored_twice(self, relation, entries, message):
        mats = {name: sp.csr_matrix((2, 2)) for name in "SOA"}
        mats[relation] = raw_csr(np.random.default_rng(1), entries, (2, 2))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            from_matrices(mats["S"], mats["O"], mats["A"], ("u0", "u1"), ("i0", "i1"))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):  # built directly too
            SoanGraph(n=2, m=2, **mats, user_ids=("u0", "u1"), item_ids=("i0", "i1"))
        once = list({(r, c): (r, c, w) for r, c, w in entries}.values())
        mats[relation] = raw_csr(np.random.default_rng(1), once, (2, 2))  # the same column in two rows
        assert from_matrices(mats["S"], mats["O"], mats["A"], ("u0", "u1"), ("i0", "i1"))

    @pytest.mark.parametrize("entries, user", [
        ([(0, 0, 0.0), (0, 1, 0.5), (1, 0, 0.5)], "u0"),  # a bundle would drop the 0.0
        ([(1, 1, -0.0)], "u1"),  # row 0 empty
        ([(0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.25)], "u1"),
    ])
    def test_from_matrices_rejects_an_entry_on_the_social_diagonal(self, entries, user):
        S = raw_csr(np.random.default_rng(2), entries, (2, 2))
        empty = sp.csr_matrix((2, 1))
        message = f"S stores entry {(user, user)!r} on its diagonal"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            from_matrices(S, empty, empty, ("u0", "u1"), ("i0",))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):  # built directly too
            SoanGraph(n=2, m=1, S=S, O=empty, A=empty, user_ids=("u0", "u1"), item_ids=("i0",))
        off = raw_csr(np.random.default_rng(2), [e for e in entries if e[0] != e[1]], (2, 2))
        assert from_matrices(off, empty, empty, ("u0", "u1"), ("i0",))


class TestEquality:
    BASE = [("u1", "i1", 0.8), ("u2", "i1", 0.0)]

    @pytest.mark.parametrize("other", [
        build_graph(BASE, items=["i3"]),  # ids differ
        build_graph(BASE[:1], users=["u2"], items=["i2"]),  # entry count differs
        build_graph(BASE[:1] + [("u2", "i2", 0.0)]),  # an entry moves, weights agree
        build_graph(BASE[:1] + [("u2", "i1", 0.5)], items=["i2"]),  # one weight differs
        build_graph(BASE[:1] + [("u2", "i1", -0.0)], items=["i2"]),  # -0.0 against 0.0
    ])
    def test_graphs_equal_says_no(self, other):
        g = build_graph(self.BASE, items=["i2"])
        assert graphs_equal(g, build_graph(self.BASE, items=["i2"]))
        assert not graphs_equal(g, other)
        assert not graphs_equal(other, g)

    @pytest.mark.parametrize("v, mask, split", [
        ([0.0, np.nan, 0.25], [True, False, True], None),  # the mask differs, known values agree
        ([0.0, 0.25, np.nan], [True, True, False], Split(train=(1,), test=(0,))),  # the split
        ([0.0, 0.75, np.nan], [True, True, False], None),  # one known truth value differs
        ([-0.0, 0.25, np.nan], [True, True, False], None),  # -0.0 against 0.0
    ])
    def test_datasets_equal_says_no(self, v, mask, split):
        g = build_graph([("u1", "i1", 0.8), ("u1", "i2", 0.4), ("u1", "i3", 0.1)])
        truth = GroundTruth(np.array([0.0, 0.25, np.nan]), np.array([True, True, False]))
        ds = Dataset(graph=g, truth=truth)
        other = Dataset(graph=g, truth=GroundTruth(np.array(v), np.array(mask)), split=split)
        assert datasets_equal(ds, Dataset(graph=g, truth=truth))
        assert not datasets_equal(ds, other)
        assert not datasets_equal(other, ds)

    def test_datasets_equal_says_no_when_one_weight_differs(self):
        truth = GroundTruth.full([0.5])
        ds = Dataset(graph=build_graph(self.BASE), truth=truth, split=Split(train=(0,), test=()))
        other = replace(ds, graph=build_graph(self.BASE[:1] + [("u2", "i1", 0.5)]))
        assert not datasets_equal(ds, other)
        assert not datasets_equal(other, ds)
