"""Average and median aggregation baselines."""

import re

import numpy as np
import pytest

from peergrade import ValidationError, average_predict, build_graph, median_predict


def graph_with_grades(grades):
    return build_graph([(f"u{j}", "item", g) for j, g in enumerate(grades)])


class TestAverage:
    @pytest.mark.parametrize("grades,expected", [
        ([0.5, 0.7, 0.9], 0.7),
        ([0.4], 0.4),
        ([1.0, 0.0], 0.5),
    ])
    def test_known_values(self, grades, expected):
        g = graph_with_grades(grades)
        assert average_predict(g, [0])[0] == pytest.approx(expected, abs=1e-15)

    def test_explicit_zero_counts_as_grade(self):
        g = graph_with_grades([0.0, 1.0])
        assert average_predict(g, [0])[0] == 0.5

    def test_ungraded_item_rejected_by_name(self):
        g = build_graph([("u1", "i1", 0.8)], items=["empty"])
        with pytest.raises(ValidationError, match="empty"):
            average_predict(g, [g.item_ids.index("empty")])


class TestMedian:
    @pytest.mark.parametrize("grades,expected", [
        ([0.2, 0.9, 0.4], 0.4),
        ([0.2, 0.4], 0.3),
        ([0.7], 0.7),
    ])
    def test_known_values(self, grades, expected):
        g = graph_with_grades(grades)
        assert median_predict(g, [0])[0] == pytest.approx(expected, abs=1e-15)

    def test_ungraded_item_rejected(self):
        g = build_graph([("u1", "i1", 0.8)], items=["empty"])
        with pytest.raises(ValidationError):
            median_predict(g, [g.item_ids.index("empty")])


class TestSharedProperties:
    def test_grade_permutation_invariance(self):
        rng = np.random.default_rng(0)
        grades = rng.uniform(0, 1, 7)
        g1 = graph_with_grades(grades)
        # different grader names shuffle which user holds which grade
        g2 = build_graph([(f"z{9 - j}", "item", g) for j, g in enumerate(grades)])
        for fn in (average_predict, median_predict):
            assert fn(g1, [0])[0] == fn(g2, [0])[0]

    def test_bounded_by_grade_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            grades = rng.uniform(0, 1, int(rng.integers(1, 9)))
            g = graph_with_grades(grades)
            for fn in (average_predict, median_predict):
                value = fn(g, [0])[0]
                assert grades.min() <= value <= grades.max()

    def test_independent_of_social_ownership_and_truth(self):
        grades = [0.3, 0.6, 0.9]
        plain = graph_with_grades(grades)
        decorated = build_graph(
            [(f"u{j}", "item", g) for j, g in enumerate(grades)],
            ownerships=[("u0", "item", 1.0)],
            social=[("u0", "u1", 1.0)],
        )
        for fn in (average_predict, median_predict):
            assert fn(plain, [0])[0] == fn(decorated, [0])[0]

    def test_vector_request_order(self):
        g = build_graph([("u1", "i1", 0.2), ("u1", "i2", 0.8)])
        out = average_predict(g, [1, 0])
        np.testing.assert_array_equal(out, [0.8, 0.2])


def per_item_reference(graph, item_ids, fn):
    """The per-item loop the baselines replaced: one ``fn`` call per requested item."""
    csc = graph.A.tocsc()
    out = np.empty(len(item_ids))
    for j, item in enumerate(item_ids):
        i = int(item)
        if not 0 <= i < graph.m:
            raise ValidationError(f"unknown item index {i} (m={graph.m})")
        grades = csc.data[csc.indptr[i]:csc.indptr[i + 1]]
        if grades.size == 0:
            raise ValidationError(f"item {graph.item_ids[i]!r} has no assessments")
        out[j] = fn(grades)
    return out


def random_grades_graph(rng):
    """Items with 0-40 graders; grades on a coarse grid (ties), explicit +-0.0 and 1.0."""
    n, m = int(rng.integers(1, 50)), int(rng.integers(1, 12))
    values = np.round(rng.uniform(0, 1, (n, m)), int(rng.integers(1, 17)))
    values[rng.random((n, m)) < 0.2] = rng.choice([0.0, -0.0, 1.0])
    graded = rng.random((n, m)) < rng.uniform(0, 1, m)
    edges = [(f"u{u:02d}", f"i{i:02d}", values[u, i]) for u, i in zip(*np.nonzero(graded))]
    return build_graph(edges, users=[f"u{u:02d}" for u in range(n)],
                       items=[f"i{i:02d}" for i in range(m)])


class TestEqualsPerItemLoop:
    @pytest.mark.parametrize("fn,reference", [(average_predict, np.mean),
                                              (median_predict, np.median)])
    def test_bitwise_on_random_graphs(self, fn, reference):
        rng = np.random.default_rng(2)
        for _ in range(150):
            g = random_grades_graph(rng)
            graded = np.flatnonzero(np.diff(g.A.tocsc().indptr))
            if graded.size == 0:
                continue
            ids = rng.choice(graded, size=int(rng.integers(0, 3 * graded.size + 1)))
            assert fn(g, ids).tobytes() == per_item_reference(g, ids, reference).tobytes()

    @pytest.mark.parametrize("fn", [average_predict, median_predict])
    def test_first_bad_id_in_request_order_is_named(self, fn):
        g = build_graph([("u1", "a", 0.5), ("u1", "c", 0.0)], items=["b", "d"])
        a, b, c, d = (g.item_ids.index(x) for x in "abcd")
        for ids in ([a, b, 9], [a, 9, b], [c, -1, d], [d, 4, 5], [4], [-2]):
            with pytest.raises(ValidationError) as expected:
                per_item_reference(g, ids, np.mean)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(expected.value))}$"):
                fn(g, ids)

    @pytest.mark.parametrize("fn", [average_predict, median_predict])
    def test_unknown_index_on_a_graph_without_items(self, fn):
        with pytest.raises(ValidationError, match=r"^unknown item index 0 \(m=0\)$"):
            fn(build_graph([]), [0])
