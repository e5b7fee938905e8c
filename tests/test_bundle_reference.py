"""Whole-array bundle code against the per-row code it replaced.

The reference functions below are the per-row ``_read_csv``, ``build_graph``,
truth loop and ``save_dataset`` as first written.  On random bundles the
whole-array code must load the same bits, write the same bytes, and raise
the same exception class with the same message for the first bad entry.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from peergrade import (
    Dataset,
    DuplicateEntryError,
    GroundTruth,
    SchemaError,
    SoanGraph,
    ValidationError,
    build_graph,
    graphs_equal,
    load_dataset,
    save_dataset,
)
from peergrade.io import (
    ASSESSMENT_HEADER,
    OWNERSHIP_HEADER,
    SOCIAL_HEADER,
    TRUTH_HEADER,
    _encoded,
)
from peergrade.schema import SCHEMA_VERSION, canonical_json, expect, read_document, reject_unknown


# --- the per-row reference ------------------------------------------------------

def _check_weight(value, kind, triple):
    w = float(value)
    if not np.isfinite(w) or w < 0.0 or w > 1.0:
        raise ValidationError(f"{kind} weight out of range [0, 1] in entry {triple!r}")
    return w


def _index_map(ids):
    ordered = tuple(sorted(ids))
    return {s: i for i, s in enumerate(ordered)}, ordered


def _csr(rows, cols, vals, shape):
    coo = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=shape,
    )
    mat = coo.tocsr()
    mat.sort_indices()
    return mat


def reference_build_graph(assessments, ownerships=(), social=(), users=(), items=()):
    assessments = list(assessments)
    ownerships = list(ownerships)
    social = list(social)

    user_set = set(users)
    item_set = set(items)
    for u, i, _ in assessments:
        user_set.add(str(u))
        item_set.add(str(i))
    for u, i, _ in ownerships:
        user_set.add(str(u))
        item_set.add(str(i))
    for a, b, _ in social:
        user_set.add(str(a))
        user_set.add(str(b))

    uidx, user_ids = _index_map(user_set)
    iidx, item_ids = _index_map(item_set)
    n, m = len(user_ids), len(item_ids)

    def bipartite(entries, kind):
        rows, cols, vals, seen = [], [], [], set()
        for u, i, w in entries:
            key = (str(u), str(i))
            if key in seen:
                raise DuplicateEntryError(f"duplicate {kind} entry for {key!r}")
            seen.add(key)
            rows.append(uidx[key[0]])
            cols.append(iidx[key[1]])
            vals.append(_check_weight(w, kind, (u, i, w)))
        return _csr(rows, cols, vals, (n, m))

    A = bipartite(assessments, "assessment")
    O = bipartite(ownerships, "ownership")

    rows, cols, vals, seen = [], [], [], set()
    for a, b, w in social:
        a, b = str(a), str(b)
        if a == b:
            raise ValidationError(f"self-edge in social list: {(a, b, w)!r}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DuplicateEntryError(f"duplicate social entry for {key!r}")
        seen.add(key)
        weight = _check_weight(w, "social", (a, b, w))
        rows.extend((uidx[a], uidx[b]))
        cols.extend((uidx[b], uidx[a]))
        vals.extend((weight, weight))
    S = _csr(rows, cols, vals, (n, n))

    return SoanGraph(n=n, m=m, S=S, O=O, A=A, user_ids=user_ids, item_ids=item_ids)


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_float(text, where):
    try:
        return float(text)
    except ValueError:
        raise SchemaError(f"{where}: cannot parse {text!r} as a number") from None


def reference_save_dataset(dataset, path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    graph = dataset.graph

    def write_rows(name, header, rows):
        with (out / name).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    ac = graph.A.tocoo()
    order = np.lexsort((ac.col, ac.row))
    write_rows("assessments.csv", ASSESSMENT_HEADER, (
        (graph.user_ids[ac.row[j]], graph.item_ids[ac.col[j]], _fmt(ac.data[j]))
        for j in order
    ))

    oc = graph.O.tocoo()
    if oc.nnz:
        order = np.lexsort((oc.col, oc.row))
        write_rows("ownership.csv", OWNERSHIP_HEADER, (
            (graph.user_ids[oc.row[j]], graph.item_ids[oc.col[j]], _fmt(oc.data[j]))
            for j in order
        ))

    sc = graph.S.tocoo()
    if sc.nnz:
        upper = sc.row < sc.col
        rows, cols, vals = sc.row[upper], sc.col[upper], sc.data[upper]
        order = np.lexsort((cols, rows))
        write_rows("social.csv", SOCIAL_HEADER, (
            (graph.user_ids[rows[j]], graph.user_ids[cols[j]], _fmt(vals[j]))
            for j in order
        ))

    known = np.nonzero(dataset.truth.mask)[0]
    write_rows("truth.csv", TRUTH_HEADER, (
        (graph.item_ids[i], _fmt(dataset.truth.v[i])) for i in known
    ))

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "dataset-bundle",
        "n": graph.n,
        "m": graph.m,
        "user_ids": list(graph.user_ids),
        "item_ids": list(graph.item_ids),
    }
    (out / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")


def reference_read_csv(path, header, required):
    if not path.exists():
        if required:
            raise ValidationError(f"missing required file {path}")
        return []
    rows = []
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header {','.join(header)}") from None
        if got != header:
            raise SchemaError(f"{path}: expected header {','.join(header)}, got {','.join(got)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
            rows.append((*row[:-1], _parse_float(row[-1], f"{path}:{line_no}")))
    return rows


def reference_load_dataset(path, scale_max=None):
    root = Path(path)
    assessments = reference_read_csv(root / "assessments.csv", ASSESSMENT_HEADER, required=True)
    ownership = reference_read_csv(root / "ownership.csv", OWNERSHIP_HEADER, required=False)
    social = reference_read_csv(root / "social.csv", SOCIAL_HEADER, required=False)
    truth_rows = reference_read_csv(root / "truth.csv", TRUTH_HEADER, required=True)

    declared_users, declared_items = [], []
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        manifest = read_document(manifest_path, "dataset-bundle")
        reject_unknown(manifest, {"n", "m", "user_ids", "item_ids"}, "/")
        declared_users = [str(u) for u in expect(manifest.get("user_ids", []), list, "/user_ids")]
        declared_items = [str(i) for i in expect(manifest.get("item_ids", []), list, "/item_ids")]

    if scale_max is not None:
        assessments = [(u, i, g / scale_max) for u, i, g in assessments]
        truth_rows = [(i, v / scale_max) for i, v in truth_rows]

    graph = reference_build_graph(assessments=assessments, ownerships=ownership, social=social,
                                  users=declared_users, items=declared_items)

    item_index = {item_id: j for j, item_id in enumerate(graph.item_ids)}
    v = np.full(graph.m, np.nan)
    mask = np.zeros(graph.m, dtype=bool)
    for item_id, value in truth_rows:
        if item_id not in item_index:
            raise ValidationError(f"truth.csv references unknown item {item_id!r}")
        j = item_index[item_id]
        if mask[j]:
            raise ValidationError(f"truth.csv lists item {item_id!r} twice")
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"truth value {value} for item {item_id!r} outside [0, 1]")
        v[j] = value
        mask[j] = True

    return Dataset(graph=graph, truth=GroundTruth(v, mask), split=None)


# --- random inputs ----------------------------------------------------------------

ODD_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", "Ünïcødé ✓", "trailing\x00",
           " padded ", "", "'", "x\ty"]
WEIGHTS = [0.0, -0.0, 1.0, 0.5, 5e-324, 0.1 + 0.2, 1e-17, 1 - 2**-53]


def _ids(rng, prefix, count):
    pool = [f"{prefix}{k}" for k in range(count)]
    for k in rng.choice(len(ODD_IDS), size=min(count, int(rng.integers(0, 4))), replace=False):
        pool[int(rng.integers(count))] = prefix + ODD_IDS[k]
    return list(dict.fromkeys(pool))


def _weight(rng):
    return WEIGHTS[rng.integers(len(WEIGHTS))] if rng.random() < 0.3 else float(rng.random())


def random_triples(rng, firsts, seconds, count, social=False):
    pairs = [(a, b) for a in firsts for b in seconds if not social or a < b]
    picked = rng.permutation(len(pairs))[:count]
    out = []
    for k in picked:
        a, b = pairs[k]
        if social and rng.random() < 0.5:
            a, b = b, a
        out.append((a, b, _weight(rng)))
    return out


def random_inputs(rng):
    users = _ids(rng, "u", int(rng.integers(1, 9)))
    items = _ids(rng, "i", int(rng.integers(1, 9)))
    cap = lambda k: int(rng.integers(0, k + 1))
    assessments = random_triples(rng, users, items, max(1, cap(len(users) * len(items))))
    ownerships = random_triples(rng, users, items, cap(len(items)))
    social = random_triples(rng, users, users, cap(len(users)), social=True)
    extra_users = [f"lonely{k}" for k in range(cap(2))]
    extra_items = [f"unowned{k}" for k in range(cap(2))]
    return assessments, ownerships, social, extra_users, extra_items


def random_dataset(rng):
    assessments, ownerships, social, users, items = random_inputs(rng)
    graph = reference_build_graph(assessments, ownerships, social, users, items)
    known = rng.random(graph.m) < 0.7
    v = np.where(known, [_weight(rng) for _ in range(graph.m)], np.nan)
    return Dataset(graph=graph, truth=GroundTruth(v, known))


def graph_bytes(graph):
    mats = [(mat.shape, mat.indptr.tobytes(), mat.indices.astype(np.int64).tobytes(),
             mat.data.tobytes()) for mat in (graph.S, graph.O, graph.A)]
    return graph.n, graph.m, graph.user_ids, graph.item_ids, mats


def dataset_bytes(dataset):
    return graph_bytes(dataset.graph), dataset.truth.mask.tobytes(), dataset.truth.v.tobytes()


def tree_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


def outcome(call):
    """``call()``'s result, or the class and message of what it raised."""
    try:
        return "ok", call()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


# --- tests ------------------------------------------------------------------------

class TestEqualsPerRowReference:
    def test_build_graph_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            assessments, ownerships, social, users, items = random_inputs(rng)
            if rng.random() < 0.3:  # int weights and non-string ids
                assessments = [(u, i, int(w >= 0.5)) for u, i, w in assessments]
                ownerships = [(f"{u}", 7, w) for u, _, w in ownerships[:1]]
            expected = reference_build_graph(assessments, ownerships, social, users, items)
            got = build_graph(iter(assessments), ownerships, social, iter(users), items)
            assert graph_bytes(got) == graph_bytes(expected)

    def test_save_and_load_bitwise(self, tmp_path):
        rng = np.random.default_rng(12)
        for case in range(300):
            dataset = random_dataset(rng)
            ref, new = tmp_path / f"ref{case}", tmp_path / f"new{case}"
            reference_save_dataset(dataset, ref)
            save_dataset(dataset, new)
            assert tree_bytes(new) == tree_bytes(ref)
            scale = [None, 1.0, 3.0, 7][case % 4]
            loaded = load_dataset(new, scale_max=scale)
            assert dataset_bytes(loaded) == dataset_bytes(reference_load_dataset(ref, scale))
            if scale is None:
                assert dataset_bytes(loaded) == dataset_bytes(dataset)

    def test_blank_lines_are_skipped(self, tmp_path):
        rng = np.random.default_rng(13)
        for case in range(100):
            path = tmp_path / f"b{case}"
            save_dataset(random_dataset(rng), path)
            files = {p.name: read_rows(p) for p in path.glob("*.csv")}
            add_blank_lines(rng, files)
            for name, rows in files.items():
                write_rows(path / name, rows)
            assert dataset_bytes(load_dataset(path)) == dataset_bytes(reference_load_dataset(path))

    def test_save_orders_rows_of_unsorted_matrices(self, tmp_path):
        rng = np.random.default_rng(16)
        for case in range(50):
            dataset = random_dataset(rng)
            g = dataset.graph
            graph = SoanGraph(n=g.n, m=g.m, S=reversed_rows(g.S), O=reversed_rows(g.O),
                              A=reversed_rows(g.A), user_ids=g.user_ids, item_ids=g.item_ids)
            unsorted = Dataset(graph=graph, truth=dataset.truth)
            reference_save_dataset(unsorted, tmp_path / f"ref{case}")
            save_dataset(unsorted, tmp_path / f"new{case}")
            assert tree_bytes(tmp_path / f"new{case}") == tree_bytes(tmp_path / f"ref{case}")

    def test_graphs_equal_reads_unsorted_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = random_dataset(rng).graph
            A = g.A.copy()
            k = int(rng.integers(A.nnz))
            A.data[k] = 0.0
            signed = A.copy()
            signed.data[k] = -0.0
            twin = SoanGraph(n=g.n, m=g.m, S=g.S, O=g.O, A=A,
                             user_ids=g.user_ids, item_ids=g.item_ids)
            for mat, equal in ((A, True), (signed, False)):
                graph = SoanGraph(n=g.n, m=g.m, S=reversed_rows(g.S), O=reversed_rows(g.O),
                                  A=reversed_rows(mat), user_ids=g.user_ids, item_ids=g.item_ids)
                assert graphs_equal(graph, twin) is equal
                assert graphs_equal(twin, graph) is equal


# Every character that makes csv.writer quote a field, and some that do not:
# NUL, tab, a leading space, 2-, 3- and 4-byte UTF-8, U+2028 and U+0085.
EDGE_CHARS = [",", '"', "\r", "\n", "\x00", "\t", " ", "a", "é", "✓", "𝄞", "\u2028", "\u0085"]
EDGE_IDS = ["", ",", '"', "\r", "\n", "a,b", 'say "hi"', "cr\r\nlf", "nul\x00", "tab\t",
            "  lead", "é", "✓", "𝄞", "line\u2028sep", "next\u0085line"]
EDGE_WEIGHTS = [-0.0, 5e-324, 0.0, 1.0]


def edge_dataset(case):
    """A hand-made dataset for each edge of the writer, by name."""
    if case == "empty":  # header-only assessments.csv and truth.csv, no ownership or social
        graph = reference_build_graph([], users=["u"], items=["i", "j"])
        return Dataset(graph=graph, truth=GroundTruth(np.full(2, np.nan), np.zeros(2, bool)))
    if case == "one row":  # every file one line, every column one distinct text
        graph = reference_build_graph([("a", "i", 0.5)], [("b", "i", 0.5)], [("a", "b", 0.5)])
        return Dataset(graph=graph, truth=GroundTruth.full([0.5]))
    weight = lambda k: EDGE_WEIGHTS[k % len(EDGE_WEIGHTS)]
    unquoted = [s for s in EDGE_IDS if not set(s) & set(',"\r\n')]
    users, items = {"odd ids": (EDGE_IDS, EDGE_IDS),
                    "prefixed ids": ([f"u{s}" for s in EDGE_IDS], [f"i{s}" for s in EDGE_IDS]),
                    "unquoted ids": (unquoted, unquoted)}[case]
    assessments = [(u, items[(k + j) % len(items)], weight(k + j))
                   for k, u in enumerate(users) for j in range(3)]
    ownerships = [(u, i, weight(k)) for k, (u, i) in enumerate(zip(users, items))]
    social = [(a, b, weight(k)) for k, (a, b) in enumerate(zip(users, users[1:] + users[:1]))]
    graph = reference_build_graph(assessments, ownerships, social)
    known = np.arange(graph.m) % 5 != 4
    v = np.where(known, [weight(k) for k in range(graph.m)], np.nan)
    return Dataset(graph=graph, truth=GroundTruth(v, known))


class TestWriterEdges:
    @pytest.mark.parametrize("case", ["empty", "one row", "odd ids", "prefixed ids", "unquoted ids"])
    def test_bytes_equal_per_row_reference(self, tmp_path, case):
        dataset = edge_dataset(case)
        reference_save_dataset(dataset, tmp_path / "ref")
        save_dataset(dataset, tmp_path / "new")
        assert tree_bytes(tmp_path / "new") == tree_bytes(tmp_path / "ref")
        assert dataset_bytes(load_dataset(tmp_path / "new")) == dataset_bytes(dataset)

    def test_encoded_ids_are_what_csv_writer_writes(self):
        rng = np.random.default_rng(18)
        lengths = rng.integers(0, 7, 100_000)
        chars = iter(rng.choice(EDGE_CHARS, int(lengths.sum())).tolist())
        ids = ["".join(next(chars) for _ in range(k)) for k in lengths.tolist()]
        # Numbers and bools, whose csv.writer text is their str().
        ids += [0, -7, 2**70, 1.5, -0.0, 5e-324, 1e300, float("inf"), float("nan"), True, False]
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows([s, "x"] for s in ids)
        assert "".join(f"{text},x\r\n" for text in _encoded(ids)) == buf.getvalue()
        assert _encoded(ids[-11:]) == list(map(str, ids[-11:]))
        assert _encoded([None]) == ["None"]  # csv.writer writes None as an empty field


def reversed_rows(mat):
    """``mat`` with the entries of each row stored in reverse column order."""
    mat = mat.copy()
    for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:]):
        mat.indices[lo:hi] = mat.indices[lo:hi][::-1].copy()
        mat.data[lo:hi] = mat.data[lo:hi][::-1].copy()
    mat.has_sorted_indices = False
    return mat


def read_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


FAULTS = ["header", "fields", "float", "duplicate", "weight", "self-edge", "reversed",
          "truth-unknown", "truth-repeated", "truth-range"]
HEADERS = {"assessments.csv": ASSESSMENT_HEADER, "ownership.csv": OWNERSHIP_HEADER,
           "social.csv": SOCIAL_HEADER, "truth.csv": TRUTH_HEADER}


def add_blank_lines(rng, files):
    for rows in files.values():
        for _ in range(int(rng.integers(0, 4))):
            rows.insert(int(rng.integers(1, len(rows) + 1)), [])


def add_fault(rng, files):
    """Apply one random fault to the parsed rows of a bundle's CSVs, in place."""
    kind = FAULTS[rng.integers(len(FAULTS))]
    name = ("social.csv" if kind in ("self-edge", "reversed") else
            "truth.csv" if kind.startswith("truth") else list(HEADERS)[rng.integers(4)])
    rows = files.setdefault(name, [HEADERS[name]])
    body = [k for k in range(1, len(rows)) if rows[k]]
    at = int(rng.integers(1, len(rows) + 1))
    if kind == "header":
        rows[0] = rows[0][:-1] + ["bogus"]
        return
    if kind == "truth-unknown":
        rows.insert(at, ["ghost item", "0.5"])
        return
    if not body:
        return
    k = body[rng.integers(len(body))]
    row = list(rows[k])
    if kind == "fields":
        rows.insert(at, row + ["extra"] if rng.random() < 0.5 else row[:-1])
    elif kind == "float":
        rows[k][-1] = ["x1", "", "0.5.5", "1,0", "0x1p-2"][rng.integers(5)]
    elif kind in ("duplicate", "truth-repeated"):
        rows.insert(at, row[:-1] + [str(rng.random())])
    elif kind in ("weight", "truth-range"):
        rows[k][-1] = ["1.5", "-0.25", "nan", "inf", "-inf", "1.0000000000000002"][rng.integers(6)]
    elif kind == "self-edge":
        rows.insert(at, [row[0], row[0], row[-1]])
    elif kind == "reversed":
        rows.insert(at, [row[1], row[0], str(rng.random())])


MESSAGES = ["header", "fields", "cannot parse", "duplicate assessment", "duplicate ownership",
            "duplicate social", "weight out of range", "self-edge", "unknown item", "twice",
            "truth value"]


class TestFaultsMatchReference:
    def test_random_single_and_multiple_faults(self, tmp_path):
        rng = np.random.default_rng(14)
        raised = set()
        for case in range(400):
            path = tmp_path / f"b{case}"
            save_dataset(random_dataset(rng), path)
            files = {p.name: read_rows(p) for p in path.glob("*.csv")}
            for _ in range(1 if case % 2 else int(rng.integers(2, 5))):
                add_fault(rng, files)
            if rng.random() < 0.5:
                add_blank_lines(rng, files)
            for name, rows in files.items():
                write_rows(path / name, rows)
            if rng.random() < 0.3:
                (path / "manifest.json").unlink()
            expected = outcome(lambda: dataset_bytes(reference_load_dataset(path)))
            assert outcome(lambda: dataset_bytes(load_dataset(path))) == expected
            raised.update(m for m in MESSAGES if expected[0] != "ok" and m in expected[1])
        assert raised == set(MESSAGES)  # the faults reach every check

    def test_build_graph_faults(self):
        rng = np.random.default_rng(15)
        for _ in range(400):
            lists = list(random_inputs(rng)[:3])
            for _ in range(int(rng.integers(1, 4))):
                which = int(rng.integers(3))
                entries = lists[which]
                if not entries:
                    continue
                u, i, w = entries[rng.integers(len(entries))]
                bad = [(u, i, rng.random()), (u, i, float("nan")), (u, i, -0.5), (u, i, 2),
                       (u, u, 0.5), (i, u, 0.5)][rng.integers(6)]
                entries.insert(int(rng.integers(len(entries) + 1)), bad)
            assert outcome(lambda: graph_bytes(build_graph(*lists))) == \
                outcome(lambda: graph_bytes(reference_build_graph(*lists)))

    def test_build_graph_faults_as_given(self):
        # Int ids and int or np.float64 weights: each message shows its entry as
        # the reference does, the given objects for an assessment or ownership
        # weight and the ids as text for a social tie.
        KINDS = ("assessment", "ownership", "social")
        rng = np.random.default_rng(16)
        codes = {}
        as_int = lambda name: codes.setdefault(name, len(codes))
        as_given = lambda w: int(w) if w in (0.0, 1.0) and rng.random() < 0.5 else np.float64(w)
        raised = set()
        for _ in range(400):
            lists = [[(as_int(a), as_int(b), as_given(w)) for a, b, w in entries]
                     for entries in random_inputs(rng)[:3]]
            for _ in range(int(rng.integers(1, 4))):
                entries = lists[int(rng.integers(3))]
                if not entries:
                    continue
                u, i, w = entries[rng.integers(len(entries))]
                bad = [(u, i, np.float64(rng.random())), (u, i, np.float64("nan")), (u, i, -1),
                       (u, i, 2), (u, u, 1), (i, u, np.float64(0.5))][rng.integers(6)]
                entries.insert(int(rng.integers(len(entries) + 1)), bad)
            expected = outcome(lambda: graph_bytes(reference_build_graph(*lists)))
            assert outcome(lambda: graph_bytes(build_graph(*lists))) == expected
            if expected[0] != "ok":
                raised.add(expected[1].partition("(")[0])
        assert raised == {f"duplicate {kind} entry for " for kind in KINDS} | {
            f"{kind} weight out of range [0, 1] in entry " for kind in KINDS} | {
            "self-edge in social list: "}  # the faults reach every message
