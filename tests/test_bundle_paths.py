"""The two ways a bundle CSV is read give the same bundle and the same errors.

A file that needs no quoting rules is read as dictionary-encoded columns by
whole-array code; any other goes through ``csv.reader``.  Each CSV of a
random bundle is written in several ways, one of them quoting every field so
that it must take the ``csv.reader`` path, and every way must load the same
bits or raise the same exception class with the same message.
"""

import csv

import numpy as np
import pytest

from peergrade import Dataset, GroundTruth, build_graph, load_dataset, save_dataset
from peergrade.io import ASSESSMENT_HEADER, OWNERSHIP_HEADER, SOCIAL_HEADER, TRUTH_HEADER
from test_bundle_reference import (
    ODD_IDS,
    add_blank_lines,
    add_fault,
    dataset_bytes,
    outcome,
    random_dataset,
    read_rows,
    reference_load_dataset,
    reference_save_dataset,
    tree_bytes,
)


def write_csv(path, rows, **dialect):
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, **dialect).writerows(rows)


def without_final_newline(path, rows):
    write_csv(path, rows)
    path.write_bytes(path.read_bytes().removesuffix(b"\r\n"))


WRITINGS = {
    "crlf": write_csv,
    "lf": lambda path, rows: write_csv(path, rows, lineterminator="\n"),
    "no final newline": without_final_newline,
    "quote all": lambda path, rows: write_csv(path, rows, quoting=csv.QUOTE_ALL),
}


def write_bundle(path, saved, files, writing):
    """Write ``files``' rows into ``path`` one way, beside a copy of ``saved``'s manifest.

    Each writing of a case goes to the same path, so that errors name the same file.
    """
    path.mkdir(exist_ok=True)
    if saved is not None:
        (path / "manifest.json").write_bytes((saved / "manifest.json").read_bytes())
    for csv_name, rows in files.items():
        WRITINGS[writing](path / csv_name, rows)
    return path


class TestBothPathsAgree:
    def test_every_writing_loads_the_saved_bundle(self, tmp_path):
        rng = np.random.default_rng(21)
        for case in range(150):
            dataset = random_dataset(rng)
            saved = tmp_path / f"saved{case}"
            save_dataset(dataset, saved)
            files = {p.name: read_rows(p) for p in saved.glob("*.csv")}
            expected = dataset_bytes(dataset)
            assert dataset_bytes(load_dataset(saved)) == expected
            for writing in WRITINGS:
                path = write_bundle(tmp_path / f"w{case}", saved, files, writing)
                assert dataset_bytes(load_dataset(path)) == expected, writing
            add_blank_lines(rng, files)
            for writing in ("crlf", "lf"):
                path = write_bundle(tmp_path / f"w{case}", saved, files, writing)
                assert dataset_bytes(load_dataset(path)) == expected, writing

    def test_faults_raise_alike_on_every_writing(self, tmp_path):
        rng = np.random.default_rng(22)
        for case in range(300):
            saved = tmp_path / f"saved{case}"
            save_dataset(random_dataset(rng), saved)
            files = {p.name: read_rows(p) for p in saved.glob("*.csv")}
            for _ in range(1 if case % 2 else int(rng.integers(2, 4))):
                add_fault(rng, files)
            if rng.random() < 0.5:
                add_blank_lines(rng, files)
            path = tmp_path / f"w{case}"
            outcomes = {
                writing: outcome(lambda: dataset_bytes(load_dataset(
                    write_bundle(path, saved, files, writing))))
                for writing in WRITINGS}
            assert len(set(map(repr, outcomes.values()))) == 1, outcomes

    @pytest.mark.parametrize("field", ["x" * csv.field_size_limit(), "é" * csv.field_size_limit(),
                                       "x" * (csv.field_size_limit() + 1)])
    def test_fields_at_the_size_limit(self, tmp_path, field):
        files = {"assessments.csv": [ASSESSMENT_HEADER, [field, "i", "0.5"]],
                 "truth.csv": [TRUTH_HEADER, ["i", "0.25"]]}
        got, quoted = (outcome(lambda: dataset_bytes(load_dataset(
            write_bundle(tmp_path, None, files, writing)))) for writing in ("crlf", "quote all"))
        assert got == quoted
        assert (got[0] == "ok") == (len(field) <= csv.field_size_limit())


def refuse_csv_reader(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("csv.reader called")
    monkeypatch.setattr(csv, "reader", refused)


def count_csv_reader(monkeypatch) -> list:
    calls, reader = [], csv.reader

    def counted(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)
    monkeypatch.setattr(csv, "reader", counted)
    return calls


def plain_dataset(rng):
    """A random dataset whose ids need no quoting."""
    while True:
        dataset = random_dataset(rng)
        ids = dataset.graph.user_ids + dataset.graph.item_ids
        if not any(c in i for i in ids for c in ',"\r\n\0'):
            return dataset


class TestPathTaken:
    @pytest.mark.parametrize("writing", ["crlf", "lf", "no final newline", "blank lines"])
    def test_quote_free_bundle_never_calls_csv_reader(self, tmp_path, monkeypatch, writing):
        rng = np.random.default_rng(23)
        for case in range(20):
            dataset = plain_dataset(rng)
            saved = tmp_path / f"saved{case}"
            save_dataset(dataset, saved)
            files = {p.name: read_rows(p) for p in saved.glob("*.csv")}
            if writing == "blank lines":
                add_blank_lines(rng, files)
            path = write_bundle(tmp_path / f"w{case}", saved, files,
                                "crlf" if writing == "blank lines" else writing)
            with monkeypatch.context() as patch:
                refuse_csv_reader(patch)
                loaded = load_dataset(path)
            assert dataset_bytes(loaded) == dataset_bytes(dataset)

    def test_quoted_file_takes_csv_reader(self, tmp_path, monkeypatch):
        graph = build_graph([("a,b", "i1", 0.5), ("u2", "i1", 0.25)])
        dataset = Dataset(graph=graph, truth=GroundTruth.full([0.75]))
        save_dataset(dataset, tmp_path)
        assert b'"a,b"' in (tmp_path / "assessments.csv").read_bytes()
        calls = count_csv_reader(monkeypatch)
        assert dataset_bytes(load_dataset(tmp_path)) == dataset_bytes(dataset)
        assert len(calls) == 1  # assessments.csv only; truth.csv is quote-free


class TestOddIds:
    def test_every_odd_id_saves_the_reference_bytes(self, tmp_path):
        users = [f"u{odd}" for odd in ODD_IDS]
        items = [f"i{odd}" for odd in ODD_IDS]
        rng = np.random.default_rng(24)
        graph = build_graph(
            [(u, i, float(rng.random())) for u in users for i in items[:3]],
            [(u, i, 0.5) for u, i in zip(users, items)],
            [(a, b, 1.0) for a, b in zip(users, users[1:])])
        dataset = Dataset(graph=graph, truth=GroundTruth.full(rng.random(graph.m)))
        save_dataset(dataset, tmp_path / "new")
        reference_save_dataset(dataset, tmp_path / "ref")
        assert tree_bytes(tmp_path / "new") == tree_bytes(tmp_path / "ref")
        loaded = load_dataset(tmp_path / "new")
        assert dataset_bytes(loaded) == dataset_bytes(dataset)
        assert dataset_bytes(loaded) == dataset_bytes(reference_load_dataset(tmp_path / "ref"))


# Ids at and around the 8-byte words the flat path compares fields by: of 0, 1,
# 7, 8, 9, 15, 16 and 17 bytes, sharing their first 8 or 16 bytes, prefixes of
# one another, and with a 2-byte UTF-8 character on bytes 7-8.
EDGE_IDS = ["", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmno", "abcdefghijklmnop",
            "abcdefghijklmnopq", "abcdefghX", "abcdefghijklmnopX", "u1", "u10", "u1\x01",
            "abcdefg\u00e9", "abcdefg\u00e8", "abcdefg\u00e9h"]
# Texts of equal value that must each be parsed on their own: -0 stays -0.0.
EDGE_NUMBERS = ["1", "1.0", "1e0", " 1", "0", "-0", "0.0", "-0.0", "0.5", ".5", "5e-1"]


def edge_files(rng):
    """Bundle rows over ``EDGE_IDS`` as users and as items, weights from ``EDGE_NUMBERS``."""
    ids, count = EDGE_IDS, len(EDGE_IDS)
    number = lambda: EDGE_NUMBERS[rng.integers(len(EDGE_NUMBERS))]
    rows = {"assessments.csv": [ASSESSMENT_HEADER], "ownership.csv": [OWNERSHIP_HEADER],
            "social.csv": [SOCIAL_HEADER], "truth.csv": [TRUTH_HEADER]}
    for a in rng.permutation(count):
        rows["assessments.csv"] += [[ids[a], ids[(a + d) % count], number()] for d in (0, 1, 3)]
        rows["ownership.csv"].append([ids[a], ids[a], number()])
        rows["social.csv"].append([ids[a], ids[(a + 1) % count], number()])
        rows["truth.csv"].append([ids[a], number()])
    return rows


class TestEncodedColumns:
    def test_edge_ids_and_numbers_load_as_csv_reader_and_reference(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(25)
        for case in range(20):
            files = edge_files(rng)
            path = write_bundle(tmp_path / f"b{case}", None, files, "quote all")
            expected = dataset_bytes(reference_load_dataset(path))
            assert dataset_bytes(load_dataset(path)) == expected
            negative = [row[0] for row in files["truth.csv"][1:] if row[1] in ("-0", "-0.0")]
            for writing in ("crlf", "lf", "no final newline"):
                write_bundle(path, None, files, writing)
                with monkeypatch.context() as patch:
                    refuse_csv_reader(patch)
                    loaded = load_dataset(path)
                assert dataset_bytes(loaded) == expected, writing
            v = loaded.truth.v[[loaded.graph.item_ids.index(i) for i in negative]]
            assert np.signbit(v).all() and not v.any()

    def test_faults_name_the_first_bad_entry(self, tmp_path):
        rng = np.random.default_rng(26)
        for case in range(150):
            files = edge_files(rng)
            for _ in range(int(rng.integers(1, 4))):
                add_fault(rng, files)
            path = tmp_path / f"b{case}"
            expected = outcome(lambda: dataset_bytes(reference_load_dataset(
                write_bundle(path, None, files, "quote all"))))
            for writing in WRITINGS:
                got = outcome(lambda: dataset_bytes(load_dataset(
                    write_bundle(path, None, files, writing))))
                assert got == expected, writing
