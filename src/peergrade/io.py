"""Serialization: dataset bundles (CSV), configs and results (canonical JSON).

A dataset bundle is a directory holding ``assessments.csv`` and ``truth.csv``
(always), ``ownership.csv`` and ``social.csv`` (only when nonempty), and a
``manifest.json`` recording the full node-id universe.  CSV headers are
mandatory and exact; floats are written with 17 significant digits so every
round trip is bit-exact.  JSON documents are canonical: sorted keys, compact
separators, newline-terminated, unknown fields rejected.
"""

from __future__ import annotations

import csv
from itertools import repeat
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import SchemaError, ValidationError
from .graph import Dataset, GroundTruth, _outside_unit, _raise_first, _repeated, build_graph
from .harness import ExperimentReport, SplitConfig, SweepSpec
from .model import TrainConfig
from .schema import (
    canonical_json,  # re-exported: the CLI writes its stdout with it
    document_body,
    document_json,
    expect,
    expect_list,
    from_doc,
    read_document,
    reject_unknown,
)
from .synthetic import ScenarioConfig, default_scenario, strategic_scenario

ASSESSMENT_HEADER = ["grader_id", "item_id", "grade"]
OWNERSHIP_HEADER = ["user_id", "item_id", "weight"]
SOCIAL_HEADER = ["user_a", "user_b", "weight"]
TRUTH_HEADER = ["item_id", "value"]


def _text(values: np.ndarray) -> list[str]:
    return [f"{x:.17g}" for x in values.tolist()]


def _write_csv(path: Path, header: list[str], *columns) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


# --- dataset bundles ----------------------------------------------------------

def save_dataset(dataset: Dataset, path) -> None:
    """Write a bundle such that :func:`load_dataset` restores it exactly."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    graph = dataset.graph

    def write_relation(name, header, col_ids, rows, cols, vals) -> None:
        order = np.lexsort((cols, rows))
        _write_csv(out / name, header,
                   [graph.user_ids[k] for k in rows[order].tolist()],
                   [col_ids[k] for k in cols[order].tolist()], _text(vals[order]))

    ac = graph.A.tocoo()
    write_relation("assessments.csv", ASSESSMENT_HEADER, graph.item_ids, ac.row, ac.col, ac.data)

    oc = graph.O.tocoo()
    if oc.nnz:
        write_relation("ownership.csv", OWNERSHIP_HEADER, graph.item_ids, oc.row, oc.col, oc.data)

    sc = graph.S.tocoo()
    if sc.nnz:
        upper = sc.row < sc.col  # undirected edges written once
        write_relation("social.csv", SOCIAL_HEADER, graph.user_ids,
                       sc.row[upper], sc.col[upper], sc.data[upper])

    known = np.flatnonzero(dataset.truth.mask)
    _write_csv(out / "truth.csv", TRUTH_HEADER,
               [graph.item_ids[k] for k in known.tolist()], _text(dataset.truth.v[known]))

    manifest = {"n": graph.n, "m": graph.m,
                "user_ids": list(graph.user_ids), "item_ids": list(graph.item_ids)}
    (out / "manifest.json").write_text(document_json("dataset-bundle", manifest), encoding="utf-8")


def _utf8_error(path: Path) -> SchemaError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return SchemaError(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    return SchemaError(f"{path}: not UTF-8 text")  # changed while being read


def _read_csv(path: Path, header: list[str], required: bool) -> list:
    """Columns of a CSV: a list of strings per field, the last field as float64.

    Blank lines are skipped.  The line named by a row's error counts CSV
    records, the header being 1; that of an undecodable byte or a
    ``csv.Error`` counts physical lines.
    """
    width = len(header)
    if not path.exists():
        if required:
            raise ValidationError(f"missing required file {path}")
        return [[] for _ in header[1:]] + [np.empty(0)]
    try:
        with path.open("r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got is None:
                raise SchemaError(f"{path}: empty file, expected header {','.join(header)}")
            if got != header:
                raise SchemaError(f"{path}: expected header {','.join(header)}, got {','.join(got)}")
            rows = list(reader)
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None

    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    wrong = np.flatnonzero((lengths != width) & (lengths != 0))
    end = int(wrong[0]) if wrong.size else len(rows)  # rows after a wrong one are never read
    rows = [row for row in rows[:end] if row]
    columns = [[row[k] for row in rows] for k in range(width)]
    try:
        values = np.fromiter(map(float, columns[-1]), np.float64, len(columns[-1]))
    except ValueError:
        lines = np.flatnonzero(lengths[:end]) + 2
        for line, value in zip(lines.tolist(), columns[-1]):
            try:
                float(value)
            except ValueError:
                raise SchemaError(f"{path}:{line}: cannot parse {value!r} as a number") from None
    if wrong.size:
        raise SchemaError(f"{path}:{end + 2}: expected {width} fields, got {lengths[end]}")
    return columns[:-1] + [values]


def _triples(columns: list) -> Iterable[tuple]:
    """The rows of :func:`_read_csv`'s columns, as :func:`build_graph` takes them."""
    *ids, weights = columns
    return zip(*ids, weights.tolist())


def load_dataset(path, scale_max: Optional[float] = None) -> Dataset:
    """Load a bundle; with ``scale_max`` all grades and truths are divided by it."""
    root = Path(path)
    if not root.is_dir():
        raise ValidationError(f"dataset bundle {root} is not a directory")
    if scale_max is not None and scale_max <= 0:
        raise ValidationError(f"scale maximum must be positive, got {scale_max}")

    assessments = _read_csv(root / "assessments.csv", ASSESSMENT_HEADER, required=True)
    ownership = _read_csv(root / "ownership.csv", OWNERSHIP_HEADER, required=False)
    social = _read_csv(root / "social.csv", SOCIAL_HEADER, required=False)
    truth_items, values = _read_csv(root / "truth.csv", TRUTH_HEADER, required=True)

    declared_users: list[str] = []
    declared_items: list[str] = []
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        manifest = read_document(manifest_path, "dataset-bundle")
        reject_unknown(manifest, {"n", "m", "user_ids", "item_ids"}, "/")
        declared_users = [str(u) for u in expect(manifest.get("user_ids", []), list, "/user_ids")]
        declared_items = [str(i) for i in expect(manifest.get("item_ids", []), list, "/item_ids")]
        for key, ids, name in (("n", declared_users, "user_ids"), ("m", declared_items, "item_ids")):
            if key in manifest and expect(manifest[key], int, f"/{key}") != len(ids):
                raise SchemaError(f"/{key}: {manifest[key]} does not match the "
                                  f"{len(ids)} entries of /{name}")

    if scale_max is not None:
        assessments[-1] = assessments[-1] / scale_max
        values = values / scale_max

    graph = build_graph(
        assessments=_triples(assessments),
        ownerships=_triples(ownership),
        social=_triples(social),
        users=declared_users,
        items=declared_items,
    )

    item_index = {item_id: j for j, item_id in enumerate(graph.item_ids)}
    idx = np.fromiter(map(item_index.get, truth_items, repeat(-1)), np.int64, len(truth_items))
    _raise_first(
        (idx < 0, lambda k: ValidationError(f"truth.csv references unknown item {truth_items[k]!r}")),
        (_repeated(idx), lambda k: ValidationError(f"truth.csv lists item {truth_items[k]!r} twice")),
        (_outside_unit(values),
         lambda k: ValidationError(f"truth value {float(values[k])} for item "
                                   f"{truth_items[k]!r} outside [0, 1]")),
    )
    v = np.full(graph.m, np.nan)
    v[idx] = values
    mask = np.zeros(graph.m, dtype=bool)
    mask[idx] = True
    return Dataset(graph=graph, truth=GroundTruth(v, mask), split=None)


# --- config documents ---------------------------------------------------------

PRESETS = {"default": default_scenario, "strategic": strategic_scenario}


def _config(cls, obj, where: str):
    """``from_doc`` on ``obj`` minus any envelope keys it carries."""
    return from_doc(cls, document_body(obj, where), where)


def parse_scenario_config(obj: dict, where: str = "") -> ScenarioConfig:
    """Parse a scenario object: optional preset plus field overrides."""
    body = document_body(obj, where)
    preset = expect(body.pop("preset", "default"), str, f"{where}/preset")
    if preset not in PRESETS:
        raise SchemaError(f"{where}/preset: expected 'default' or 'strategic', got {preset!r}")
    return from_doc(ScenarioConfig, body, where, PRESETS[preset]())


def load_scenario_config(path) -> ScenarioConfig:
    return parse_scenario_config(read_document(path, "scenario-config"))


def load_train_config(path) -> TrainConfig:
    return from_doc(TrainConfig, read_document(path, "train-config"))


def load_split_config(path) -> SplitConfig:
    return from_doc(SplitConfig, read_document(path, "split-config"))


def load_sweep_document(path) -> tuple[SweepSpec, list[str], SplitConfig, TrainConfig]:
    doc = read_document(path, "sweep-spec")
    reject_unknown(doc, {"param", "grid", "base", "methods", "split", "train"}, "/")
    param = expect(doc.get("param"), str, "/param")
    grid = doc.get("grid")
    expect_list(grid, float, "/grid")  # checked only: the CSV echoes each value as given
    base = parse_scenario_config(doc.get("base", {}), where="/base")
    methods = expect_list(doc.get("methods", ["gcn-soan", "average"]), str, "/methods")
    split_cfg = _config(SplitConfig, doc.get("split", {}), "/split")
    train_cfg = _config(TrainConfig, doc.get("train", {}), "/train")
    spec = SweepSpec(param=param, grid=tuple(grid), base=base)
    return spec, methods, split_cfg, train_cfg


# --- results ------------------------------------------------------------------

def write_results(report: ExperimentReport, path) -> None:
    """Persist a report as canonical JSON (timing included)."""
    Path(path).write_text(report.canonical_json(include_timing=True), encoding="utf-8")


def read_results(path) -> ExperimentReport:
    return from_doc(ExperimentReport, read_document(path, "experiment-report"))
