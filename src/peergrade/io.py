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
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import SchemaError, ValidationError
from .graph import Dataset, GroundTruth, build_graph
from .harness import ExperimentReport, SplitConfig, SweepSpec
from .model import TrainConfig
from .schema import (
    SCHEMA_VERSION,
    canonical_json,
    expect,
    expect_list,
    from_doc,
    read_json_document,
    reject_unknown,
)
from .synthetic import ScenarioConfig, default_scenario, strategic_scenario

ASSESSMENT_HEADER = ["grader_id", "item_id", "grade"]
OWNERSHIP_HEADER = ["user_id", "item_id", "weight"]
SOCIAL_HEADER = ["user_a", "user_b", "weight"]
TRUTH_HEADER = ["item_id", "value"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SchemaError(f"{where}: cannot parse {text!r} as a number") from None


# --- dataset bundles ----------------------------------------------------------

def save_dataset(dataset: Dataset, path) -> None:
    """Write a bundle such that :func:`load_dataset` restores it exactly."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    graph = dataset.graph

    def write_rows(name: str, header: list[str], rows) -> None:
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
        upper = sc.row < sc.col  # undirected edges written once
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


def _read_csv(path: Path, header: list[str], required: bool):
    """Parse rows as (*string columns, float last column) tuples."""
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
    truth_rows = _read_csv(root / "truth.csv", TRUTH_HEADER, required=True)

    declared_users: list[str] = []
    declared_items: list[str] = []
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        manifest = read_json_document(manifest_path, expected_kind="dataset-bundle")
        reject_unknown(manifest, {"schema_version", "kind", "n", "m", "user_ids", "item_ids"}, "/")
        declared_users = [str(u) for u in expect(manifest.get("user_ids", []), list, "/user_ids")]
        declared_items = [str(i) for i in expect(manifest.get("item_ids", []), list, "/item_ids")]

    if scale_max is not None:
        assessments = [(u, i, g / scale_max) for u, i, g in assessments]
        truth_rows = [(i, v / scale_max) for i, v in truth_rows]

    graph = build_graph(
        assessments=assessments,
        ownerships=ownership,
        social=social,
        users=declared_users,
        items=declared_items,
    )

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


# --- config documents ---------------------------------------------------------

ENVELOPE = ("schema_version", "kind")
PRESETS = {"default": default_scenario, "strategic": strategic_scenario}


def _config(cls, obj, where: str, base=None, envelope=ENVELOPE):
    """``from_doc`` on ``obj`` minus its document envelope keys."""
    expect(obj, dict, where)
    return from_doc(cls, {k: v for k, v in obj.items() if k not in envelope}, where, base)


def parse_scenario_config(obj: dict, where: str = "") -> ScenarioConfig:
    """Parse a scenario object: optional preset plus field overrides."""
    preset = expect(obj, dict, where).get("preset", "default")
    if preset not in PRESETS:
        raise SchemaError(f"{where}/preset: expected 'default' or 'strategic', got {preset!r}")
    return _config(ScenarioConfig, obj, where, PRESETS[preset](), (*ENVELOPE, "preset"))


def load_scenario_config(path) -> ScenarioConfig:
    return parse_scenario_config(read_json_document(path, expected_kind="scenario-config"))


def load_train_config(path) -> TrainConfig:
    return _config(TrainConfig, read_json_document(path, expected_kind="train-config"), "")


def load_split_config(path) -> SplitConfig:
    return _config(SplitConfig, read_json_document(path, expected_kind="split-config"), "")


def load_sweep_document(path) -> tuple[SweepSpec, list[str], SplitConfig, TrainConfig]:
    doc = read_json_document(path, expected_kind="sweep-spec")
    allowed = {"schema_version", "kind", "param", "grid", "base", "methods", "split", "train"}
    reject_unknown(doc, allowed, "/")
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
    doc = read_json_document(path, expected_kind="experiment-report")
    return _config(ExperimentReport, {"wall_clock_seconds": 0.0, **doc}, "")
