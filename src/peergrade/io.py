"""Serialization: dataset bundles (CSV) and configs (canonical JSON).

A dataset bundle is a directory holding ``assessments.csv`` and ``truth.csv``
(always), ``ownership.csv`` and ``social.csv`` (only when nonempty: a save
removes an older copy), and a ``manifest.json`` recording the full node-id
universe.  CSV headers are mandatory and exact; floats are written with 17
significant digits so every round trip is bit-exact.  JSON documents are
canonical: sorted keys, compact separators, newline-terminated, unknown fields
rejected.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .errors import SchemaError, ValidationError
from .graph import (
    Dataset,
    GroundTruth,
    _Coded,
    _Columns,
    _coded,
    _indices,
    _outside_unit,
    _raise_first,
    _repeated,
    build_graph,
)
from .harness import METHOD_AVERAGE, METHOD_GCN, SplitConfig, SweepSpec
from .model import TrainConfig
from .schema import (
    canonical_json,  # re-exported: the CLI writes its stdout with it
    document_body,
    document_json,
    expect,
    from_doc,
    read_document,
    to_doc,
)
from .synthetic import ScenarioConfig, default_scenario, strategic_scenario

ASSESSMENT_HEADER = ["grader_id", "item_id", "grade"]
OWNERSHIP_HEADER = ["user_id", "item_id", "weight"]
SOCIAL_HEADER = ["user_a", "user_b", "weight"]
TRUTH_HEADER = ["item_id", "value"]
_QUOTED = re.compile('[,"\r\n]')  # all that makes csv.writer's default dialect quote a field


def _encoded(ids: Sequence) -> list[str]:
    """Each id taken with ``str()`` as ``csv.writer`` writes it inside a row."""
    writer = csv.writer(SimpleNamespace(write=str))  # writerow returns the row's text
    return [writer.writerow((s, ""))[:-3] if _QUOTED.search(s) else s  # minus ",\r\n"
            for s in map(str, ids)]


def _numbers(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct texts ``f"{v:.17g}"`` of ``values`` and the code of each value.

    Bits, not values, are deduplicated, so that ``-0.0`` stays ``-0``.
    """
    bits, codes = np.unique(np.ascontiguousarray(values, np.float64).view(np.int64),
                            return_inverse=True)
    return [f"{v:.17g}" for v in bits.view(np.float64).tolist()], codes


def _write_csv(path: Path, header: list[str], *columns: tuple[Sequence[str], np.ndarray]) -> None:
    """Write ``header`` and a line per code of the ``(texts, codes)`` columns, joined once.

    Each distinct text takes its separator once, ``\r\n`` in the last column."""
    width = len(columns)
    parts = [""] * (width * len(columns[0][1]))
    for k, (texts, codes) in enumerate(columns):
        sep = "\r\n" if k == width - 1 else ","
        parts[k::width] = np.array([text + sep for text in texts], dtype=object)[codes].tolist()
    path.write_text(",".join(header) + "\r\n" + "".join(parts), encoding="utf-8", newline="")


# --- dataset bundles ----------------------------------------------------------

@dataclass(frozen=True)
class _Manifest:
    user_ids: list = field(default_factory=list)  # the node-id universe, entries taken with str()
    item_ids: list = field(default_factory=list)
    n: Optional[int] = None  # when given, the number of distinct user_ids
    m: Optional[int] = None


def save_dataset(dataset: Dataset, path) -> None:
    """Write a bundle that :func:`load_dataset` restores exactly if the ids are sorted text.

    A loaded bundle lists its ids as text in sorted order, as :func:`build_graph` makes them."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    graph = dataset.graph
    users, items = _encoded(graph.user_ids), _encoded(graph.item_ids)

    # S is written as its upper triangle: each undirected edge once.
    for name, header, col_ids, mat in (("assessments.csv", ASSESSMENT_HEADER, items, graph.A),
                                       ("ownership.csv", OWNERSHIP_HEADER, items, graph.O),
                                       ("social.csv", SOCIAL_HEADER, users, sp.triu(graph.S, 1))):
        if not mat.nnz and name != "assessments.csv":
            (out / name).unlink(missing_ok=True)  # else an earlier save's file would be loaded
            continue
        coo = mat.tocoo()  # row-major, as the relations are canonical
        _write_csv(out / name, header, (users, coo.row), (col_ids, coo.col), _numbers(coo.data))

    known = np.flatnonzero(dataset.truth.mask)
    _write_csv(out / "truth.csv", TRUTH_HEADER, (items, known), _numbers(dataset.truth.v[known]))

    manifest = to_doc(_Manifest(graph.user_ids, graph.item_ids, graph.n, graph.m))
    (out / "manifest.json").write_text(document_json("dataset-bundle", manifest), encoding="utf-8")


# _MASKS[k] keeps the top k bytes of a big-endian word; a table, since shifting
# a uint64 by 64 bits is undefined in numpy.
_MASKS = np.array([2**64 - 2**(64 - 8 * k) for k in range(9)], np.uint64)


def _field_ends(body: bytes, width: int) -> Optional[np.ndarray]:
    """Where each field of ``body`` ends, if each line ends its ``width``-th field, else None.

    None also when a field is over the field limit.  The limit counts
    characters, so a field of more bytes than that is refused even where
    ``csv.reader`` would take it.
    """
    raw = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if ends.size % width:
        return None
    if ends.size and np.diff(ends).max(initial=ends[0] + 1) > csv.field_size_limit() + 1:
        return None
    line = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
    return None if (raw[ends].reshape(-1, width) != line).any() else ends


def _encode(words: np.ndarray, starts: np.ndarray,
            lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary codes of the fields at ``starts``, and the index of one field per code.

    ``words[i]`` is the big-endian word of bytes ``i`` to ``i + 7``.  Fields
    get codes by their first word, zero past their end; each further word
    splits the codes of the fields still that long.  Fields hold no NUL, so
    the padding never makes two unequal fields equal.
    """
    _, codes = np.unique(words[starts] & _MASKS[np.minimum(lengths, 8)], return_inverse=True)
    live, offset = np.flatnonzero(lengths > 8), 8
    while live.size:
        keys = words[starts[live] + offset] & _MASKS[np.minimum(lengths[live] - offset, 8)]
        order = np.lexsort((keys, codes[live]))
        live, keys, old = live[order], keys[order], codes[live[order]]
        runs = np.ones(live.size, bool)
        runs[1:] = (old[1:] != old[:-1]) | (keys[1:] != keys[:-1])
        codes[live] = codes.max() + np.cumsum(runs)
        offset += 8
        live = live[lengths[live] > offset]
    if offset > 8:
        _, codes = np.unique(codes, return_inverse=True)
    one = np.zeros(codes.max(initial=-1) + 1, np.int64)
    one[codes] = np.arange(codes.size)  # any field of a code will do
    return codes, one


def _decoded(raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The fields ``raw[start:start + length]`` as text, decoded in one piece.

    Each field is taken with the byte after it, made a ``\n``: no field holds one.
    """
    sizes = lengths + 1
    ends = np.cumsum(sizes)
    picked = raw[np.arange(sizes.sum()) + np.repeat(starts - ends + sizes, sizes)]
    picked[ends - 1] = ord("\n")
    return picked.tobytes().decode("utf-8").split("\n")[:-1]


def _flat_columns(data: bytes, header: list[str]) -> Optional[list]:
    """:func:`_read_csv`'s columns of a file that needs no quoting rules, else None.

    That is a file with no ``"``, no NUL and no ``\r`` outside ``\r\n``,
    the exact header line, ``width - 1`` commas on every other non-blank
    line, no field over ``csv.field_size_limit()`` and a number in every last
    field.  ``csv.reader`` splits such a file at each comma and line end.
    Each column is dictionary-encoded by :func:`_encode`, so the distinct
    fields alone are decoded (in one piece: separators are ASCII, so the body
    is UTF-8 exactly when every field is) and the distinct numbers alone are
    parsed.
    """
    if b'"' in data or b"\0" in data or data.count(b"\r") != data.count(b"\r\n"):
        return None
    head, _, body = data.partition(b"\n")
    if head.removesuffix(b"\r") != ",".join(header).encode():
        return None
    if body and not body.endswith(b"\n"):
        body += b"\n"
    width = len(header)
    ends = _field_ends(body, width)
    if ends is None:
        body = re.sub(rb"(?m)^\r?\n", b"", body)  # csv.reader skips blank lines
        ends = _field_ends(body, width)
        if ends is None:
            return None
    raw = np.frombuffer(body, np.uint8)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    # A \r is always that of a \r\n; an empty first field reads raw[-1], the last \n.
    lengths = ends - (raw[ends - 1] == ord("\r")) - starts
    words = np.ndarray((len(body),), ">u8", body + bytes(8), strides=(1,))
    columns = []
    for field_starts, field_lengths in zip(starts.reshape(-1, width).T,
                                           lengths.reshape(-1, width).T):
        codes, one = _encode(words, field_starts, field_lengths)
        try:
            columns.append(_Coded(_decoded(raw, field_starts[one], field_lengths[one]), codes))
        except UnicodeDecodeError:
            return None
    *ids, numbers = columns
    try:
        values = np.fromiter(map(float, numbers.names), np.float64, len(numbers.names))
    except ValueError:
        return None
    return ids + [values[numbers.codes]]


def _read_csv(path: Path, header: list[str], required: bool) -> list:
    """Columns of a CSV: a ``_Coded`` id column per field, the last field as float64.

    The file is read once.  One that needs no quoting rules is split by
    :func:`_flat_columns`; any other is decoded whole (a byte that is not UTF-8
    is its first error) and goes through ``csv.reader``, which raises the rest.
    Blank lines are skipped.  A row's error line counts CSV records, the header
    being 1; that of an undecodable byte or a ``csv.Error`` counts physical lines.
    """
    width = len(header)
    if not path.exists():
        if required:
            raise ValidationError(f"missing required file {path}")
        return [_coded([]) for _ in header[1:]] + [np.empty(0)]
    data = path.read_bytes()
    columns = _flat_columns(data, header)
    if columns is not None:
        return columns
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        got = next(reader, None)
        if got is None:
            raise SchemaError(f"{path}: empty file, expected header {','.join(header)}")
        if got != header:
            raise SchemaError(f"{path}: expected header {','.join(header)}, got {','.join(got)}")
        rows = list(reader)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
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
    return [_coded(ids) for ids in columns[:-1]] + [values]


def load_dataset(path, scale_max: Optional[float] = None) -> Dataset:
    """Load a bundle; with ``scale_max`` all grades and truths are divided by it."""
    if scale_max is not None and not 0 < scale_max < np.inf:  # nan fails both
        raise ValidationError(f"scale maximum must be finite and positive, got {scale_max}")
    root = Path(path)
    if not root.is_dir():
        raise ValidationError(f"dataset bundle {root} is not a directory")

    graders, graded, grades = _read_csv(root / "assessments.csv", ASSESSMENT_HEADER, required=True)
    ownership = _read_csv(root / "ownership.csv", OWNERSHIP_HEADER, required=False)
    social = _read_csv(root / "social.csv", SOCIAL_HEADER, required=False)
    truth_items, values = _read_csv(root / "truth.csv", TRUTH_HEADER, required=True)

    manifest = _Manifest()
    if (root / "manifest.json").exists():
        manifest = from_doc(_Manifest, read_document(root / "manifest.json", "dataset-bundle"))
    declared_users = list(map(str, manifest.user_ids))
    declared_items = list(map(str, manifest.item_ids))
    for key, ids, name in (("n", declared_users, "user_ids"), ("m", declared_items, "item_ids")):
        _raise_first((_repeated(np.array(ids, dtype=object)), lambda k: SchemaError(
            f"/{name}/{k}: {ids[k]!r} repeats /{name}/{ids.index(ids[k])}")))  # n, m count ids once
        count = getattr(manifest, key)
        if count is not None and count != len(ids):
            raise SchemaError(f"/{key}: {count} does not match the {len(ids)} entries of /{name}")

    if scale_max is not None:
        grades = grades / scale_max
        values = values / scale_max

    graph = build_graph(
        assessments=_Columns(graders, graded, grades),
        ownerships=_Columns(*ownership),
        social=_Columns(*social),
        users=declared_users,
        items=declared_items,
    )

    idx = _indices({item_id: j for j, item_id in enumerate(graph.item_ids)}, truth_items)
    _raise_first(
        (idx < 0,
         lambda k: ValidationError(f"truth.csv references unknown item {truth_items.at(k)!r}")),
        (_repeated(idx),
         lambda k: ValidationError(f"truth.csv lists item {truth_items.at(k)!r} twice")),
        (_outside_unit(values),
         lambda k: ValidationError(f"truth value {float(values[k])} for item "
                                   f"{truth_items.at(k)!r} outside [0, 1]")),
    )
    v = np.full(graph.m, np.nan)
    v[idx] = values  # none is NaN, so NaN marks exactly the unknown items
    return Dataset(graph=graph, truth=GroundTruth(v, ~np.isnan(v)), split=None)


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
        raise SchemaError(f"{where}/preset: expected {' or '.join(map(repr, PRESETS))}, got {preset!r}")
    return from_doc(ScenarioConfig, body, where, PRESETS[preset]())


def load_scenario_config(path) -> ScenarioConfig:
    return parse_scenario_config(read_document(path, "scenario-config"))


def load_train_config(path) -> TrainConfig:
    return from_doc(TrainConfig, read_document(path, "train-config"))


def load_split_config(path) -> SplitConfig:
    return from_doc(SplitConfig, read_document(path, "split-config"))


@dataclass(frozen=True)
class _SweepDocument:
    param: str
    grid: list[Union[int, float]]  # each value kept as written: the CSV echoes it
    base: dict = field(default_factory=dict)  # base, split, train: each read as its own document
    methods: list[str] = field(default_factory=lambda: [METHOD_GCN, METHOD_AVERAGE])
    split: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)


def load_sweep_document(path) -> tuple[SweepSpec, list[str], SplitConfig, TrainConfig]:
    doc = from_doc(_SweepDocument, read_document(path, "sweep-spec"))
    base = parse_scenario_config(doc.base, where="/base")
    split_cfg = _config(SplitConfig, doc.split, "/split")
    train_cfg = _config(TrainConfig, doc.train, "/train")
    return SweepSpec(param=doc.param, grid=doc.grid, base=base), doc.methods, split_cfg, train_cfg
