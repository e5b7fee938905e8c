"""Config documents: canonical JSON and one schema for every config dataclass.

:func:`to_doc` and :func:`from_doc` read the schema off the dataclass itself
(its fields and type hints), so each document is declared once.  Field
types map to JSON as follows: ``int``/``float``/``str``/``list``/``dict`` as
themselves, ``tuple[T, T]`` as a list of that length, ``list[T]`` as a list, a
nested dataclass as an object, and a ``Union`` of dataclasses as an object
tagged by each member's ``KIND`` (``None`` is ``{"kind": "none"}``); a
``Union`` of leaves, such as ``Union[int, float]`` or ``Optional[int]``, is
checked as ``float`` if that is a member, else as its first member, and kept as
written.  A wrong key or type is a :class:`SchemaError` naming the JSON pointer
of the offending value; range checks stay in each dataclass's
``__post_init__``, after :func:`check_integers`.

Every document file carries ``"schema_version": 1`` and its ``kind``; that
envelope is written by :func:`document_json` and checked and stripped by
:func:`read_document`, and no other module spells it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import sys
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

from .errors import SchemaError, ValidationError

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    """Sorted keys, compact separators, newline-terminated, no NaN/Inf."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def document_json(kind: str, body: dict) -> str:
    """Canonical JSON of a ``kind`` document: ``body`` under the version/kind envelope."""
    return canonical_json({"schema_version": SCHEMA_VERSION, "kind": kind, **body})


def document_body(obj, where: str = "") -> dict:
    """``obj`` checked as an object, minus the envelope keys (which nested objects may carry)."""
    return {k: v for k, v in expect(obj, dict, where).items() if k not in ("schema_version", "kind")}


def read_document(path, kind: str) -> dict:
    """The body of the document at ``path``; its version is checked, and its kind when it names one."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"missing required file {p}")

    def finite(text):  # canonical JSON has no NaN or Infinity, and no overflowing literal
        if not math.isfinite(value := float(text)):
            raise SchemaError(f"{p}: {text} is not a finite number")
        return value

    try:
        doc = json.loads(p.read_text(encoding="utf-8"), parse_float=finite, parse_constant=finite)
    except ValueError as exc:  # JSONDecodeError, or an integer over Python's digit limit
        raise SchemaError(f"{p}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{p}: top-level JSON value must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{p}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    if doc.get("kind", kind) != kind:
        raise SchemaError(f"{p}: expected a {kind!r} document, got {doc.get('kind')!r}")
    return document_body(doc)


def reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise SchemaError(f"{where or '/'}: unknown key {unknown[0]!r}")


def expect(obj, typ, where: str):
    """``obj`` checked as ``typ`` (bools are never numbers; ints pass as floats)."""
    if typ is float and isinstance(obj, int) and not isinstance(obj, bool) \
            and abs(obj) <= sys.float_info.max:
        return float(obj)
    if not isinstance(obj, typ) or isinstance(obj, bool):
        raise SchemaError(f"{where or '/'}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def check_integers(cfg) -> None:
    """Raise a ValidationError naming the first ``int`` field of ``cfg`` that ``operator.index`` refuses.

    A range check such as ``x < 1`` lets NaN through and fails on text with a bare TypeError."""
    hints = _hints(type(cfg))
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if hints[f.name] is int:
            try:
                operator.index(value)
            except TypeError:
                raise ValidationError(f"{f.name} must be an integer, got {value!r}") from None


def to_doc(cfg) -> dict:
    """JSON-ready object of a config dataclass, one key per field."""
    return {f.name: _value_doc(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def _value_doc(value):
    if value is None:
        return {"kind": "none"}
    if dataclasses.is_dataclass(value):
        kind = getattr(value, "KIND", None)
        return {"kind": kind, **to_doc(value)} if kind else to_doc(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def from_doc(cls, obj, where: str = "", base=None):
    """Build ``cls`` from a JSON object; absent keys keep ``base``'s values or the defaults."""
    expect(obj, dict, where)
    fields = dataclasses.fields(cls)
    reject_unknown(obj, [f.name for f in fields], where)
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and base is None and f.name not in obj:
            raise SchemaError(f"{where}/{f.name}: missing required key")
    hints = _hints(cls)
    values = {f.name: _read(hints[f.name], obj[f.name], f"{where}/{f.name}",
                            getattr(base, f.name, None))
              for f in fields if f.name in obj}
    return dataclasses.replace(base, **values) if base is not None else cls(**values)


@functools.cache
def _hints(cls) -> dict:
    """``cls``'s type hints, evaluated once per class."""
    return get_type_hints(cls)


def _read(typ, obj, where: str, base):
    if typ in (int, float, str):  # before get_origin, which is slower
        return expect(obj, typ, where)
    origin, args = get_origin(typ), get_args(typ)
    if origin is Union and set(args) <= {int, float, str, type(None)}:  # e.g. Optional[int]
        expect(obj, float if float in args else args[0], where)
        return obj
    if origin is Union:
        members = {getattr(m, "KIND", "none"): m for m in args}  # NoneType has no KIND
        kind = expect(obj, dict, where).get("kind")
        if not isinstance(kind, str) or kind not in members:  # a list or dict is unhashable
            expected = ", ".join(map(repr, members))
            raise SchemaError(f"{where}/kind: expected one of {expected}, got {kind!r}")
        body = {k: v for k, v in obj.items() if k != "kind"}
        if kind == "none":
            reject_unknown(body, (), where)
            return None
        return from_doc(members[kind], body, where)
    if origin is tuple:
        if not isinstance(obj, list) or len(obj) != len(args):
            raise SchemaError(f"{where}: expected a {len(args)}-element list")
        return tuple(_read(t, x, f"{where}/{i}", None) for i, (t, x) in enumerate(zip(args, obj)))
    if origin is list:
        if args[0] in (int, float, str) and isinstance(obj, list) \
                and all(type(x) is args[0] for x in obj):  # leaves that need no conversion
            return list(obj)
        return [_read(args[0], x, f"{where}/{i}", None) for i, x in enumerate(expect(obj, list, where))]
    if dataclasses.is_dataclass(typ):
        return from_doc(typ, obj, where, base)
    return expect(obj, typ, where)
