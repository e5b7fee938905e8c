"""Social-ownership-assessment multigraph and its normalized propagation operator.

The data model is a two-node-type multigraph: ``n`` users and ``m`` items with
three weighted relations stored sparsely,

* ``S`` (n x n)  symmetric user-user ties ("who is friends with whom"),
* ``O`` (n x m)  ownership shares ("who contributed to which item"),
* ``A`` (n x m)  assessment grades ("who graded which item, and how").

A grade of exactly 0 is meaningful (the item *was* graded, with zero) and is
kept as an explicit stored entry, distinct from a structurally absent entry
(no assessment at all).  Degree normalization counts distinct stored
positions, and an explicit zero contributes to a node's degree but not to the
weighted sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DuplicateEntryError, ValidationError

Triple = tuple[str, str, float]


@dataclass(frozen=True)
class SoanGraph:
    """Immutable container for the three relations over users and items.

    Matrices are CSR with canonically sorted indices; explicit zeros are
    preserved.  ``user_ids[i]`` / ``item_ids[j]`` give the external string
    identifier of row ``i`` / column ``j``.  Building one checks the sizes:
    ``n`` and ``m`` count the ids, ``S`` is n x n, ``O`` and ``A`` are n x m.
    It then refuses a relation that stores a position twice and any entry on
    ``S``'s diagonal, a stored 0.0 included, and holds a relation whose
    indices are unsorted as a sorted copy.
    """

    n: int
    m: int
    S: sp.csr_matrix
    O: sp.csr_matrix
    A: sp.csr_matrix
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    def __post_init__(self):
        n, m = self.n, self.m
        if (len(self.user_ids), len(self.item_ids)) != (n, m):
            raise ValidationError(f"id counts {len(self.user_ids)}, {len(self.item_ids)} "
                                  f"disagree with n={n}, m={m}")
        if self.S.shape != (n, n) or self.O.shape != (n, m) or self.A.shape != (n, m):
            raise ValidationError(f"relation shapes {self.S.shape}, {self.O.shape}, "
                                  f"{self.A.shape} disagree with n={n}, m={m}")
        for name, col_ids in (("S", self.user_ids), ("O", self.item_ids), ("A", self.item_ids)):
            mat = sp.csr_matrix(getattr(self, name))
            if not mat.has_canonical_format:
                mat = mat.sorted_indices()  # a copy: the caller's arrays keep their order
            if not mat.has_canonical_format:  # sorted, so a position is stored twice
                starts = np.zeros(mat.nnz + 1, dtype=bool)
                starts[mat.indptr] = True
                # Entry k repeats entry k - 1 iff it has the same column and starts no row.
                k = np.argmax((mat.indices[1:] == mat.indices[:-1]) & ~starts[1:-1]) + 1
                row, col = np.searchsorted(mat.indptr, k, side="right") - 1, mat.indices[k]
                raise ValidationError(f"{name} stores entry {(self.user_ids[row], col_ids[col])!r} twice")
            object.__setattr__(self, name, mat)
        S = self.S
        # The diagonal of S's pattern as bools: a stored 0.0 counts, and no int64 row array is made.
        on_diagonal = sp.csr_matrix((np.ones(S.nnz, bool), S.indices, S.indptr), shape=S.shape).diagonal()
        _raise_first((on_diagonal, lambda r: ValidationError(
            f"S stores entry {(self.user_ids[r],) * 2!r} on its diagonal")))


@dataclass(frozen=True)
class PropagationMatrix:
    """Row-normalized propagation operator used by the graph convolution.

    ``N`` is the (n+m) x (n+m) sparse matrix obtained by dividing each row of
    the combined adjacency (social block, ownership+assessment block, plus
    identity self-loops) by that row's count of distinct stored positions.
    ``degrees`` (int64) holds those counts; the self-loop makes each >= 1.

    Users occupy rows 0..n-1, items rows n..n+m-1.
    """

    N: sp.csr_matrix
    degrees: np.ndarray
    n: int
    m: int

    @property
    def size(self) -> int:
        return self.n + self.m


@dataclass(frozen=True)
class GroundTruth:
    """True valuations per item, each in [0, 1]; ``mask`` marks known entries."""

    v: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if v.ndim != 1 or mask.shape != v.shape:
            raise ValidationError("ground truth vector and mask must be 1-d and same length")
        if _outside_unit(v[mask]).any():
            raise ValidationError("known ground-truth values must be finite and in [0, 1]")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def full(cls, values: Sequence[float]) -> "GroundTruth":
        v = np.asarray(values, dtype=np.float64)
        return cls(v, np.ones(v.shape, dtype=bool))

    def __len__(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True)
class Split:
    """Disjoint train/test item index sets (sorted tuples)."""

    train: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(np.sort(_item_ids(self.train), axis=None).tolist()))
        object.__setattr__(self, "test", tuple(np.sort(_item_ids(self.test), axis=None).tolist()))
        if not set(self.train).isdisjoint(self.test):
            raise ValidationError("train and test splits overlap")


@dataclass(frozen=True)
class Dataset:
    """A graph, its ground truth, and (optionally) a train/test split."""

    graph: SoanGraph
    truth: GroundTruth
    split: Optional[Split] = None

    def __post_init__(self):
        if len(self.truth) != self.graph.m:
            raise ValidationError(
                f"truth length {len(self.truth)} does not match item count {self.graph.m}"
            )
        if self.split is not None:
            labelled = np.append(self.truth.mask, True)  # unknown ids read the extra entry m
            for ids in map(_item_ids, (self.split.train, self.split.test)):
                unknown = (ids < 0) | (ids >= self.graph.m)
                _raise_first((unknown, lambda k: ValidationError(f"split references unknown item index {ids[k]}")),
                             (~labelled[np.where(unknown, self.graph.m, ids)], lambda k: ValidationError(
                                 f"split item {ids[k]} has no known ground-truth value")))


def _index_map(ids: set[str]) -> tuple[dict[str, int], tuple[str, ...]]:
    ordered = tuple(sorted(ids))
    return {s: i for i, s in enumerate(ordered)}, ordered


def _csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """The relation of ``shape`` storing each entry ``(rows[k], cols[k], vals[k])``, indices sorted.

    A position given more than once is one entry with the sum of its weights; zeros stay stored."""
    coo = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=shape,
    )
    mat = coo.tocsr()
    mat.sort_indices()
    return mat


def _symmetric(a, b, w, n: int) -> sp.csr_matrix:
    """The (n, n) relation storing each entry ``(a[k], b[k], w[k])`` both ways, indices sorted.

    The ties must be off the diagonal and unique as unordered pairs; they may
    come in any order and orientation.  Zeros stay stored.  The ties are sorted
    once, as the upper triangle U, and the lower triangle is U's transpose, a
    counting pass that needs no sort."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort(lo * n + hi)  # the keys are unique: any sort gives this order
    lo, hi, w = lo[order], hi[order], np.asarray(w, dtype=np.float64)[order]
    U = sp.csr_matrix((w, hi, np.append(0, np.cumsum(np.bincount(lo, minlength=n)))), shape=(n, n))
    L = U.T.tocsr()  # not U + U.T, which drops stored zeros
    # Row r of S is L's row r (columns below r) followed by U's row r (columns above).
    upper = np.repeat(np.tile([False, True], n),
                      np.column_stack([np.diff(L.indptr), np.diff(U.indptr)]).ravel())
    indices, data = np.empty(2 * lo.size, dtype=L.indices.dtype), np.empty(2 * lo.size)
    for out, below, above in ((indices, L.indices, U.indices), (data, L.data, U.data)):
        out[~upper], out[upper] = below, above
    return sp.csr_matrix((data, indices, L.indptr + U.indptr), shape=(n, n))


class _Coded(NamedTuple):
    """An id column dictionary-encoded: entry ``k`` is ``names[codes[k]]``."""

    names: list[str]
    codes: np.ndarray

    def at(self, k: int) -> str:
        return self.names[self.codes[k]]


class _Columns(NamedTuple):
    """One relation as two coded id columns and float64 weights; ``given`` keeps triples given."""

    first: _Coded
    second: _Coded
    weights: np.ndarray
    given: Optional[list] = None

    def entry(self, k: int) -> tuple:
        """Entry ``k`` as the caller gave it; loaded ids as text, a loaded weight as a float."""
        if self.given is not None:
            return tuple(self.given[k])
        return self.first.at(k), self.second.at(k), self.weights[k].item()


def _coded(ids: Sequence) -> _Coded:
    """``ids`` taken with ``str``, each entry its own code."""
    return _Coded(list(map(str, ids)), np.arange(len(ids)))


def _as_columns(entries: Iterable[Triple]) -> _Columns:
    """``entries`` as columns, the given triples kept; a ``_Columns`` as is."""
    if isinstance(entries, _Columns):
        return entries
    given = list(entries)
    return _Columns(_coded([u for u, _, _ in given]), _coded([i for _, i, _ in given]),
                    np.fromiter((float(w) for _, _, w in given), np.float64, len(given)), given)


def _indices(index: dict[str, int], ids: _Coded) -> np.ndarray:
    """The index of each entry of ``ids``, -1 for one not in ``index``: a lookup per name."""
    found = np.fromiter(map(index.get, ids.names, repeat(-1)), np.int64, len(ids.names))
    return found[ids.codes]


def _outside_unit(values: np.ndarray) -> np.ndarray:
    """Mask of values that are NaN or outside [0, 1]."""
    return ~((values >= 0.0) & (values <= 1.0))


def _repeated(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key an earlier entry already has."""
    repeated = np.ones(keys.shape, dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


def _raise_first(*checks) -> None:
    """Raise for the first entry that fails a check; on one entry, earlier checks win.

    Each check is a ``(mask, error)`` pair: ``mask`` marks the failing entries
    and ``error(k)`` builds the exception for entry ``k``.
    """
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        k = int(np.argmax(failed))
        raise next(error(k) for mask, error in checks if mask[k])


def _item_ids(ids, m: Optional[int] = None) -> np.ndarray:
    """``ids`` as integers of at most one dimension; with ``m``, the first outside [0, m) is named."""
    ids = np.asarray(ids)
    if ids.ndim > 1 or ids.size and ids.dtype.kind not in "iu":  # no float, bool, text or object
        raise ValidationError(f"item ids must be integers of at most one dimension, "
                              f"got dtype {ids.dtype} and shape {ids.shape}")
    if m is not None and ids.size and not 0 <= ids.min() <= ids.max() < m:
        flat = ids.ravel()  # a scalar id too
        _raise_first(((flat < 0) | (flat >= m),
                      lambda k: ValidationError(f"unknown item index {flat[k]} (m={m})")))
    return ids if ids.size else ids.astype(np.int64)  # numpy reads [] as float64


def build_graph(
    assessments: Iterable[Triple],
    ownerships: Iterable[Triple] = (),
    social: Iterable[Triple] = (),
    users: Iterable[str] = (),
    items: Iterable[str] = (),
) -> SoanGraph:
    """Assemble a :class:`SoanGraph` from edge lists with string identifiers.

    Identifiers are mapped to contiguous 0-based indices by lexicographic
    order, so the layout is deterministic and independent of edge order.
    Social edges are symmetrized (both directions stored).  Duplicate edges,
    self-edges in the social list, and weights outside [0, 1] are rejected;
    the error names the first bad entry, checking assessments, then
    ownerships, then social ties.

    ``users`` / ``items`` may declare identifiers that appear in no edge.
    Every id is taken with ``str``.  Triples are taken as columns first (ids
    by ``str``, weights by ``float``), so a weight that ``float`` rejects
    raises before any entry is checked.
    """
    assess, own, ties = map(_as_columns, (assessments, ownerships, social))
    uidx, user_ids = _index_map({*map(str, users), *assess.first.names, *own.first.names,
                                 *ties.first.names, *ties.second.names})
    iidx, item_ids = _index_map({*map(str, items), *assess.second.names, *own.second.names})
    n, m = len(user_ids), len(item_ids)

    def bipartite(kind, rel):
        rows, cols = _indices(uidx, rel.first), _indices(iidx, rel.second)
        _raise_first(
            (_repeated(rows * m + cols), lambda k: DuplicateEntryError(
                f"duplicate {kind} entry for {(rel.first.at(k), rel.second.at(k))!r}")),
            (_outside_unit(rel.weights), lambda k: ValidationError(
                f"{kind} weight out of range [0, 1] in entry {rel.entry(k)!r}")),
        )
        return _csr(rows, cols, rel.weights, (n, m))

    A, O = bipartite("assessment", assess), bipartite("ownership", own)

    a, b, w = _indices(uidx, ties.first), _indices(uidx, ties.second), ties.weights
    lo, hi = np.minimum(a, b), np.maximum(a, b)  # index order is identifier order

    def shown(k):  # a social entry names its users as text
        return ties.first.at(k), ties.second.at(k), ties.entry(k)[2]

    _raise_first(
        (a == b, lambda k: ValidationError(f"self-edge in social list: {shown(k)!r}")),
        (_repeated(lo * n + hi), lambda k: DuplicateEntryError(
            f"duplicate social entry for {(user_ids[lo[k]], user_ids[hi[k]])!r}")),
        (_outside_unit(w), lambda k: ValidationError(
            f"social weight out of range [0, 1] in entry {shown(k)!r}")),
    )
    S = _symmetric(a, b, w, n)
    return SoanGraph(n=n, m=m, S=S, O=O, A=A, user_ids=user_ids, item_ids=item_ids)


def from_matrices(
    S: sp.spmatrix,
    O: sp.spmatrix,
    A: sp.spmatrix,
    user_ids: Sequence[str],
    item_ids: Sequence[str],
) -> SoanGraph:
    """Wrap copies of already-built sparse relations, enforcing the graph invariants.

    No two user ids, and no two item ids, may share a ``str()``: their bundle
    would not load.  The graph's own checks refuse a position stored twice and
    any entry on ``S``'s diagonal, and :func:`validate`'s errors are raised."""
    for name, ids in (("user_ids", user_ids), ("item_ids", item_ids)):
        keys = list(map(str, ids))
        _raise_first((_repeated(np.array(keys, dtype=object)), lambda k: ValidationError(
            f"{name}[{k}] {ids[k]!r} repeats {name}[{keys.index(keys[k])}]")))
    graph = SoanGraph(n=len(user_ids), m=len(item_ids), S=sp.csr_matrix(S, copy=True),
                      O=sp.csr_matrix(O, copy=True), A=sp.csr_matrix(A, copy=True),
                      user_ids=tuple(user_ids), item_ids=tuple(item_ids))
    report = validate(graph)
    if not report.ok:
        raise ValidationError("; ".join(report.errors))
    return graph


def propagation_matrix(graph: SoanGraph) -> PropagationMatrix:
    """Build the row-normalized operator from the combined adjacency.

    The combined matrix is ``[[S, P], [P^T, 0]] + I`` with ``P = O + A``, and
    every row is divided by its count of distinct stored positions.  A position
    given twice (a user who both owns and assesses an item) is one entry
    holding the sum of its weights.
    """
    n, m, size = graph.n, graph.m, graph.n + graph.m
    s, o, a = graph.S.tocoo(), graph.O.tocoo(), graph.A.tocoo()
    N = _csr(np.concatenate([s.row, o.row, a.row, o.col + n, a.col + n, np.arange(size)]),
             np.concatenate([s.col, o.col + n, a.col + n, o.row, a.row, np.arange(size)]),
             np.concatenate([s.data, o.data, a.data, o.data, a.data, np.ones(size)]), (size, size))
    degrees = np.diff(N.indptr).astype(np.int64)  # self-loop guarantees >= 1
    N.data /= np.repeat(degrees, degrees)
    return PropagationMatrix(N=N, degrees=degrees, n=n, m=m)


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: fatal structural errors plus warnings."""

    errors: list[str]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(graph: SoanGraph) -> ValidationReport:
    """Check structural invariants; isolation is reported but not fatal."""
    errors: list[str] = []
    warnings: list[str] = []

    for name, mat in (("S", graph.S), ("O", graph.O), ("A", graph.A)):
        if _outside_unit(mat.data).any():
            errors.append(f"{name} contains weights outside [0, 1]")

    # S is canonical, so it is symmetric iff its transpose (a counting pass,
    # indices sorted) repeats its arrays.  Weights compare by ``==``: ``-0.0``
    # equals ``0.0`` and NaN equals nothing, so a NaN tie is asymmetric.
    S, T = graph.S, graph.S.T.tocsr()
    if not all(map(np.array_equal, (S.indptr, S.indices, S.data), (T.indptr, T.indices, T.data))):
        errors.append("S is not symmetric")

    if not errors:  # links count stored entries, explicit zeros included
        item_links = graph.O.getnnz(axis=0) + graph.A.getnnz(axis=0)
        for j in np.nonzero(item_links == 0)[0]:
            warnings.append(f"item {graph.item_ids[j]!r} has no assessments and no owners")
        user_links = graph.S.getnnz(axis=1) + graph.O.getnnz(axis=1) + graph.A.getnnz(axis=1)
        for u in np.nonzero(user_links == 0)[0]:
            warnings.append(f"user {graph.user_ids[u]!r} has no edges")

    return ValidationReport(errors, warnings)


def _same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values with equal signs, so that ``-0.0`` differs from ``0.0``."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def graphs_equal(a: SoanGraph, b: SoanGraph) -> bool:
    """Exact equality: identifiers, structural patterns, and stored weights."""
    if (a.n, a.m, a.user_ids, a.item_ids) != (b.n, b.m, b.user_ids, b.item_ids):
        return False
    for ma, mb in ((a.S, b.S), (a.O, b.O), (a.A, b.A)):
        if not (np.array_equal(ma.indptr, mb.indptr) and np.array_equal(ma.indices, mb.indices)
                and _same_values(ma.data, mb.data)):
            return False
    return True


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Exact dataset equality (graph, known truth values, split)."""
    if not graphs_equal(a.graph, b.graph):
        return False
    if not np.array_equal(a.truth.mask, b.truth.mask):
        return False
    if not _same_values(a.truth.v[a.truth.mask], b.truth.v[b.truth.mask]):
        return False
    return a.split == b.split
