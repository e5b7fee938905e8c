"""Reference aggregators: per-item average and median of received grades.

Both ignore the social and ownership relations and never see ground-truth
labels; they aggregate exactly the stored assessment entries (explicit zero
grades included, self-assessments included when present).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .graph import SoanGraph, _item_ids, _raise_first


def _graded(graph: SoanGraph, item_ids: Sequence[int]) -> tuple:
    """``A`` by item columns, and each requested item's first grade position and grade count.

    Raises for the first unknown or ungraded id in request order.
    """
    csc = graph.A.tocsc()
    ids = np.atleast_1d(_item_ids(item_ids))  # a scalar id is answered as a list of one
    unknown = (ids < 0) | (ids >= graph.m)
    counts = np.zeros_like(csc.indptr, shape=ids.shape)
    counts[~unknown] = np.diff(csc.indptr)[ids[~unknown]]  # read at known ids only: m may be 0
    _raise_first((unknown, lambda k: ValidationError(f"unknown item index {ids[k]} (m={graph.m})")),
                 (counts == 0, lambda k: ValidationError(
                     f"item {graph.item_ids[ids[k]]!r} has no assessments")))
    return csc, csc.indptr[ids], counts


def average_predict(graph: SoanGraph, item_ids: Sequence[int]) -> np.ndarray:
    """Arithmetic mean of each requested item's grades."""
    csc, starts, counts = _graded(graph, item_ids)
    out = np.empty(counts.size)
    # One np.mean over each (items, k) block of equal grade counts sums each
    # row as np.mean does one item's grades, so the bits match the per-item mean.
    for k in np.unique(counts):
        rows = counts == k
        out[rows] = np.mean(csc.data[starts[rows, None] + np.arange(k)], axis=1)
    return out


def median_predict(graph: SoanGraph, item_ids: Sequence[int]) -> np.ndarray:
    """Sample median; even counts take the midpoint of the two middle grades."""
    csc, starts, counts = _graded(graph, item_ids)
    items = np.repeat(np.arange(graph.m), np.diff(csc.indptr))
    grades = csc.data[np.lexsort((csc.data, items))]
    # The mean of the middle pair (one grade twice for odd counts), taken with
    # np.mean as np.median takes it, so that a zero median is +0.0 there too.
    middle = np.stack([starts + (counts - 1) // 2, starts + counts // 2], axis=1)
    return np.mean(grades[middle], axis=1)
