"""Discrete Choquet integral of per-source confidences against a measure.

The integral sorts the confidence vector in descending order and weights
the successive level differences by the measure of the growing coalition
of top sources:

    CI(h) = sum_k (h_(k) - h_(k+1)) * g(top-k sources),  h_(S+1) = 0.

For a binary measure this collapses to a max-min form over the winning
coalitions, so every fused value is one of the row's own confidences:
`choquet_batch` reads it as the level at each row's first winning prefix,
with one gather of the table. `_choquet` is the level-difference sum over
a stack of real-valued tables, in fusion and in training; training reads
binary tables off threshold walks instead (see `bfmfusion.objective`),
since it needs only each candidate set's extreme. `choquet_maxmin`
computes the max-min form directly, as an independent cross-check.

Fusion and training decompose a row one way: `_source_order` is the one
sort of each row's sources, `_decompose` reads a block of rows' prefix
masks and sorted levels from it, and `_blocks` sizes every blocked loop
here and in `bfmfusion.objective`.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .measures import BinaryFuzzyMeasure, Measure, _check_binary, _check_measure, _in_unit_interval


def _check_rows(X, source_count: int) -> np.ndarray:
    """X as an (N, S) float64 matrix; refuse another width, or a confidence
    outside [0, 1]."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != source_count:
        raise ValidationError(
            f"confidences of shape {X.shape} do not fit a measure over {source_count} sources"
        )
    if not _in_unit_interval(X):
        bad = X[~((X >= 0.0) & (X <= 1.0))][0]  # a mask only to name a refused value
        raise ValidationError(f"confidences must lie in [0, 1], got {bad}")
    return X


# elements a blocked gather holds at once: 256 KiB of words or floats, small
# enough to stay in cache and to be reused from one block to the next
_BLOCK = 1 << 15


def _prefix_masks(order: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Bitmasks of the growing prefixes of the source indices along the last
    axis. Distinct power-of-two bits, so a running sum is a running OR;
    column by column, since a cumsum along short rows pays per row."""
    masks = np.left_shift(1, order, dtype=dtype)
    for k in range(1, order.shape[-1]):
        masks[..., k] += masks[..., k - 1]
    return masks


def _blocks(n: int, per_item: int, budget: int = _BLOCK) -> list[slice]:
    """Slices that cover range(n) in order, max(1, budget // per_item) items
    each but the last, so a block holds about `budget` elements of
    `per_item` each."""
    step = max(1, budget // per_item)
    return [slice(i, i + step) for i in range(0, n, step)]


def _source_order(X: np.ndarray) -> np.ndarray:
    """(N, S) uint8 order of an (N, S) confidence matrix: each row's sources
    by falling confidence, ties by ascending source; S <= 24 fits a byte.
    Sorted a block of rows at a time, so argsort's int64 result stays small.
    CI is tie-order invariant for valid measures, since tied levels
    contribute zero-width differences."""
    order = np.empty(X.shape, np.uint8)
    for rows in _blocks(len(X), X.shape[1]):
        order[rows] = np.argsort(-X[rows], axis=1, kind="stable")
    return order


def _decompose(flat: np.ndarray, rows: np.ndarray, order: np.ndarray) -> tuple:
    """Sorted decomposition of the rows `rows`, an index array of any shape,
    of an (N, S) matrix raveled as `flat`, given their `_source_order`.

    Returns masks (..., S), masks[..., k] the bitmask of a row's top-(k+1)
    sources, and levels (..., S + 1), the row sorted descending, then a 0:
    CI under g is ((levels[..., :-1] - levels[..., 1:]) * g[masks]).sum(-1).
    """
    s = order.shape[-1]
    levels = np.zeros(order.shape[:-1] + (s + 1,))
    # a flat index is faster here than take_along_axis
    levels[..., :s] = flat[rows[..., None] * s + order]
    return _prefix_masks(order), levels


def _choquet(tables: np.ndarray, masks: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """(N, P) CI of every decomposed row under a (2**S, P) float64 column
    stack of real-valued tables: the level-difference sum over an (S, N, P)
    gather, weighted in place and added a source at a time, left to right,
    whatever P (numpy's sum adds a lone table's S terms pairwise). Callers
    pass a block of rows at a time, so the gather stays small."""
    terms = tables[masks.T]
    terms *= (levels[:, :-1] - levels[:, 1:]).T[:, :, None]
    return sum(terms[1:], terms[0])


def choquet_batch(X: np.ndarray, measure: Measure) -> np.ndarray:
    """Choquet integral of every row of an (N, S) confidence matrix.

    A binary measure takes the max-min form: the prefixes masks[n, :] grow,
    so under a monotone table the winning ones form a suffix, and CI is the
    level at the first of them, read with one (N, S) uint8 gather of the
    table, exactly one of the row's confidences. A real-valued measure takes
    the level-difference sum. Refuses an invalid measure, rows of another
    width and confidences outside [0, 1], as `fuse` and `objective` do.
    """
    _check_measure(measure, measure.source_count)
    X = _check_rows(X, measure.source_count)
    binary = isinstance(measure, BinaryFuzzyMeasure)
    out = np.empty(len(X))
    # sorted and decomposed a block of rows at a time, so no (N, S) order,
    # mask or level array is formed
    for rows in _blocks(len(X), measure.source_count):
        block = X[rows]
        masks, levels = _decompose(block.ravel(), np.arange(len(block)), _source_order(block))
        out[rows] = (
            levels[np.arange(len(levels)), np.argmax(measure.values[masks], axis=1)]
            if binary else _choquet(measure.values[:, None], masks, levels)[:, 0]
        )
    return out


def choquet_maxmin(h, measure: BinaryFuzzyMeasure) -> float:
    """Max over winning coalitions of the min confidence inside the coalition.

    Equal to `choquet_batch` of the one row h for binary measures; kept as
    a brute-force oracle over the full subset scan.
    """
    _check_binary(measure, "the max-min form")
    h = _check_rows([h], measure.source_count)[0]
    winning = np.flatnonzero(measure.values == 1)
    winning = winning[winning != 0]
    if winning.size == 0:
        raise ValidationError("measure has no winning coalition; is it valid?")
    mins = np.full(len(winning), np.inf)
    for i in range(measure.source_count):
        inside = (winning >> i) & 1 == 1
        mins[inside] = np.minimum(mins[inside], h[i])
    return float(mins.max())
