"""Discrete Choquet integral of per-source confidences against a measure.

The integral sorts the confidence vector in descending order and weights
the successive level differences by the measure of the growing coalition
of top sources:

    CI(h) = sum_k (h_(k) - h_(k+1)) * g(top-k sources),  h_(S+1) = 0.

For a binary measure this collapses to a max-min form over the winning
coalitions, which `_choquet` uses for binary table stacks in training and
`choquet_maxmin` computes directly as an independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .measures import BinaryFuzzyMeasure, Measure


def _check_instance(h, source_count: int) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or len(h) != source_count:
        raise ValidationError(
            f"instance has {h.shape} values, measure expects {source_count}"
        )
    if not ((h >= 0.0) & (h <= 1.0)).all():
        raise ValidationError(
            f"confidences must lie in [0, 1], got {h.tolist()}"
        )
    return h


def sort_decomposition(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sorted decomposition of an (N, S) confidence matrix.

    Returns masks (N, S), masks[n, k] the bitmask of the top-(k+1) sources
    of row n, and levels (N, S + 1), row n sorted descending, then a 0: CI
    under g is ((levels[:, :-1] - levels[:, 1:]) * g[masks]).sum(axis=1).
    Ties sort stably by ascending source index; CI is tie-order invariant
    for valid measures because tied levels contribute zero-width
    differences. Measure-independent, so it can be computed once per dataset.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    order = np.argsort(-X, axis=1, kind="stable")
    levels = np.pad(np.take_along_axis(X, order, axis=1), ((0, 0), (0, 1)))
    # distinct power-of-two bits, so cumulative sum equals cumulative OR
    masks = np.cumsum(np.left_shift(1, order.astype(np.int64)), axis=1)
    return masks, levels


def _choquet(tables: np.ndarray, masks: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """(N, P) CI of every decomposed row under a (2**S, P) column stack.

    A uint8 stack takes the max-min form: the prefixes masks[n, :] grow, so
    under a monotone table the winning ones form a suffix, counted in an
    (N, S, P) uint8 gather of rows of the stack (no transposed copy, no
    float (P, N, S) array), and CI is levels[n, S - count], the trailing 0
    when none wins. Any other dtype takes the level-difference sum over a
    (P, N, S) float64 gather through the transposed view.
    """
    if tables.dtype == np.uint8:
        counts = tables[masks].sum(axis=1, dtype=np.uint8)
        # a flat index into the levels is faster here than take_along_axis
        row_ends = np.arange(1, len(levels) + 1)[:, None] * levels.shape[1] - 1
        return levels.ravel()[row_ends - counts]
    diffs = levels[:, :-1] - levels[:, 1:]
    return (diffs * tables.T[:, masks]).sum(axis=2).T


def choquet_batch(X: np.ndarray, measure: Measure) -> np.ndarray:
    """Choquet integral of every row of an (N, S) confidence matrix, by the
    level-difference sum for binary measures too."""
    return _choquet(measure.values[:, None].astype(np.float64), *sort_decomposition(X))[:, 0]


def choquet_integral(h, measure: Measure) -> float:
    """Choquet integral of one confidence vector; result is in [min h, max h].

    Out-of-range confidences are rejected rather than clamped: silent
    clamping would hide upstream normalization bugs.
    """
    h = _check_instance(h, measure.source_count)
    return float(choquet_batch(h[None, :], measure)[0])


def choquet_maxmin(h, measure: BinaryFuzzyMeasure) -> float:
    """Max over winning coalitions of the min confidence inside the coalition.

    Equivalent to `choquet_integral` for binary measures; kept as a
    brute-force oracle over the full subset scan.
    """
    if not isinstance(measure, BinaryFuzzyMeasure):
        raise ValidationError("the max-min form is defined for binary measures only")
    h = _check_instance(h, measure.source_count)
    winning = np.flatnonzero(measure.values == 1)
    winning = winning[winning != 0]
    if winning.size == 0:
        raise ValidationError("measure has no winning coalition; is it valid?")
    mins = np.full(len(winning), np.inf)
    for i in range(measure.source_count):
        inside = (winning >> i) & 1 == 1
        mins[inside] = np.minimum(mins[inside], h[i])
    return float(mins.max())
