"""Bag-level min-max training objective over a candidate measure.

Each negative bag contributes the worst candidate set's best-case fused
confidence, squared: max over its candidate sets of (min over instances of
CI)^2. Each positive bag contributes its best candidate set's shortfall
from full confidence: min over its candidate sets of (max over instances
of CI - 1)^2. The total is the plain sum over bags. Zero total means every
negative candidate set can be explained by a fully suppressed matching and
every positive bag has a matching fused to exactly 1.

`prepare` factors out everything measure-independent (the sorted
decomposition, the bag signs, and the candidate sets and bags grouped by
size) so that evaluating many value tables against one dataset, as the
optimizer does, costs one gather for all of them. `objective`,
`objective_batch` and the optimizer share one evaluator, `_evaluate`: it
takes the tables as a (2**S, P) column stack, the optimizer's population
layout, gets CI from `choquet._choquet` and reduces candidate sets and
bags by size group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .choquet import _choquet, sort_decomposition
from .data import Dataset
from .measures import Measure, _check_measure


@dataclass(frozen=True)
class BagContribution:
    bag_index: int
    contribution: float
    selected_set: int  # candidate set realizing the outer max/min, first index on ties


@dataclass(frozen=True)
class ObjectiveBreakdown:
    total: float
    negative_term: float
    positive_term: float
    per_bag: tuple[BagContribution, ...]

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "negative_term": self.negative_term,
            "positive_term": self.positive_term,
            "per_bag": [
                {
                    "bag_index": c.bag_index,
                    "contribution": c.contribution,
                    "selected_set": c.selected_set,
                }
                for c in self.per_bag
            ],
        }


@dataclass(frozen=True)
class PreparedData:
    """Measure-independent compilation of a dataset for repeated evaluation."""

    source_count: int
    masks: np.ndarray        # (N, S) coalition bitmasks of the sorted decomposition
    levels: np.ndarray       # (N, S + 1) each row sorted descending, then a 0
    signs: np.ndarray        # (N, 1) -1.0 for an instance of a negative bag, else 1.0
    set_groups: tuple        # candidate sets by instance count, see _size_groups
    bag_groups: tuple        # bags by candidate-set count
    bag_offsets: np.ndarray  # (n_bags + 1,) bag boundaries in candidate-set order
    set_signs: np.ndarray    # (n_sets, 1) the sign of each candidate set's bag
    labels: np.ndarray       # per bag, 0 or 1


def _size_groups(offsets: np.ndarray) -> tuple:
    """Segments grouped by size: for each size g present, the segment
    indices and a (n_g, g) array of the rows each of them covers."""
    sizes = np.diff(offsets)
    return tuple(
        (segs, offsets[segs][:, None] + np.arange(g))
        for g in np.flatnonzero(np.bincount(sizes))
        for segs in [np.flatnonzero(sizes == g)]
    )


def _segment_reduce(ufunc: np.ufunc, x: np.ndarray, groups: tuple) -> np.ndarray:
    """`ufunc` over each segment of the rows of x, one gather per size group."""
    out = np.empty((sum(len(segs) for segs, _ in groups),) + x.shape[1:], x.dtype)
    for segs, rows in groups:
        out[segs] = ufunc.reduce(x[rows], axis=1)
    return out


def prepare(data: Dataset) -> PreparedData:
    X = data.instance_matrix()
    masks, levels = sort_decomposition(X)
    labels = data.labels()
    set_signs = np.repeat(np.where(labels == 0, -1.0, 1.0), np.diff(data.bag_offsets))
    return PreparedData(
        source_count=data.source_count,
        masks=masks,
        levels=levels,
        signs=np.repeat(set_signs, np.diff(data.set_offsets))[:, None],
        set_groups=_size_groups(data.set_offsets),
        bag_groups=_size_groups(data.bag_offsets),
        bag_offsets=data.bag_offsets,
        set_signs=set_signs[:, None],
        labels=labels,
    )


def _as_prepared(data: Union[Dataset, PreparedData]) -> PreparedData:
    return data if isinstance(data, PreparedData) else prepare(data)


class _Evaluation(NamedTuple):
    """Objective parts for a stack of P value tables."""

    negative: np.ndarray       # (P,) negative-bag term
    positive: np.ndarray       # (P,) positive-bag term
    contributions: np.ndarray  # (P, n_bags)
    set_extreme: np.ndarray    # (P, n_sets) min CI of a negative set, max CI of a positive one
    bag_extreme: np.ndarray    # (P, n_bags) largest set extreme in the bag

    @property
    def total(self) -> np.ndarray:
        return self.negative + self.positive


def _evaluate(tables: np.ndarray, prepared: PreparedData) -> _Evaluation:
    """Evaluate a (2**S, P) column stack of value tables in one gather.

    `_choquet` reads CI into an (N, P) array, in max-min form for a uint8
    stack. CI is negated in negative bags, so the maximum over a candidate
    set, taken for all sets of one size by one gather, is the negated
    minimum of a negative set and the maximum of a positive one; the set's
    sign flips it back. Bags are reduced the same way over the set extremes.
    A negative bag contributes the square of its largest set minimum; a
    positive bag contributes (its largest set maximum - 1)^2, which is the
    smallest shortfall because (x - 1)^2 falls on [0, 1].
    """
    ci = _choquet(tables, prepared.masks, prepared.levels)
    ci *= prepared.signs
    set_extreme = _segment_reduce(np.maximum, ci, prepared.set_groups)
    set_extreme *= prepared.set_signs
    # C-contiguous (P, n_bags) as before, so the term sums keep their order
    bag_extreme = _segment_reduce(np.maximum, set_extreme, prepared.bag_groups).T.copy()
    neg = prepared.labels == 0
    contributions = np.where(neg, bag_extreme**2, (bag_extreme - 1.0) ** 2)
    terms = contributions[:, neg].sum(axis=1), contributions[:, ~neg].sum(axis=1)
    return _Evaluation(*terms, contributions, set_extreme.T, bag_extreme)


def objective(measure: Measure, data: Union[Dataset, PreparedData]) -> ObjectiveBreakdown:
    """Evaluate the objective with a per-bag breakdown for diagnostics."""
    prepared = _as_prepared(data)
    _check_measure(measure, prepared.source_count)
    ev = _evaluate(measure.values[:, None], prepared)
    # the selected set is the first in its bag to reach the bag's extreme
    set_index = np.arange(len(prepared.set_signs))
    reaches = ev.set_extreme[0] == np.repeat(ev.bag_extreme[0], np.diff(prepared.bag_offsets))
    first = _segment_reduce(
        np.minimum, np.where(reaches, set_index, len(set_index)), prepared.bag_groups
    )
    selected = first - prepared.bag_offsets[:-1]
    per_bag = tuple(
        BagContribution(b, float(c), int(sel))
        for b, (c, sel) in enumerate(zip(ev.contributions[0], selected))
    )
    neg, pos = float(ev.negative[0]), float(ev.positive[0])
    return ObjectiveBreakdown(
        total=neg + pos, negative_term=neg, positive_term=pos, per_bag=per_bag
    )


def objective_batch(
    measures: Sequence[Measure], data: Union[Dataset, PreparedData]
) -> np.ndarray:
    """Objective totals for many measures at once.

    Runs the evaluator `objective` uses, in one gather over the stacked
    value tables. For one measure the total equals `objective(...).total`
    bit for bit. With several, each measure's bag terms add one after another
    rather than pairwise, so a total can differ from it in the last bits.
    """
    prepared = _as_prepared(data)
    if len(measures) == 0:
        return np.empty(0)
    for m in measures:
        _check_measure(m, prepared.source_count)
    return _evaluate(np.stack([m.values for m in measures], axis=1), prepared).total

