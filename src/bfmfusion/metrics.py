"""Fusion application and scoring.

`fuse` turns a dataset plus a measure into one fused confidence per
instance; `fuse_naive` provides the min/max/mean baselines. `score`
compares fused confidences against per-instance binary truth with ROC/AUC,
RMSE, and PSNR, and keeps the ROC curve as arrays. The CSV writers format
the curve and a fusion map a block of rows at a time, as csv.writer would.

Scores keep the dataset's flattening order (bag, then candidate set, then
instance), so a fusion map lines up with `Dataset.flat_truth()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .choquet import _blocks, choquet_batch
from .data import Dataset, _address
from .errors import ValidationError
from .measures import Measure, _frozen, _number_array, _Value, measure_to_dict

NAIVE_MODES = ("min", "max", "mean")


@dataclass(frozen=True, eq=False)
class FusionMap(_Value):
    """Per-instance fused confidences plus how they were produced."""

    scores: np.ndarray  # shape (n_instances,), values in [0, 1]
    provenance: dict  # {"mode": "choquet", "measure": {...}} or {"mode": "min"|...}

    def __post_init__(self):
        object.__setattr__(self, "scores", _frozen(_read_scores(self.scores)))

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True, eq=False)
class ScoreReport(_Value):
    """Detection metrics for one fusion map.

    auc is None when truth has a single class; auc_error then says why, and
    the ROC curve is empty. psnr is +inf when rmse is exactly 0. The curve is
    two 1-D arrays of one length, read-only and kept out of to_json_dict;
    write_roc_csv is its one writer.
    """

    auc: Optional[float]
    rmse: float
    psnr: float
    fpr: np.ndarray
    tpr: np.ndarray
    auc_error: Optional[str] = None

    def __post_init__(self):
        fpr, tpr = (_number_array(curve, "a ROC curve") for curve in (self.fpr, self.tpr))
        if fpr.ndim != 1 or fpr.shape != tpr.shape:
            raise ValidationError(f"fpr {fpr.shape} and tpr {tpr.shape} must be 1-D of one length")
        object.__setattr__(self, "fpr", _frozen(fpr))
        object.__setattr__(self, "tpr", _frozen(tpr))

    def to_json_dict(self) -> dict:
        return {
            "auc": self.auc,
            "rmse": self.rmse,
            # JSON has no inf literal; null + the flag below keep it strict
            "psnr": self.psnr if math.isfinite(self.psnr) else None,
            "psnr_is_infinite": not math.isfinite(self.psnr),
            "auc_error": self.auc_error,
        }


def fuse(data: Dataset, measure: Measure) -> FusionMap:
    """Fused confidence per instance using the measure's aggregation."""
    scores = choquet_batch(data.instance_matrix(), measure)
    return FusionMap(scores, {"mode": "choquet", "measure": measure_to_dict(measure)})


def fuse_naive(data: Dataset, mode: str) -> FusionMap:
    """Elementwise min/max/mean across sources, as fixed baselines."""
    if mode not in NAIVE_MODES:
        raise ValidationError(f"unknown naive mode {mode!r}; expected one of {NAIVE_MODES}")
    # each mode names the ndarray reduction it applies across sources
    scores = getattr(data.instance_matrix(), mode)(axis=1)
    return FusionMap(scores, {"mode": mode})


def _read_scores(scores) -> np.ndarray:
    """The one reader of fused scores: a non-empty, 1-D, finite float64 array, or refused."""
    scores = _number_array(scores, "scores")
    if scores.ndim != 1 or scores.size == 0:
        raise ValidationError(
            f"scores must be 1-D, non-empty and aligned with the instances, got {scores.shape}"
        )
    if not np.isfinite(scores).all():
        raise ValidationError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    return scores


def _roc_curve(scores: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tie-grouped ROC sweep of `score`'s checked arrays, highest threshold
    first: (fpr, tpr) from (0,0) to (1,1). Equal scores move as one step, so
    trapezoidal area matches pair counting; `score` refuses NaN, which would
    sort first, and tied infinities, which would split into two steps."""
    order = np.argsort(-scores, kind="stable")
    # last index of each tie group
    ends = np.append(np.flatnonzero(np.diff(scores[order])), scores.size - 1)
    tpr, fpr = np.zeros((2, ends.size + 1))
    # positives and negatives up to each end, then their shares (0 if none)
    tpr[1:] = np.cumsum(truth[order])[ends]
    fpr[1:] = ends + 1 - tpr[1:]
    tpr /= max(tpr[-1], 1.0)
    fpr /= max(fpr[-1], 1.0)
    return fpr, tpr


def score(
    fmap: Union[FusionMap, Sequence[float], np.ndarray],
    truth: Sequence[int],
) -> ScoreReport:
    """ROC/AUC, RMSE, and PSNR of fused confidences against binary truth."""
    # a map's array is read again: it is a view of the caller's, who may have changed it
    scores = _read_scores(fmap.scores if isinstance(fmap, FusionMap) else fmap)
    t = np.asarray(truth)
    if t.shape != scores.shape:
        raise ValidationError(f"scores and truth must be aligned, got {scores.shape} vs {t.shape}")
    if not np.isin(t, (0, 1)).all():
        raise ValidationError("truth labels must be 0 or 1")
    # _roc_curve's cumsum widens int8 to int64 itself
    t = t.astype(np.int8, copy=False)

    rmse = float(np.sqrt(np.mean(np.square(scores - t))))
    psnr = math.inf if rmse == 0.0 else -20.0 * math.log10(rmse)

    if t.min() == t.max():
        return ScoreReport(
            None, rmse, psnr, (), (), f"AUC undefined: truth contains only class {t[0]}"
        )

    fpr, tpr = _roc_curve(scores, t)
    auc = float(np.trapezoid(tpr, fpr))
    return ScoreReport(auc=auc, rmse=rmse, psnr=psnr, fpr=fpr, tpr=tpr)


def _row_blocks(n: int, width: int, columns) -> Iterator[zip]:
    """Rows 0..n-1 as tuples of Python numbers, a block at a time from `columns(rows)`."""
    return (zip(*(c.tolist() for c in columns(rows))) for rows in _blocks(n, width))


def _fusion_blocks(data: Dataset, fmap: FusionMap) -> Iterator[zip]:
    if len(fmap) != data.n_instances:
        raise ValidationError(
            f"map has {len(fmap)} scores, dataset has {data.n_instances} instances"
        )
    tail = [fmap.scores] + ([] if data.flat_truth() is None else [data.flat_truth()])
    return _row_blocks(len(fmap), 3 + len(tail), lambda rows: [
        *_address(np.arange(*rows.indices(len(fmap))), data.set_offsets, data.bag_offsets),
        *(column[rows] for column in tail),
    ])


def _write_csv(path, header: str, blocks) -> None:
    """The header, then each block's rows, numbers by repr as csv.writer writes them."""
    line = ",".join(["%r"] * (header.count(",") + 1)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        for block in blocks:
            fh.write("".join(map(line.__mod__, block)))


def write_fusion_csv(path, data: Dataset, fmap: FusionMap) -> None:
    header = "bag,candidate_set,instance,score" + ",truth" * (data.flat_truth() is not None)
    _write_csv(path, header, _fusion_blocks(data, fmap))


def write_roc_csv(path, report: ScoreReport) -> None:
    curve = _row_blocks(len(report.fpr), 2, lambda rows: (report.fpr[rows], report.tpr[rows]))
    _write_csv(path, "false_positive_rate,true_positive_rate", curve)
