"""Fusion application and scoring.

`fuse` turns a dataset plus a measure into one fused confidence per
instance; `fuse_naive` provides the min/max/mean baselines. `score`
compares fused confidences against per-instance binary truth with ROC/AUC,
RMSE, and PSNR.

Scores keep the dataset's flattening order (bag, then candidate set, then
instance), so a fusion map lines up with `Dataset.flat_truth()`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .choquet import choquet_batch
from .data import Dataset, _address
from .errors import ValidationError
from .measures import Measure, measure_to_dict

NAIVE_MODES = ("min", "max", "mean")


@dataclass(frozen=True)
class FusionMap:
    """Per-instance fused confidences plus how they were produced."""

    scores: np.ndarray  # shape (n_instances,), values in [0, 1]
    provenance: dict  # {"mode": "choquet", "measure": {...}} or {"mode": "min"|...}

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64).view()  # the caller's stays writable
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True)
class ScoreReport:
    """Detection metrics for one fusion map.

    auc is None when truth has a single class; auc_error then says why.
    psnr is +inf when rmse is exactly 0. The ROC curve is kept out of
    to_json_dict; write_roc_csv is its one writer.
    """

    auc: Optional[float]
    rmse: float
    psnr: float
    roc_points: tuple[tuple[float, float], ...]  # (fpr, tpr), (0,0) .. (1,1)
    auc_error: Optional[str] = None

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


def _as_scores(map_or_scores: Union[FusionMap, Sequence[float], np.ndarray]) -> np.ndarray:
    if isinstance(map_or_scores, FusionMap):
        return map_or_scores.scores
    return np.asarray(map_or_scores, dtype=np.float64)


def roc_curve(scores: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tie-grouped ROC sweep, highest threshold first.

    Returns (fpr, tpr) arrays anchored at (0,0) and (1,1). Equal scores move
    as one step, which is what makes trapezoidal area match pair counting.
    """
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truth[order]
    # last index of each tie group
    boundary = np.nonzero(np.diff(s))[0]
    ends = np.concatenate([boundary, [s.size - 1]])
    tp = np.cumsum(t)[ends]
    fp = np.cumsum(1 - t)[ends]
    n_pos = tp[-1]
    n_neg = fp[-1]
    tpr = np.concatenate([[0.0], tp / n_pos if n_pos else np.zeros_like(tp, dtype=float)])
    fpr = np.concatenate([[0.0], fp / n_neg if n_neg else np.zeros_like(fp, dtype=float)])
    return fpr, tpr


def score(
    fmap: Union[FusionMap, Sequence[float], np.ndarray],
    truth: Sequence[int],
) -> ScoreReport:
    """ROC/AUC, RMSE, and PSNR of fused confidences against binary truth."""
    scores = _as_scores(fmap)
    t = np.asarray(truth)
    if scores.ndim != 1 or t.shape != scores.shape:
        raise ValidationError(
            f"scores and truth must be 1-D and aligned, got {scores.shape} vs {t.shape}"
        )
    if scores.size == 0:
        raise ValidationError("cannot score an empty map")
    if not np.isfinite(scores).all():
        raise ValidationError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    if not np.isin(t, (0, 1)).all():
        raise ValidationError("truth labels must be 0 or 1")
    t = t.astype(np.int64)

    err = scores - t
    rmse = float(np.sqrt(np.mean(err * err)))
    psnr = math.inf if rmse == 0.0 else -20.0 * math.log10(rmse)

    if t.min() == t.max():
        only = int(t[0])
        return ScoreReport(
            auc=None,
            rmse=rmse,
            psnr=psnr,
            roc_points=(),
            auc_error=f"AUC undefined: truth contains only class {only}",
        )

    fpr, tpr = roc_curve(scores, t)
    auc = float(np.trapezoid(tpr, fpr))
    points = tuple(zip(fpr.tolist(), tpr.tolist()))
    return ScoreReport(auc=auc, rmse=rmse, psnr=psnr, roc_points=points)


def fusion_rows(data: Dataset, fmap: FusionMap) -> Iterator[tuple]:
    """(bag, set, instance, score[, truth]) rows in flattening order."""
    if len(fmap) != data.n_instances:
        raise ValidationError(
            f"map has {len(fmap)} scores, dataset has {data.n_instances} instances"
        )
    address = _address(np.arange(data.n_instances), data.set_offsets, data.bag_offsets)
    columns = [*address, fmap.scores]
    if data.flat_truth() is not None:
        columns.append(data.flat_truth())
    return zip(*(column.tolist() for column in columns))


def write_fusion_csv(path, data: Dataset, fmap: FusionMap) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = ["bag", "candidate_set", "instance", "score"]
        if data.flat_truth() is not None:
            header.append("truth")
        w.writerow(header)
        w.writerows(fusion_rows(data, fmap))


def write_roc_csv(path, report: ScoreReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["false_positive_rate", "true_positive_rate"])
        w.writerows(report.roc_points)
