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
from .measures import Measure, _frozen, _Value, measure_to_dict

NAIVE_MODES = ("min", "max", "mean")


@dataclass(frozen=True, eq=False)
class FusionMap(_Value):
    """Per-instance fused confidences plus how they were produced."""

    scores: np.ndarray  # shape (n_instances,), values in [0, 1]
    provenance: dict  # {"mode": "choquet", "measure": {...}} or {"mode": "min"|...}

    def __post_init__(self):
        object.__setattr__(self, "scores", _frozen(np.asarray(self.scores, dtype=np.float64)))

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True, eq=False)
class ScoreReport(_Value):
    """Detection metrics for one fusion map.

    auc is None when truth has a single class; auc_error then says why, and
    the ROC curve is empty. psnr is +inf when rmse is exactly 0. The curve is
    `roc_curve`'s arrays, read-only and kept out of to_json_dict; write_roc_csv
    is its one writer.
    """

    auc: Optional[float]
    rmse: float
    psnr: float
    fpr: np.ndarray
    tpr: np.ndarray
    auc_error: Optional[str] = None

    def __post_init__(self):
        for name in ("fpr", "tpr"):
            curve = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, _frozen(curve))

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


def _check_finite(scores: np.ndarray) -> None:
    """The one refusal of NaN and infinite scores, for `score` and `roc_curve`."""
    if not np.isfinite(scores).all():
        raise ValidationError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")


def roc_curve(scores: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tie-grouped ROC sweep, highest threshold first.

    Returns (fpr, tpr) arrays anchored at (0,0) and (1,1). Equal scores move
    as one step, which is what makes trapezoidal area match pair counting.
    Both arguments are read as `score` reads them, lists and tuples too.
    Scores that are not finite are refused: tied infinities would split into
    two steps, and NaN would sort first.
    """
    scores, truth = np.asarray(scores, dtype=np.float64), np.asarray(truth)
    _check_finite(scores)
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
    scores = fmap.scores if isinstance(fmap, FusionMap) else np.asarray(fmap, dtype=np.float64)
    t = np.asarray(truth)
    if scores.ndim != 1 or t.shape != scores.shape:
        raise ValidationError(
            f"scores and truth must be 1-D and aligned, got {scores.shape} vs {t.shape}"
        )
    if scores.size == 0:
        raise ValidationError("cannot score an empty map")
    _check_finite(scores)
    if not np.isin(t, (0, 1)).all():
        raise ValidationError("truth labels must be 0 or 1")
    # roc_curve's cumsum widens int8 to int64 itself
    t = t.astype(np.int8, copy=False)

    rmse = float(np.sqrt(np.mean(np.square(scores - t))))
    psnr = math.inf if rmse == 0.0 else -20.0 * math.log10(rmse)

    if t.min() == t.max():
        return ScoreReport(
            None, rmse, psnr, (), (), f"AUC undefined: truth contains only class {t[0]}"
        )

    fpr, tpr = roc_curve(scores, t)
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
