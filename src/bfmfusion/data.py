"""Multi-resolution multiple-instance datasets: model, JSON I/O, synthesis.

The unit of supervision is the bag (one coarse-resolution region with a
binary label). A bag holds candidate sets, one per coarse unit it covers;
each candidate set lists the plausible cross-resolution matchings for that
unit, already expanded to length-S confidence vectors (instances). At
least one instance per candidate set is assumed to be the correct
matching; which one is unknown, which is exactly the uncertainty the
training objective integrates over.

A `Dataset` is columnar, in flatten order (bag, candidate set, instance):
a read-only (N, S) float64 `instance_matrix()`; `set_offsets` (set k holds
instances set_offsets[k]:set_offsets[k + 1]) and `bag_offsets` (bag b
holds sets bag_offsets[b]:bag_offsets[b + 1]); int8 bag `labels()`; and
optional int8 per-instance `flat_truth()`, shape (N,). The columns are
validated once, by whole-array checks; a diagnostic finds the bag,
candidate set and instance of a bad row from the offsets. `Bag` and
`CandidateSet` build hand-made datasets and serve as read-only views.

JSON schema (UTF-8, plain decimal numbers):

    {"source_count": S,
     "bags": [{"label": 0|1, "candidate_sets": [[[s1, ..., sS], ...], ...]}, ...],
     "instance_truth": [[[0|1, ...], ...], ...]}   # optional, parallel nesting

`instance_truth` carries evaluation-only per-instance labels; training
never reads it.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, pairwise

import numpy as np

from .choquet import choquet_batch
from .errors import CapError, ValidationError
from .measures import (
    BinaryFuzzyMeasure,
    _check_integer,
    _check_measure,
    _check_source_count,
    _read_json,
    measure_from_dict,
    measure_to_dict,
    minimal_winning_coalitions,
)
from .rng import substream


@dataclass(frozen=True)
class CandidateSet:
    """The plausible matchings for one coarse unit: an (n, S) matrix, n >= 1."""

    instances: np.ndarray

    def __post_init__(self):
        instances = np.atleast_2d(np.asarray(self.instances, dtype=np.float64))
        if instances.ndim != 2:
            raise ValidationError(
                f"instances must form a 2-D matrix, got shape {instances.shape}"
            )
        if instances.size == 0:
            raise ValidationError("a candidate set needs at least one instance")
        instances.flags.writeable = False
        object.__setattr__(self, "instances", instances)

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class Bag:
    label: int
    candidate_sets: tuple[CandidateSet, ...]

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {self.label!r}")
        if not len(self.candidate_sets):
            raise ValidationError("a bag needs at least one candidate set")
        object.__setattr__(
            self,
            "candidate_sets",
            tuple(
                cs if isinstance(cs, CandidateSet) else CandidateSet(cs)
                for cs in self.candidate_sets
            ),
        )


class Dataset:
    """Labeled bags stored as columns. The constructor takes hand-made `Bag`s and
    truth nested like them; the loader and the generator build the columns in bulk."""

    def __init__(self, source_count, bags, instance_truth=None):
        bags = [
            {
                "label": int(bag.label),
                "candidate_sets": [cs.instances.tolist() for cs in bag.candidate_sets],
            }
            for bag in bags
        ]
        self._set_columns(*_parse(source_count, bags, instance_truth))

    @classmethod
    def _from_columns(cls, *columns) -> "Dataset":
        ds = cls.__new__(cls)
        ds._set_columns(*columns)
        return ds

    def _set_columns(self, source_count, X, set_offsets, bag_offsets, labels, truth) -> None:
        for array in (X, set_offsets, bag_offsets, labels) + (() if truth is None else (truth,)):
            array.flags.writeable = False
        self.source_count = source_count
        self.set_offsets, self.bag_offsets = set_offsets, bag_offsets
        self._instances, self._labels, self._truth = X, labels, truth

    @property
    def n_instances(self) -> int:
        return len(self._instances)

    def labels(self) -> np.ndarray:
        return self._labels

    def instance_matrix(self) -> np.ndarray:
        """All instances stacked in flatten order, shape (n_instances, S)."""
        return self._instances

    def flat_truth(self) -> np.ndarray | None:
        """Per-instance truth in the same order, or None if absent."""
        return self._truth

    @cached_property
    def bags(self) -> tuple[Bag, ...]:
        """Read-only `Bag` views over the columns, for code that walks bags."""
        sets = [CandidateSet(self._instances[a:b]) for a, b in pairwise(self.set_offsets.tolist())]
        return tuple(
            Bag(label, tuple(sets[a:b]))
            for label, (a, b) in zip(self._labels.tolist(), pairwise(self.bag_offsets.tolist()))
        )


def _offsets(sizes) -> np.ndarray:
    """Segment boundaries: 0, then the running total of sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _locate(k: int, set_offsets: np.ndarray, bag_offsets: np.ndarray) -> str:
    """'bag b, candidate set c, instance i' of instance k."""
    s = int(np.searchsorted(set_offsets, k, side="right")) - 1
    b = int(np.searchsorted(bag_offsets, s, side="right")) - 1
    return f"bag {b}, candidate set {s - bag_offsets[b]}, instance {k - set_offsets[s]}"


def _parse(source_count, bags, truth) -> tuple:
    """Check JSON-shaped bags one by one, then all instance rows as one array.

    Returns the columns: source count, matrix, offsets, labels and truth."""
    source_count = _check_source_count(source_count)
    if not isinstance(bags, list) or not bags:
        raise ValidationError("bags must be a non-empty list")
    rows, labels, set_sizes, sets_per_bag = [], [], [], []
    for b, bag in enumerate(bags):
        if not isinstance(bag, dict) or not {"label", "candidate_sets"} <= bag.keys():
            raise ValidationError(f"bag {b}: expected label and candidate_sets fields")
        label, sets = bag["label"], bag["candidate_sets"]
        if type(label) is not int or label not in (0, 1):
            raise ValidationError(f"bag {b}: label must be the integer 0 or 1, got {label!r}")
        if not isinstance(sets, list) or not sets:
            raise ValidationError(f"bag {b}: candidate_sets must be a non-empty list")
        for c, set_rows in enumerate(sets):
            if not isinstance(set_rows, list) or not set_rows:
                raise ValidationError(f"bag {b}, candidate set {c}: must be a non-empty list")
            rows.extend(set_rows)
            set_sizes.append(len(set_rows))
        labels.append(label)
        sets_per_bag.append(len(sets))
    set_offsets, bag_offsets = _offsets(set_sizes), _offsets(sets_per_bag)

    try:
        X = np.array(rows, dtype=np.float64)
        # the float64 cast would also take strings, booleans and nulls;
        # NaN fails both range comparisons
        ok = (
            X.ndim == 2
            and X.shape[1] == source_count
            and set(map(type, chain.from_iterable(rows))) <= {int, float}
            and bool(((X >= 0.0) & (X <= 1.0)).all())
        )
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        k = next(k for k, row in enumerate(rows) if not (
            isinstance(row, list) and len(row) == source_count
            and all(type(v) in (int, float) and 0.0 <= v <= 1.0 for v in row)
        ))
        raise ValidationError(
            f"{_locate(k, set_offsets, bag_offsets)}: expected a list of "
            f"{source_count} numbers in [0, 1], got {rows[k]!r:.80}"
        )
    if truth is not None:
        truth = _flatten_truth(truth, set_sizes, sets_per_bag, set_offsets, bag_offsets)
    return source_count, X, set_offsets, bag_offsets, np.array(labels, dtype=np.int8), truth


def _flatten_truth(truth, set_sizes, sets_per_bag, set_offsets, bag_offsets) -> np.ndarray:
    """Per-instance truth nested like the bags, as one (N,) int8 array."""
    try:
        tsets = [tset for tbag in truth for tset in tbag]
        nested = [len(tbag) for tbag in truth] == sets_per_bag
        flat = list(chain.from_iterable(tsets)) if nested else []
    except TypeError:
        nested = False
    if not nested or [len(tset) for tset in tsets] != set_sizes:
        raise ValidationError("instance_truth does not nest like the bags, sets and instances")
    bad = next((k for k, t in enumerate(flat) if t not in (0, 1)), None)
    if bad is not None:
        raise ValidationError(
            f"instance_truth at {_locate(bad, set_offsets, bag_offsets)}: labels must be 0 or 1"
        )
    return np.array(flat, dtype=np.int8)


def has_both_polarities(ds: Dataset) -> bool:
    labels = ds.labels()
    return bool((labels == 0).any() and (labels == 1).any())


# ---------------------------------------------------------------------------
# JSON I/O


def dataset_to_dict(ds: Dataset) -> dict:
    def nest(flat: list) -> list:
        sets = [flat[a:b] for a, b in pairwise(ds.set_offsets.tolist())]
        return [sets[a:b] for a, b in pairwise(ds.bag_offsets.tolist())]

    obj = {
        "source_count": ds.source_count,
        "bags": [
            {"label": label, "candidate_sets": sets}
            for label, sets in zip(ds.labels().tolist(), nest(ds.instance_matrix().tolist()))
        ],
    }
    if ds.flat_truth() is not None:
        obj["instance_truth"] = nest(ds.flat_truth().tolist())
    return obj


def dataset_from_dict(obj: dict) -> Dataset:
    if not isinstance(obj, dict):
        raise ValidationError("dataset JSON must be an object")
    for field in ("source_count", "bags"):
        if field not in obj:
            raise ValidationError(f"dataset JSON is missing the {field} field")
    return Dataset._from_columns(
        *_parse(obj["source_count"], obj["bags"], obj.get("instance_truth"))
    )


def save_dataset(path, ds: Dataset) -> None:
    # json.dumps runs the C encoder, which json.dump never does; same bytes
    text = json.dumps(dataset_to_dict(ds))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    """Parse and validate a dataset file; diagnostics carry bag/set/instance indices."""
    return dataset_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Synthetic generation


# Largest instance count a synthesis spec may allow: its bag count times the
# upper ends of its set and instance ranges. The (N, S) float64 instance
# matrix alone takes 8 * S bytes per instance, 80 * S MB at the cap.
MAX_SYNTH_INSTANCES = 10**7


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic multi-resolution dataset with a known truth measure.

    sets_per_bag and instances_per_set are inclusive (lo, hi) ranges.
    noise_sigma is the per-value Gaussian noise applied after construction
    (clipped back to [0, 1]). Counts, range ends and rng_seed are stored as
    int, noise_sigma as an int or a float; a bool is refused. A spec whose
    upper bounds allow more than MAX_SYNTH_INSTANCES instances is refused
    with CapError once every field has passed its type check.
    """

    source_count: int
    n_pos_bags: int
    n_neg_bags: int
    sets_per_bag: tuple[int, int]
    instances_per_set: tuple[int, int]
    noise_sigma: float
    truth_measure: BinaryFuzzyMeasure
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "source_count", _check_source_count(self.source_count))
        for name, least in (("n_pos_bags", 1), ("n_neg_bags", 1), ("rng_seed", 0)):
            value = _check_integer(getattr(self, name), name)
            if value < least:
                raise ValidationError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)
        for name in ("sets_per_bag", "instances_per_set"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValidationError(f"{name} must be a (lo, hi) pair of integers, got {pair!r}")
            lo, hi = (_check_integer(x, name) for x in pair)
            if not 1 <= lo <= hi:
                raise ValidationError(f"{name} range ({lo}, {hi}) is empty or non-positive")
            object.__setattr__(self, name, (lo, hi))
        sigma = self.noise_sigma
        if isinstance(sigma, numbers.Real) and not isinstance(sigma, bool):
            # an int stays an int, as a spec file wrote it, and may be too large for a float
            sigma = int(sigma) if isinstance(sigma, numbers.Integral) else float(sigma)
        if type(sigma) not in (int, float) or not 0 <= sigma <= sys.float_info.max:
            raise ValidationError(f"noise_sigma must be a finite number >= 0, got {sigma!r:.80}")
        object.__setattr__(self, "noise_sigma", sigma)
        if not isinstance(self.truth_measure, BinaryFuzzyMeasure):
            raise ValidationError("truth_measure must be a BinaryFuzzyMeasure")
        bags = self.n_pos_bags + self.n_neg_bags
        most = bags * self.sets_per_bag[1] * self.instances_per_set[1]
        if most > MAX_SYNTH_INSTANCES:
            raise CapError(
                f"synthesis of up to {most} instances refused (cap {MAX_SYNTH_INSTANCES})"
            )
        _check_measure(self.truth_measure, self.source_count)


def spec_to_dict(spec: SynthSpec) -> dict:
    return {
        "source_count": spec.source_count,
        "n_pos_bags": spec.n_pos_bags,
        "n_neg_bags": spec.n_neg_bags,
        "sets_per_bag": list(spec.sets_per_bag),
        "instances_per_set": list(spec.instances_per_set),
        "noise_sigma": spec.noise_sigma,
        "truth_measure": measure_to_dict(spec.truth_measure),
        "rng_seed": spec.rng_seed,
    }


def spec_from_dict(obj: dict) -> SynthSpec:
    """Parse a spec object; `SynthSpec` checks the field values."""
    if not isinstance(obj, dict):
        raise ValidationError("synthesis spec must be a JSON object")
    missing = [field.name for field in fields(SynthSpec) if field.name not in obj]
    if missing:
        raise ValidationError(f"synthesis spec is missing field {missing[0]!r}")
    values = {field.name: obj[field.name] for field in fields(SynthSpec)}
    return SynthSpec(**{**values, "truth_measure": measure_from_dict(obj["truth_measure"])})


# Negative instances put their non-blocked confidences well above 0 so that
# measures disagreeing with the truth are penalized by a wide margin even
# under moderate noise.
_NEG_OFF_RANGE = (0.55, 1.0)


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Build a dataset whose noise-free optimum is the planted truth measure.

    Negative bags: each candidate set draws its own blocking set of sources
    (one member from each minimal winning coalition of the truth measure),
    shared by its instances; those confidences are exactly 0, the rest are
    high, so the truth measure fuses every instance to exactly 0 while any
    measure that wins a coalition missing the set's blockers fuses above 0.

    Positive bags: one candidate set per bag contains a target instance
    with confidence exactly 1 on one minimal winning coalition and exactly
    0 elsewhere, so the truth measure fuses it to exactly 1 while measures
    that win no sub-coalition of it fall short. Remaining sets and
    instances are uniform decoys, standing in for wrong matchings.

    With noise_sigma = 0 the training objective of the truth measure over
    the result is exactly 0. Per-instance truth labels (fused confidence
    under the truth measure >= 0.5, pre-noise) are attached for evaluation.
    """
    rng = substream(spec.rng_seed, "synth")
    truth = spec.truth_measure
    S = spec.source_count
    coalitions = minimal_winning_coalitions(truth)

    def n_in(rng_range):
        lo, hi = rng_range
        return int(rng.integers(lo, hi + 1))

    # one pass draws every set in the established stream order; the columns
    # are assembled once at the end
    labels = [0] * spec.n_neg_bags + [1] * spec.n_pos_bags
    blocks, sets_per_bag = [], []
    for label in labels:
        n_sets = n_in(spec.sets_per_bag)
        target_set = int(rng.integers(n_sets)) if label else -1
        for c in range(n_sets):
            if label:
                n_inst = n_in(spec.instances_per_set)
                inst = rng.uniform(0.0, 1.0, size=(n_inst, S))
                if c == target_set:
                    # CI-extremal: fuses to exactly 1 under the truth measure
                    coalition = coalitions[int(rng.integers(len(coalitions)))]
                    target = np.zeros(S)
                    target[list(coalition)] = 1.0
                    inst[int(rng.integers(n_inst))] = target
            else:
                blockers = sorted({int(rng.choice(coalition)) for coalition in coalitions})
                inst = rng.uniform(*_NEG_OFF_RANGE, size=(n_in(spec.instances_per_set), S))
                inst[:, blockers] = 0.0
            blocks.append(inst)
        sets_per_bag.append(n_sets)

    X = np.concatenate(blocks)
    # evaluation-only labels from the pre-noise fused confidences
    truth_labels = (choquet_batch(X, truth) >= 0.5).astype(np.int8)
    if spec.noise_sigma > 0:
        # one draw for the whole matrix takes the same stream as one per set
        X = np.clip(X + rng.normal(0.0, spec.noise_sigma, X.shape), 0.0, 1.0)

    set_offsets = _offsets([len(block) for block in blocks])
    labels = np.array(labels, dtype=np.int8)
    return Dataset._from_columns(S, X, set_offsets, _offsets(sets_per_bag), labels, truth_labels)
