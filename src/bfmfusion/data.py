"""Multi-resolution multiple-instance datasets: model, JSON I/O, synthesis.

The unit of supervision is the bag (one coarse-resolution region with a
binary label). A bag holds candidate sets, one per coarse unit it covers;
each candidate set lists the plausible cross-resolution matchings for that
unit, already expanded to length-S confidence vectors (instances). At
least one instance per candidate set is assumed to be the correct
matching; which one is unknown, which is exactly the uncertainty the
training objective integrates over.

JSON schema (UTF-8, plain decimal numbers):

    {"source_count": S,
     "bags": [{"label": 0|1, "candidate_sets": [[[s1, ..., sS], ...], ...]}, ...],
     "instance_truth": [[[0|1, ...], ...], ...]}   # optional, parallel nesting

`instance_truth` carries evaluation-only per-instance labels; training
never reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .choquet import choquet_batch
from .errors import ValidationError
from .measures import (
    BinaryFuzzyMeasure,
    measure_from_dict,
    measure_to_dict,
    minimal_winning_coalitions,
    validate,
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

    @property
    def n_instances(self) -> int:
        return sum(len(cs) for cs in self.candidate_sets)


@dataclass(frozen=True)
class Dataset:
    """A source count plus labeled bags; optionally per-instance truth labels."""

    source_count: int
    bags: tuple[Bag, ...]
    instance_truth: tuple | None = None

    def __post_init__(self):
        if isinstance(self.source_count, (int, np.integer)) and not isinstance(
            self.source_count, bool
        ):
            object.__setattr__(self, "source_count", int(self.source_count))
        object.__setattr__(self, "bags", tuple(self.bags))
        _check_dataset(self)

    @property
    def n_instances(self) -> int:
        return sum(bag.n_instances for bag in self.bags)

    def labels(self) -> np.ndarray:
        return np.array([bag.label for bag in self.bags], dtype=np.int8)

    def instance_matrix(self) -> np.ndarray:
        """All instances stacked in flatten order, shape (n_instances, S)."""
        return np.concatenate(
            [cs.instances for bag in self.bags for cs in bag.candidate_sets], axis=0
        )

    def flat_truth(self) -> np.ndarray | None:
        """instance_truth flattened in the same order, or None if absent."""
        if self.instance_truth is None:
            return None
        return np.array(
            [t for bag in self.instance_truth for cs in bag for t in cs], dtype=np.int8
        )


def _check_dataset(ds: Dataset) -> None:
    if not isinstance(ds.source_count, int) or ds.source_count < 1:
        raise ValidationError(f"source_count must be a positive integer, got {ds.source_count!r}")
    if not ds.bags:
        raise ValidationError("dataset has no bags")
    for b, bag in enumerate(ds.bags):
        for c, cs in enumerate(bag.candidate_sets):
            if cs.instances.shape[1] != ds.source_count:
                raise ValidationError(
                    f"bag {b}, candidate set {c}: instances have "
                    f"{cs.instances.shape[1]} sources, dataset declares {ds.source_count}"
                )
            bad = np.argwhere((cs.instances < 0.0) | (cs.instances > 1.0) | ~np.isfinite(cs.instances))
            if len(bad):
                k, s = bad[0]
                raise ValidationError(
                    f"bag {b}, candidate set {c}, instance {k}: confidence for "
                    f"source {s} is {cs.instances[k, s]}, outside [0, 1]"
                )
    if ds.instance_truth is not None:
        truth = ds.instance_truth
        if len(truth) != len(ds.bags):
            raise ValidationError("instance_truth does not parallel the bag list")
        for b, (bag, tbag) in enumerate(zip(ds.bags, truth)):
            if len(tbag) != len(bag.candidate_sets):
                raise ValidationError(f"instance_truth bag {b} does not parallel its candidate sets")
            for c, (cs, tset) in enumerate(zip(bag.candidate_sets, tbag)):
                if len(tset) != len(cs):
                    raise ValidationError(
                        f"instance_truth bag {b}, set {c} has {len(tset)} labels "
                        f"for {len(cs)} instances"
                    )
                if any(t not in (0, 1) for t in tset):
                    raise ValidationError(f"instance_truth bag {b}, set {c}: labels must be 0 or 1")


def has_both_polarities(ds: Dataset) -> bool:
    labels = ds.labels()
    return bool((labels == 0).any() and (labels == 1).any())


# ---------------------------------------------------------------------------
# JSON I/O


def dataset_to_dict(ds: Dataset) -> dict:
    obj = {
        "source_count": ds.source_count,
        "bags": [
            {
                "label": int(bag.label),
                "candidate_sets": [cs.instances.tolist() for cs in bag.candidate_sets],
            }
            for bag in ds.bags
        ],
    }
    if ds.instance_truth is not None:
        obj["instance_truth"] = [
            [[int(t) for t in tset] for tset in tbag] for tbag in ds.instance_truth
        ]
    return obj


def dataset_from_dict(obj: dict) -> Dataset:
    if not isinstance(obj, dict):
        raise ValidationError("dataset JSON must be an object")
    for field in ("source_count", "bags"):
        if field not in obj:
            raise ValidationError(f"dataset JSON is missing the {field} field")
    bags = []
    for b, bag_obj in enumerate(obj["bags"]):
        try:
            label = bag_obj["label"]
            sets_raw = bag_obj["candidate_sets"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"bag {b}: expected label and candidate_sets fields") from exc
        sets = []
        for c, rows in enumerate(sets_raw):
            try:
                arr = np.asarray(rows, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"bag {b}, candidate set {c}: malformed instance rows: {exc}"
                ) from exc
            if arr.size == 0:
                raise ValidationError(f"bag {b}, candidate set {c}: is empty")
            if arr.ndim != 2:
                raise ValidationError(f"bag {b}, candidate set {c}: ragged instance rows")
            sets.append(CandidateSet(arr))
        try:
            bags.append(Bag(label=label, candidate_sets=tuple(sets)))
        except ValidationError as exc:
            raise ValidationError(f"bag {b}: {exc}") from exc
    truth = obj.get("instance_truth")
    if truth is not None:
        truth = tuple(tuple(tuple(tset) for tset in tbag) for tbag in truth)
    return Dataset(source_count=obj["source_count"], bags=tuple(bags), instance_truth=truth)


def save_dataset(path, ds: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_dict(ds), fh)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    """Parse and validate a dataset file; diagnostics carry bag/set/instance indices."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    return dataset_from_dict(obj)


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic multi-resolution dataset with a known truth measure.

    sets_per_bag and instances_per_set are inclusive (lo, hi) ranges.
    noise_sigma is the per-value Gaussian noise applied after construction
    (clipped back to [0, 1]).
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
        object.__setattr__(self, "sets_per_bag", tuple(self.sets_per_bag))
        object.__setattr__(self, "instances_per_set", tuple(self.instances_per_set))
        if self.n_pos_bags < 1 or self.n_neg_bags < 1:
            raise ValidationError("need at least one bag of each polarity")
        for name in ("sets_per_bag", "instances_per_set"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValidationError(f"{name} range ({lo}, {hi}) is empty or non-positive")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        if not isinstance(self.truth_measure, BinaryFuzzyMeasure):
            raise ValidationError("truth_measure must be a BinaryFuzzyMeasure")
        if self.truth_measure.source_count != self.source_count:
            raise ValidationError(
                f"truth_measure covers {self.truth_measure.source_count} sources, "
                f"spec declares {self.source_count}"
            )
        report = validate(self.truth_measure)
        if not report.ok:
            raise ValidationError(f"truth_measure is invalid: {report.violations[0]}")


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


def _is_count(x) -> bool:
    return type(x) is int and x >= 0  # a JSON integer; bool is not one


def _is_range(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(_is_count(i) for i in x)


def _spec_field(obj: dict, name: str, ok=_is_count, kind="a non-negative integer"):
    if name not in obj:
        raise ValidationError(f"synthesis spec is missing field {name!r}")
    if not ok(obj[name]):
        raise ValidationError(f"synthesis spec field {name} must be {kind}, got {obj[name]!r}")
    return obj[name]


def spec_from_dict(obj: dict) -> SynthSpec:
    """Parse a spec object, checking each field's JSON type before use."""
    if not isinstance(obj, dict):
        raise ValidationError("synthesis spec must be a JSON object")
    pair = "a [lo, hi] pair of integers"
    return SynthSpec(
        source_count=_spec_field(obj, "source_count"),
        n_pos_bags=_spec_field(obj, "n_pos_bags"),
        n_neg_bags=_spec_field(obj, "n_neg_bags"),
        sets_per_bag=tuple(_spec_field(obj, "sets_per_bag", _is_range, pair)),
        instances_per_set=tuple(_spec_field(obj, "instances_per_set", _is_range, pair)),
        noise_sigma=_spec_field(
            obj, "noise_sigma", lambda x: type(x) in (int, float), "a number"
        ),
        truth_measure=measure_from_dict(
            _spec_field(obj, "truth_measure", lambda x: isinstance(x, dict), "an object")
        ),
        rng_seed=_spec_field(obj, "rng_seed"),
    )


# Negative instances put their non-blocked confidences well above 0 so that
# measures disagreeing with the truth are penalized by a wide margin even
# under moderate noise.
_NEG_OFF_RANGE = (0.55, 1.0)


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Build a dataset whose noise-free optimum is the planted truth measure.

    Negative bags: every candidate set shares a blocking set of sources (one
    member drawn from each minimal winning coalition of the truth measure);
    those confidences are exactly 0, the rest are high, so the truth measure
    fuses every instance to exactly 0 while any measure that wins a
    coalition missing the blockers fuses above 0.

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
    coalitions = [c.members for c in minimal_winning_coalitions(truth)]

    def n_in(rng_range):
        lo, hi = rng_range
        return int(rng.integers(lo, hi + 1))

    bags = []
    for _ in range(spec.n_neg_bags):
        sets = []
        for _ in range(n_in(spec.sets_per_bag)):
            blockers = sorted({int(rng.choice(c)) for c in coalitions})
            n_inst = n_in(spec.instances_per_set)
            lo, hi = _NEG_OFF_RANGE
            inst = rng.uniform(lo, hi, size=(n_inst, S))
            inst[:, blockers] = 0.0
            sets.append(CandidateSet(inst))
        bags.append(Bag(label=0, candidate_sets=tuple(sets)))

    for _ in range(spec.n_pos_bags):
        n_sets = n_in(spec.sets_per_bag)
        target_set = int(rng.integers(n_sets))
        sets = []
        for c in range(n_sets):
            n_inst = n_in(spec.instances_per_set)
            inst = rng.uniform(0.0, 1.0, size=(n_inst, S))
            if c == target_set:
                # CI-extremal: fuses to exactly 1 under the truth measure
                coalition = coalitions[int(rng.integers(len(coalitions)))]
                target = np.zeros(S)
                target[list(coalition)] = 1.0
                inst[int(rng.integers(n_inst))] = target
            sets.append(CandidateSet(inst))
        bags.append(Bag(label=1, candidate_sets=tuple(sets)))

    # evaluation-only labels from the pre-noise fused confidences
    truth_labels = tuple(
        tuple(
            tuple(int(v >= 0.5) for v in choquet_batch(cs.instances, truth))
            for cs in bag.candidate_sets
        )
        for bag in bags
    )

    if spec.noise_sigma > 0:
        noisy = []
        for bag in bags:
            sets = tuple(
                CandidateSet(
                    np.clip(
                        cs.instances + rng.normal(0.0, spec.noise_sigma, cs.instances.shape),
                        0.0,
                        1.0,
                    )
                )
                for cs in bag.candidate_sets
            )
            noisy.append(Bag(label=bag.label, candidate_sets=sets))
        bags = noisy

    return Dataset(source_count=S, bags=tuple(bags), instance_truth=truth_labels)
