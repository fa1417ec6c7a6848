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
validated once, by whole-array checks. `_address` reads the bag,
candidate set and instance of a row, or of each of an array of rows,
from the offsets, for diagnostics and fusion CSV rows. `Bag` and
`CandidateSet` build hand-made datasets and serve as read-only views.

JSON schema (UTF-8, plain decimal numbers):

    {"source_count": S,
     "bags": [{"label": 0|1, "candidate_sets": [[[s1, ..., sS], ...], ...]}, ...],
     "instance_truth": [[[0|1, ...], ...], ...]}   # optional, parallel nesting

`instance_truth` carries evaluation-only per-instance labels; training
never reads it.

JSON I/O holds arrays, not trees, nor a file's whole text. `save_dataset`
writes the bytes of `json.dumps(dataset_to_dict(ds))` a block of bags at a
time, one C-encoder call a block. `load_dataset` reads the text through a
window of a few chunks, decodes the items of `bags` and `instance_truth`
one at a time, and packs each bag as it is decoded into a float64 rows
array and its set sizes, when every row is a list of ints and floats of
one length: `_pack` is the one conversion of JSON rows. The width and
range checks run once, on the whole matrix, as on the `CandidateSet`
arrays of a hand-made `Dataset`; only a refusal walks the rows as
written. Input the window does not take, and every refused file, is read
again as plain JSON, so the plain reading decides it and words every
refusal.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, pairwise
from typing import NamedTuple

import numpy as np

from .choquet import _blocks
from .errors import CapError, ValidationError
from .measures import (
    BinaryFuzzyMeasure,
    _check_integer,
    _check_measure,
    _check_real,
    _check_source_count,
    _frozen,
    _in_unit_interval,
    _is_bit,
    _read_json,
    _Value,
    measure_from_dict,
    measure_to_dict,
    minimal_winning_coalitions,
)
from .rng import substream


@dataclass(frozen=True, eq=False)
class CandidateSet(_Value):
    """The plausible matchings for one coarse unit: an (n, S) matrix, n >= 1,
    float64 where numpy reads it as numbers. Bool, string and other object
    values are kept as given, so that `Dataset` refuses their rows as the
    loader refuses such rows, and never reads True as 1.0 or "0.5" as 0.5."""

    instances: np.ndarray

    def __post_init__(self):
        instances = self.instances
        if isinstance(instances, np.ndarray) and instances.dtype != object:
            numbers = instances.dtype.kind in "iuf"
        else:
            # numpy reads True, "0.5" and None among numbers as 1.0, 0.5 and
            # nan, so each value's own type decides
            instances = np.asarray(instances, dtype=object)
            numbers = all(
                isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
                for v in instances.flat
            )
        if numbers:
            instances = instances.astype(np.float64, copy=False)
        # numpy reads rows of unequal lengths as a 1-D array of them: kept so,
        # one row an instance, as the loader reads them
        if not (instances.ndim == 1 and any(type(v) is list for v in instances)):
            instances = np.atleast_2d(instances)
            if instances.ndim != 2:
                raise ValidationError(
                    f"instances must form a 2-D matrix, got shape {instances.shape}"
                )
        if instances.size == 0:
            raise ValidationError("a candidate set needs at least one instance")
        object.__setattr__(self, "instances", _frozen(instances))

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class Bag:
    label: int
    candidate_sets: tuple[CandidateSet, ...]

    def __post_init__(self):
        if not _is_bit(self.label):
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
    """Labeled bags stored as columns. The constructor takes hand-made `Bag`s, in
    any iterable, and truth nested like them, and checks their arrays as the
    loader checks rows; the loader and the generator build the columns in bulk."""

    def __init__(self, source_count, bags, instance_truth=None):
        source_count, bags = _check_source_count(source_count), list(bags)
        if not bags:
            raise ValidationError("bags must be a non-empty list")
        sets = [cs.instances for bag in bags for cs in bag.candidate_sets]
        self._set_columns(*_columns(
            source_count, [x if x.dtype == np.float64 else None for x in sets], sets,
            list(map(len, sets)),
            [len(bag.candidate_sets) for bag in bags], [bag.label for bag in bags], instance_truth,
        ))

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


def _address(k, set_offsets: np.ndarray, bag_offsets: np.ndarray) -> tuple:
    """(bag, candidate set in its bag, instance in its set) of instance
    index k, or of each index in an array of them."""
    s = np.searchsorted(set_offsets, k, side="right") - 1
    b = np.searchsorted(bag_offsets, s, side="right") - 1
    return b, s - bag_offsets[b], k - set_offsets[s]


def _locate(k: int, set_offsets: np.ndarray, bag_offsets: np.ndarray) -> str:
    """'bag b, candidate set c, instance i' of instance k."""
    return "bag {}, candidate set {}, instance {}".format(*_address(k, set_offsets, bag_offsets))


def _bag_blocks(offsets: np.ndarray, budget: int) -> list[slice]:
    """Slices of whole bags that cover them in order, given `offsets` of
    their items (sets or rows): each block starts at the bag that holds item
    k * budget, so it holds fewer than `budget` items besides its first
    bag's."""
    starts = np.searchsorted(offsets, np.arange(0, offsets[-1], budget), side="right") - 1
    return [slice(a, b) for a, b in pairwise([*dict.fromkeys(starts.tolist()), len(offsets) - 1])]


class _PackedSets(NamedTuple):
    """A bag's candidate sets as one float64 (rows, width) array and the set sizes."""

    rows: np.ndarray
    sizes: tuple


def _pack(sets) -> _PackedSets | None:
    """A bag's JSON candidate sets packed, if they are a non-empty list of
    non-empty lists of rows that are lists of ints and floats of one length,
    none too large for a float64; else None. Never raises."""
    # each check is one pass in C: the loader calls this once a bag
    if type(sets) is not list or set(map(type, sets)) != {list} or not all(sets):
        return None
    rows = list(chain.from_iterable(sets))
    if set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
        return None
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        return None
    try:
        return _PackedSets(np.array(rows, dtype=np.float64), tuple(map(len, sets)))
    except OverflowError:
        return None


def _parse(source_count, bags, truth) -> tuple:
    """Check JSON-shaped bags one by one, packing each where `_pack` can,
    then all instance rows as one array.

    Returns the columns: source count, matrix, offsets, labels and truth."""
    source_count = _check_source_count(source_count)
    if not isinstance(bags, list) or not bags:
        raise ValidationError("bags must be a non-empty list")
    arrays, written, labels, set_sizes, sets_per_bag = [], [], [], [], []
    for b, bag in enumerate(bags):
        if not isinstance(bag, dict) or not {"label", "candidate_sets"} <= bag.keys():
            raise ValidationError(f"bag {b}: expected label and candidate_sets fields")
        label, sets = bag["label"], bag["candidate_sets"]
        if not _is_bit(label):
            raise ValidationError(f"bag {b}: label must be the integer 0 or 1, got {label!r}")
        packed = sets if isinstance(sets, _PackedSets) else _pack(sets)
        if packed is None:
            if type(sets) is not list or not sets:
                raise ValidationError(f"bag {b}: candidate_sets must be a non-empty list")
            for c, set_rows in enumerate(sets):
                if type(set_rows) is not list or not set_rows:
                    raise ValidationError(f"bag {b}, candidate set {c}: must be a non-empty list")
            packed = None, tuple(map(len, sets))
        rows, sizes = packed
        arrays.append(rows)
        written.append(rows if packed is sets else sets)  # the decoder's array, or the sets
        set_sizes.extend(sizes)
        sets_per_bag.append(len(sizes))
        labels.append(label)
    return _columns(source_count, arrays, written, set_sizes, sets_per_bag, labels, truth)


def _columns(source_count, arrays, written, set_sizes, sets_per_bag, labels, truth) -> tuple:
    """The columns of bags from their rows in flatten order, as float64
    `arrays` (None where rows did not pack) and as `written` (float64 arrays
    or lists of JSON candidate sets); their set sizes and counts, labels and
    nested truth. The width and range checks run once, on the whole matrix;
    only if they fail are the rows as written walked, to name the first bad one."""
    set_offsets, bag_offsets = _offsets(set_sizes), _offsets(sets_per_bag)
    try:  # a None or two widths fail here
        X = np.concatenate(arrays)
        ok = X.shape[1] == source_count and _in_unit_interval(X)
    except ValueError:
        ok = False
    if not ok:
        rows = chain.from_iterable(
            w.tolist() if isinstance(w, np.ndarray) else chain.from_iterable(w) for w in written
        )
        k, row = next((k, row) for k, row in enumerate(rows) if not (
            type(row) is list and len(row) == source_count
            and all(type(v) in (int, float) and 0.0 <= v <= 1.0 for v in row)
        ))
        raise ValidationError(
            f"{_locate(k, set_offsets, bag_offsets)}: expected a list of "
            f"{source_count} numbers in [0, 1], got {row!r:.80}"
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
    # one pass in C over Python ints; only a refusal, or labels of numpy
    # integer types, walks them one by one
    if not (set(map(type, flat)) == {int} and set(flat) <= {0, 1}):
        bad = next((k for k, t in enumerate(flat) if not _is_bit(t)), None)
        if bad is not None:
            raise ValidationError(
                f"instance_truth at {_locate(bad, set_offsets, bag_offsets)}: "
                f"labels must be the integer 0 or 1, got {flat[bad]!r}"
            )
    return np.array(flat, dtype=np.int8)


# ---------------------------------------------------------------------------
# JSON I/O


def _nested(ds: Dataset, column: np.ndarray, bags: slice) -> list:
    """The rows of `column`, a per-instance array, in the bags `bags`, as
    nested lists: one per bag, holding one per candidate set."""
    sets = ds.bag_offsets[bags.start : bags.stop + 1]
    rows = ds.set_offsets[sets[0] : sets[-1] + 1]
    nested = column[rows[0] : rows[-1]].tolist()
    # split rows into candidate sets, then sets into bags
    for offsets in ((rows - rows[0]).tolist(), (sets - sets[0]).tolist()):
        nested = [nested[a:b] for a, b in pairwise(offsets)]
    return nested


def _bag_dicts(ds: Dataset, X: np.ndarray, bags: slice) -> list:
    return [
        {"label": label, "candidate_sets": sets}
        for label, sets in zip(ds.labels()[bags].tolist(), _nested(ds, X, bags))
    ]


def dataset_to_dict(ds: Dataset) -> dict:
    every = slice(0, len(ds.labels()))
    obj = {"source_count": ds.source_count, "bags": _bag_dicts(ds, ds.instance_matrix(), every)}
    truth = ds.flat_truth()
    if truth is not None:
        obj["instance_truth"] = _nested(ds, truth, every)
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


# confidences in a block of `save_dataset`: while the C encoder runs, a
# block holds about 150 bytes a confidence (0.6 MiB) as Python objects and text
_WRITE_BLOCK = 1 << 12


def save_dataset(path, ds: Dataset) -> None:
    """Write `json.dumps(dataset_to_dict(ds))` and a newline, byte for byte,
    a block of bags at a time, so no tree or text of the whole dataset is
    formed. Each block is one `json.dumps` call, which runs the C encoder
    (`json.dump` never does), and its list brackets are dropped."""
    blocks = _bag_blocks(ds.set_offsets[ds.bag_offsets], _WRITE_BLOCK // ds.source_count)
    X, truth = ds.instance_matrix(), ds.flat_truth()

    def write_list(fh, items) -> None:
        fh.write("[")
        for i, bags in enumerate(blocks):
            fh.write(", " if i else "")
            fh.write(json.dumps(items(bags))[1:-1])
        fh.write("]")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"source_count": {ds.source_count}, "bags": ')
        write_list(fh, lambda bags: _bag_dicts(ds, X, bags))
        if truth is not None:
            fh.write(', "instance_truth": ')
            write_list(fh, lambda bags: _nested(ds, truth, bags))
        fh.write("}\n")


# characters `_Window` reads from a dataset file at a time
_CHUNK = 1 << 16

_SPACE = re.compile(r"[ \t\n\r]*").match
_scan = json.JSONDecoder().scan_once


class _Refused(Exception):
    """Input the window reader does not take: the plain reading decides."""


class _Window:
    """A dataset file's text from the value being read on, read `_CHUNK`
    characters at a time. Where a value does not parse, as where the window
    ends inside it, the window reads on, at least as much as it holds, so
    that a value of any length is parsed a number of times logarithmic in
    it, in time linear in it; where the input has ended, it refuses."""

    def __init__(self, fh):
        self.fh, self.text, self.at = fh, "", 0

    def value(self, chars: str) -> tuple:
        """The JSON value after the whitespace at `at` and the delimiter in
        `chars` after it, read past. Another character reads on, as the end
        of a number the window cut does (1e of 1e5)."""
        if len(self.text) - self.at < _CHUNK // 2:
            self.more()  # before a parse fails: a failed one scans the window to word its error
        while True:
            text = self.text
            try:
                value, at = _scan(text, _SPACE(text, self.at).end())
                at = _SPACE(text, at).end()
                if text[at] in chars:
                    self.at = at + 1
                    return value, text[at]
            except (StopIteration, ValueError, IndexError, RecursionError):
                pass
            if not self.more():
                raise _Refused

    def punct(self, chars: str) -> str:
        """The character in `chars` after the whitespace at `at`, read past;
        "" where another character follows or the input ends."""
        while True:
            at = _SPACE(self.text, self.at).end()
            if at < len(self.text):
                if self.text[at] not in chars:
                    return ""
                self.at = at + 1
                return self.text[at]
            if not self.more():
                return ""

    def more(self) -> bool:
        """Reads on; False at the end of the input."""
        chunk = self.fh.read(max(_CHUNK, len(self.text) - self.at))
        self.text, self.at = self.text[self.at :] + chunk, 0
        return bool(chunk)


def _read_object(window: _Window) -> dict:
    """The top-level object of a dataset file, through `window`: the items
    of its bags and instance_truth lists decoded one by one, each bag's
    candidate sets packed where `_pack` can, other values whole. Input
    that is not one such object and whitespace is refused."""
    obj, char = {}, "," if window.punct("{") else ""
    while char == ",":
        key, _ = window.value(":")
        if type(key) is not str:
            raise _Refused
        if key in ("bags", "instance_truth") and window.punct("["):
            value, char = [], ","
            while char == ",":
                item, char = window.value(",]")
                if key == "bags" and type(item) is dict and "candidate_sets" in item:
                    packed = _pack(item["candidate_sets"])
                    if packed is not None:
                        item["candidate_sets"] = packed
                value.append(item)
            char = window.punct(",}")
        else:
            value, char = window.value(",}")
        obj[key] = value
    if char != "}":
        raise _Refused
    while True:
        window.at = _SPACE(window.text, window.at).end()
        if window.at < len(window.text):
            raise _Refused
        if not window.more():
            return obj


def load_dataset(path) -> Dataset:
    """Parse and validate a dataset file; diagnostics carry bag/set/instance
    indices. The file's text is read through a window of `_CHUNK`
    characters and more, as `_Window` needs, one bag at a time, and each
    bag's candidate sets are packed as they are decoded (see `_pack`), so
    neither the file's bytes nor its text nor its values as Python floats
    are ever held whole. A pipe reads once, so the window holds its whole
    text, its bytes decoded at once: a byte that is not UTF-8 is placed in
    the input, not in a block of it.

    Input the window reader does not take, and every refusal, go to the
    plain reading, `dataset_from_dict(json.load(...))`, which decides and
    words the refusal; for a pipe, it reads the text the window held."""
    with open(path, "r", encoding="utf-8") as fh:
        window, text = _Window(fh), None
        if not fh.seekable():
            try:
                text = window.text = fh.buffer.read().decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValidationError(f"{path}: not valid JSON: {e}") from e
        try:
            return dataset_from_dict(_read_object(window))
        except (_Refused, ValidationError, UnicodeDecodeError):
            pass
        obj = _read_json(path, text)
    return dataset_from_dict(obj)


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
        sigma = _check_real(self.noise_sigma, "noise_sigma")
        if sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {sigma!r:.80}")
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
    """The fields in declared order: ranges as lists, the measure as its dict."""
    out = {field.name: getattr(spec, field.name) for field in fields(SynthSpec)}
    ranges = {name: list(value) for name, value in out.items() if isinstance(value, tuple)}
    return {**out, **ranges, "truth_measure": measure_to_dict(spec.truth_measure)}


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

    # each kind of draw is one call over every bag, set or row: set counts,
    # instance counts, each positive bag's target set, row and coalition,
    # the confidences, the blockers, the noise
    labels = np.repeat(np.array([0, 1], dtype=np.int8), [spec.n_neg_bags, spec.n_pos_bags])
    sets_per_bag = rng.integers(*spec.sets_per_bag, size=len(labels), endpoint=True)
    bag_offsets = _offsets(sets_per_bag)
    set_sizes = rng.integers(*spec.instances_per_set, size=bag_offsets[-1], endpoint=True)
    set_offsets = _offsets(set_sizes)
    pos = slice(spec.n_neg_bags, None)
    target_set = bag_offsets[:-1][pos] + rng.integers(0, sets_per_bag[pos])
    target_row = set_offsets[target_set] + rng.integers(0, set_sizes[target_set])
    target = rng.integers(len(coalitions), size=spec.n_pos_bags)

    neg_sets = bag_offsets[spec.n_neg_bags]
    neg_rows = set_offsets[neg_sets]
    low = np.zeros((set_offsets[-1], 1))
    low[:neg_rows] = _NEG_OFF_RANGE[0]
    X = rng.uniform(low, _NEG_OFF_RANGE[1], size=(set_offsets[-1], S))
    # negative sets: one member of each minimal winning coalition blocks,
    # at exactly 0 in every instance of the set; a positive bag's target row
    # is the indicator of its coalition, CI-extremal: it fuses to exactly 1
    blocked = np.zeros((neg_sets, S), dtype=bool)
    indicators = np.zeros((len(coalitions), S))
    for i, coalition in enumerate(coalitions):
        members = np.array(coalition)
        blocked[np.arange(neg_sets), members[rng.integers(len(members), size=neg_sets)]] = True
        indicators[i, members] = 1.0
    X[:neg_rows][np.repeat(blocked, set_sizes[:neg_sets], axis=0)] = 0.0
    X[target_row] = indicators[target]

    # evaluation-only labels from the pre-noise fused confidences: in the
    # max-min form of a binary measure, CI >= 0.5 exactly when some winning
    # coalition lies at or above 0.5, that is, by monotonicity, when the
    # coalition of the sources at or above 0.5 wins
    above = np.zeros(len(X), dtype=np.intp)
    for i in range(S):
        above += np.left_shift(X[:, i] >= 0.5, i, dtype=np.intp)
    truth_labels = truth.values.astype(np.int8)[above]
    if spec.noise_sigma > 0:
        # drawn and added a block of rows at a time: the same draws as one
        # call, and no second (N, S) array
        for rows in _blocks(len(X), S):
            block = X[rows]
            block += rng.normal(0.0, spec.noise_sigma, block.shape)
            np.clip(block, 0.0, 1.0, out=block)
    return Dataset._from_columns(S, X, set_offsets, bag_offsets, labels, truth_labels)
