"""Fuzzy measures on the subset lattice of a source set.

A measure assigns a weight to every subset (coalition) of the S fusion
sources. Subsets are encoded as bitmasks: bit i set means source i is in
the coalition, so subset containment is plain bitwise containment and the
value table is a flat array of length 2**S indexed by bitmask.

Sources are indexed from 0 throughout the Python API: a coalition goes in
as a bitmask or an iterable of source indices and comes out as a tuple of
them. JSON files and printed coalitions number sources from 1, the way
people label sensors; the serializers translate.

Two representations live here:

* BinaryFuzzyMeasure: values in {0, 1}. Equivalent to a monotone Boolean
  function with the empty set pinned to 0 and the full set pinned to 1;
  fully determined by its antichain of minimal winning coalitions.
* RealFuzzyMeasure: values in [0, 1] under the same three axioms
  (empty-set rule, normalization, monotonicity).

Measures are immutable values. Mutating operations return new measures and
always repair monotonicity, so anything constructed through this module
passes `validate`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapError, PinnedElementError, ValidationError

# Bit-array tables are capped at 2**24 entries; exhaustive enumeration is
# capped far lower because the number of measures explodes (see
# _MEASURE_COUNTS).
MAX_SOURCES = 24
ENUMERATION_CAP = 5

# Exact number of valid binary measures for small S (monotone set functions
# with both endpoints pinned). Used for cap-refusal messages and as frozen
# expectations in tests.
_MEASURE_COUNTS = {
    1: 1,
    2: 4,
    3: 18,
    4: 166,
    5: 7579,
    6: 7828352,
    7: 2414682040996,
    8: 56130437228687557907786,
    9: 286386577668298411128469151667598498812364,
}


def _check_integer(value, name: str) -> int:
    """An int or a numpy integer, never a bool, as an int."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_source_count(source_count: int) -> int:
    source_count = _check_integer(source_count, "source_count")
    if not 1 <= source_count <= MAX_SOURCES:
        raise ValidationError(f"source_count must be in [1, {MAX_SOURCES}], got {source_count}")
    return source_count


def _masks(source_count: int) -> np.ndarray:
    return np.arange(1 << source_count, dtype=np.uint32)


def _as_mask(subset, source_count: int) -> int:
    """The one subset parser: a bitmask, or an iterable of 0-based source
    indices. A bool is neither; anything else raises ValidationError."""
    if isinstance(subset, (int, np.integer)) and not isinstance(subset, bool):
        if not 0 <= subset < 1 << source_count:
            raise ValidationError(f"bitmask {subset} out of range for {source_count} sources")
        return int(subset)
    if not isinstance(subset, Iterable):
        raise ValidationError(f"a subset is a bitmask or an iterable of indices, got {subset!r}")
    mask = 0
    for i in subset:
        i = _check_integer(i, "a source index")
        if not 0 <= i < source_count:
            raise ValidationError(f"source index {i} out of range [0, {source_count})")
        mask |= 1 << i
    return mask


class _MeasureBase:
    """Shared behaviour of the two measure representations."""

    source_count: int
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, subset) -> float:
        return self.values[_as_mask(subset, self.source_count)].item()

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.source_count == other.source_count
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.source_count, self.values.tobytes()))


@dataclass(frozen=True, eq=False)
class BinaryFuzzyMeasure(_MeasureBase):
    """A {0,1}-valued set function on the 2**S subset lattice.

    The constructor checks only value domain and representation limits;
    axiom conformance is `validate`'s job so that invalid tables can still
    be built and diagnosed.
    """

    source_count: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source_count", _check_source_count(self.source_count))
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise ValidationError(f"values must be 1-D, got shape {values.shape}")
        if values.size and not np.isin(values, (0, 1)).all():
            raise ValidationError("binary measure values must all be 0 or 1")
        values = values.astype(np.uint8)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __repr__(self) -> str:
        if len(self.values) != 1 << self.source_count:
            return f"BinaryFuzzyMeasure(S={self.source_count}, len={len(self.values)})"
        coalitions = minimal_winning_coalitions(self)
        return f"BinaryFuzzyMeasure(S={self.source_count}, minimal_winning={coalitions})"


@dataclass(frozen=True, eq=False)
class RealFuzzyMeasure(_MeasureBase):
    """A [0,1]-valued set function on the 2**S subset lattice."""

    source_count: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source_count", _check_source_count(self.source_count))
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValidationError(f"values must be 1-D, got shape {values.shape}")
        if values.size and not ((values >= 0.0) & (values <= 1.0)).all():
            raise ValidationError("real measure values must all lie in [0, 1]")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __repr__(self) -> str:
        return f"RealFuzzyMeasure(S={self.source_count})"


Measure = BinaryFuzzyMeasure | RealFuzzyMeasure


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str  # "empty_set" | "normalization" | "monotonicity"
    subset_a: int
    subset_b: int | None = None

    def __str__(self) -> str:
        if self.axiom == "monotonicity":
            return (
                f"monotonicity violated: value({self.subset_a:#b}) > "
                f"value({self.subset_b:#b})"
            )
        return f"{self.axiom} rule violated at subset {self.subset_a:#b}"


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[AxiomViolation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(measure: Measure) -> ValidityReport:
    """Check the three measure axioms; report each violated axiom once.

    The monotonicity check covers all (A, A | {i}) covering pairs, which is
    equivalent to full pairwise monotonicity, in O(S * 2**S). A wrong table
    length is a structural problem, not an axiom violation, and raises.
    """
    n = 1 << measure.source_count
    if len(measure.values) != n:
        raise ValidationError(
            f"values length {len(measure.values)} != 2**{measure.source_count} = {n}"
        )
    v = measure.values
    violations = []
    if v[0] != 0:
        violations.append(AxiomViolation("empty_set", 0))
    if v[n - 1] != 1:
        violations.append(AxiomViolation("normalization", n - 1))

    best: tuple[int, int] | None = None  # first offending (A, A | bit) pair
    for i in range(measure.source_count):
        # the view of _close_up: [:, 1] holds each [:, 0] set plus source i
        pairs = v.reshape(n >> i + 1, 2, 1 << i)
        # the first offending A for this bit, or A = 0 when there is none
        high, low = divmod(int((pairs[:, 0] > pairs[:, 1]).argmax()), 1 << i)
        a = high << i + 1 | low
        if v[a] > v[a | 1 << i] and (best is None or (a, a | 1 << i) < best):
            best = (a, a | 1 << i)
    if best is not None:
        violations.append(AxiomViolation("monotonicity", best[0], best[1]))
    return ValidityReport(not violations, tuple(violations))


def _check_measure(measure: Measure, source_count: int) -> None:
    """Refuse a measure over other than `source_count` sources, with a wrong
    table length, or breaking an axiom: evaluation and fusion assume none."""
    if measure.source_count != source_count:
        raise ValidationError(
            f"measure covers {measure.source_count} sources, expected {source_count}"
        )
    report = validate(measure)
    if not report.ok:
        raise ValidationError(f"measure is invalid: {report.violations[0]}")


# ---------------------------------------------------------------------------
# Construction helpers


def minimum_measure(source_count: int) -> BinaryFuzzyMeasure:
    """Only the full coalition wins; Choquet fusion degenerates to min."""
    source_count = _check_source_count(source_count)
    values = np.zeros(1 << source_count, dtype=np.uint8)
    values[-1] = 1
    return BinaryFuzzyMeasure(source_count, values)


def maximum_measure(source_count: int) -> BinaryFuzzyMeasure:
    """Every non-empty coalition wins; Choquet fusion degenerates to max."""
    source_count = _check_source_count(source_count)
    values = np.ones(1 << source_count, dtype=np.uint8)
    values[0] = 0
    return BinaryFuzzyMeasure(source_count, values)


def from_minimal_coalitions(source_count: int, coalitions: Iterable) -> BinaryFuzzyMeasure:
    """Upward closure of the given winning coalitions (plus the full set).

    Accepts bitmasks or 0-based member iterables. The result is always
    a valid measure; the inputs need not form an antichain.
    """
    source_count = _check_source_count(source_count)
    values = np.zeros(1 << source_count, dtype=np.uint8)
    for subset in coalitions:
        mask = _as_mask(subset, source_count)
        if mask == 0:
            raise ValidationError("the empty set cannot be a winning coalition")
        values[mask] = 1
    values[-1] = 1
    _close_up(values[:, None])
    return BinaryFuzzyMeasure(source_count, values)


def set_with_repair(
    measure: BinaryFuzzyMeasure, subset, bit: int
) -> BinaryFuzzyMeasure:
    """Set one coalition's value and repair monotonicity by closure.

    Setting to 1 also raises every superset; setting to 0 also lowers every
    subset. The empty and full coalitions are pinned by the axioms and may
    not be targeted.
    """
    mask = _as_mask(subset, measure.source_count)
    if mask == 0 or mask == (1 << measure.source_count) - 1:
        raise PinnedElementError(
            "the empty set (always 0) and the full set (always 1) cannot be reassigned"
        )
    if bit not in (0, 1):
        raise ValidationError(f"bit must be 0 or 1, got {bit!r}")
    masks = _masks(measure.source_count)
    values = measure.values.copy()
    if bit == 1:
        values[(masks & mask) == mask] = 1
    else:
        values[(masks | mask) == mask] = 0
    return BinaryFuzzyMeasure(measure.source_count, values)


def sample_random(
    source_count: int, density: float = 0.5, seed=None
) -> BinaryFuzzyMeasure:
    """Random valid binary measure.

    Equivalent to visiting subsets in increasing-cardinality order and
    forcing a subset to 1 when any immediate subset already is, else
    drawing Bernoulli(density); implemented as the upward closure of one
    Bernoulli field, which has the same law. density -> 0 approaches the
    minimum measure, density -> 1 the maximum one.
    """
    source_count = _check_source_count(source_count)
    if not 0.0 < density < 1.0:
        raise ValidationError(f"density must lie strictly in (0, 1), got {density}")
    values = _random_table(source_count, density, np.random.default_rng(seed))
    return BinaryFuzzyMeasure(source_count, values)


def _random_table(source_count: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """The value table behind `sample_random`, drawn from `rng` with one call."""
    values = (rng.random(1 << source_count) < density).astype(np.uint8)
    values[[0, -1]] = 0, 1
    return _close_up(values[:, None])[:, 0]


def _close_up(tables: np.ndarray) -> np.ndarray:
    """Upward closure, in place, of every column of a (2**S, C) uint8 stack:
    a coalition wins when any subset of it did. C may be 0. A stack whose
    rows cannot be regrouped without a copy, such as a transposed one,
    raises ValueError rather than closing a copy."""
    n, cols = tables.shape
    for i in range(n.bit_length() - 1):  # subset-OR sweep: closes upward one bit at a time
        # axis 1 of this view is bit i: [:, 1] holds each [:, 0] set plus source i
        pairs = np.reshape(tables, (n >> i + 1, 2, cols << i), copy=False)
        pairs[:, 1] |= pairs[:, 0]
    return tables


def _minimal(tables: np.ndarray) -> np.ndarray:
    """Minimal winning coalitions of every column of a (2**S, C) uint8 stack
    of monotone tables: the winning rows with no winning immediate subset."""
    n, cols = tables.shape
    dominated = np.zeros_like(tables)
    for i in range(n.bit_length() - 1):
        shape = (n >> i + 1, 2, cols << i)
        dominated.reshape(shape)[:, 1] |= tables.reshape(shape)[:, 0]
    return tables & ~dominated


def sample_random_real(source_count: int, seed=None) -> RealFuzzyMeasure:
    """Random valid real measure via a lower-bound-respecting cardinality sweep.

    Each subset's value is uniform on [max over its immediate subsets, 1],
    so monotonicity holds by construction; endpoints are pinned exactly.
    """
    source_count = _check_source_count(source_count)
    values = _random_real_table(np.random.default_rng(seed).random((1 << source_count, 1)))
    return RealFuzzyMeasure(source_count, values[:, 0])


def _random_real_table(u: np.ndarray) -> np.ndarray:
    """The tables behind `sample_random_real` for a (2**S, C) stack of
    uniforms, one column per table, built one cardinality layer at a time."""
    source_count = len(u).bit_length() - 1
    masks = _masks(source_count)
    bits = 1 << np.arange(source_count)
    card = np.bitwise_count(masks)
    values = np.zeros_like(u)
    for k in range(1, source_count):
        layer = masks[card == k]
        # layer ^ bit is an immediate subset or a superset; supersets are still 0
        lo = values[layer[:, None] ^ bits].max(axis=1)
        values[layer] = lo + u[layer] * (1.0 - lo)
    values[-1] = 1.0
    return values


def enumerate_all(source_count: int) -> Iterator[BinaryFuzzyMeasure]:
    """Yield every valid binary measure on S sources exactly once.

    Measures come in serialization order (value tables compared as bytes).
    Refuses S above ENUMERATION_CAP at call time with a count estimate,
    because the count grows roughly like 2**C(S, S//2).
    """
    source_count = _check_source_count(source_count)
    return (BinaryFuzzyMeasure(source_count, table) for table in _all_tables(source_count).T)


def _all_tables(source_count: int) -> np.ndarray:
    """Every valid binary table on S sources as the columns of one uint8
    (2**S, count) stack, sorted as bytes.

    Built by doubling: a monotone table on one more source is a pair
    (f0, f1) of monotone tables with f0 <= f1 everywhere, f1 read where the
    new source is in. Pairs come out in row-major order, so byte order
    holds at every step; last, the endpoints are pinned.
    """
    if source_count > ENUMERATION_CAP:
        raise CapError(
            f"enumeration of S={source_count} refused (cap {ENUMERATION_CAP}): "
            f"there are {_estimate_count(source_count)} valid measures"
        )
    tables = np.array([[0], [1]], dtype=np.uint8)
    for _ in range(source_count):
        low, high = np.nonzero(~(tables[:, None] > tables[None]).any(axis=2))
        tables = np.concatenate([tables[low], tables[high]], axis=1)
    return np.ascontiguousarray(tables[(tables[:, 0] == 0) & (tables[:, -1] == 1)].T)


def count_all(source_count: int) -> int:
    """Exact count of valid binary measures, known up to S = 9."""
    try:
        return _MEASURE_COUNTS[source_count]
    except KeyError:
        raise CapError(f"exact measure count unknown for S={source_count}")


def _estimate_count(source_count: int):
    if source_count in _MEASURE_COUNTS:
        return _MEASURE_COUNTS[source_count]
    from math import comb

    return f"more than 2**{comb(source_count, source_count // 2)}"


def minimal_winning_coalitions(measure: BinaryFuzzyMeasure) -> list[tuple[int, ...]]:
    """The antichain of winning coalitions whose every immediate subset loses,
    each as a tuple of 0-based source indices.

    Sorted by cardinality then bitmask. Its upward closure reconstructs the
    measure exactly, so this is a complete, human-readable summary of which
    source combinations the measure trusts.
    """
    found = np.flatnonzero(_minimal(measure.values[:, None])[1:, 0]) + 1
    found = found[np.lexsort((found, np.bitwise_count(found)))]
    return [tuple(i for i in range(measure.source_count) if m >> i & 1) for m in found.tolist()]


# ---------------------------------------------------------------------------
# Serialization
#
# Full form:      {"source_count": S, "values": [v_0, ..., v_{2**S - 1}]}
# Antichain form: {"source_count": S, "minimal_winning": [[i, j, ...], ...]}
# (binary measures only). Binary values serialize as JSON integers, real
# values as JSON numbers; loading infers the kind from the value types.


def measure_to_dict(measure: Measure) -> dict:
    if isinstance(measure, BinaryFuzzyMeasure):
        values = [int(x) for x in measure.values]
    else:
        values = [float(x) for x in measure.values]
    return {"source_count": measure.source_count, "values": values}


def measure_to_antichain_dict(measure: BinaryFuzzyMeasure) -> dict:
    # JSON numbers sources from 1 (display convention); the API is 0-based
    if not isinstance(measure, BinaryFuzzyMeasure):
        raise ValidationError("the antichain form exists only for binary measures")
    return {
        "source_count": measure.source_count,
        "minimal_winning": [[i + 1 for i in c] for c in minimal_winning_coalitions(measure)],
    }


def measure_from_dict(obj) -> Measure:
    """Parse a bare measure object, or a `train` result's `result.best_measure`.

    Table length and axioms are checked: any bad input raises ValidationError.
    """
    if isinstance(obj, dict) and isinstance(obj.get("result"), dict):
        obj = obj["result"].get("best_measure")
    if not isinstance(obj, dict) or "source_count" not in obj:
        raise ValidationError("measure JSON must be an object with a source_count field")
    source_count = _check_source_count(obj["source_count"])
    if "minimal_winning" in obj:
        coalitions = obj["minimal_winning"]
        if not isinstance(coalitions, list):
            raise ValidationError("minimal_winning must be a list of coalitions")
        for c in coalitions:
            if not isinstance(c, list) or not all(
                type(i) is int and 1 <= i <= source_count for i in c
            ):
                raise ValidationError(
                    f"minimal_winning members must be source numbers in 1..{source_count}, got {c}"
                )
        return from_minimal_coalitions(source_count, [[i - 1 for i in c] for c in coalitions])
    if "values" not in obj:
        raise ValidationError("measure JSON needs either values or minimal_winning")
    values = obj["values"]
    # range first: an integer too large for a float would overflow in np.array
    if not isinstance(values, list) or not all(
        type(x) in (int, float) and 0 <= x <= 1 for x in values
    ):
        raise ValidationError("measure values must be a list of numbers in [0, 1]")
    kind = BinaryFuzzyMeasure if all(type(x) is int for x in values) else RealFuzzyMeasure
    measure = kind(source_count, np.array(values))
    _check_measure(measure, source_count)
    return measure


def save_measure(path, measure: Measure) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_dict(measure), fh, indent=2)
        fh.write("\n")


def _read_json(path):
    """Parse a JSON input file; malformed text is a ValidationError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}: not valid JSON: {e}") from e


def load_measure(path) -> Measure:
    return measure_from_dict(_read_json(path))
