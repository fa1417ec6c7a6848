"""Fuzzy measures on the subset lattice of a source set.

A measure assigns a weight to every subset (coalition) of the S fusion
sources. Subsets are encoded as bitmasks: bit i set means source i is in
the coalition, so subset containment is plain bitwise containment and the
value table is a flat array of exactly 2**S entries indexed by bitmask.
Binary tables in bulk are bitsets of 8 coalitions a byte (see `_pack`),
the layout of the repair move, `_children`, and of the enumeration.

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
import numbers
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import comb

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


def _is_bit(value) -> bool:
    """An int or a numpy integer, never a bool, equal to 0 or 1: the rule for
    bag labels, instance truth and binary measure bits."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value in (0, 1)


def _check_real(value, name: str) -> int | float:
    """A real number, never a bool, at most the largest float in size, as
    an int or a float."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        # an int stays an int, as a file wrote it, and may be too large for a float
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{name} must be a finite real number, got {value!r:.80}")
    return value


def _in_unit_interval(x: np.ndarray) -> bool:
    """Every value of x in [0, 1], not NaN, checked with no temporary array."""
    return x.size == 0 or bool(x.min() >= 0.0 and x.max() <= 1.0)


def _check_source_count(source_count: int) -> int:
    source_count = _check_integer(source_count, "source_count")
    if not 1 <= source_count <= MAX_SOURCES:
        raise ValidationError(f"source_count must be in [1, {MAX_SOURCES}], got {source_count}")
    return source_count


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


class _Value:
    """A frozen value that holds arrays: equal to one of its own type whose
    fields are all equal, arrays elementwise. Defining __eq__ leaves
    __hash__ None, so a subclass is unhashable unless it defines its own."""

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and all(
            map(np.array_equal, vars(self).values(), vars(other).values())
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of `array`; the caller's array stays writable."""
    view = array.view()
    view.flags.writeable = False
    return view


class _MeasureBase(_Value):
    """Shared behaviour of the two measure representations."""

    source_count: int
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, subset) -> float:
        return self.values[_as_mask(subset, self.source_count)].item()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.source_count, self.values.tobytes()))

    def _store(self, values: np.ndarray) -> None:
        """Keep `values` read-only as the table, refused unless 2**S long."""
        n = 1 << self.source_count
        if len(values) != n:
            raise ValidationError(f"values length {len(values)} != 2**{self.source_count} = {n}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class BinaryFuzzyMeasure(_MeasureBase):
    """A {0,1}-valued set function on the 2**S subset lattice.

    The constructor checks the value domain and the table length, 2**S;
    axiom conformance is `validate`'s job so that invalid tables can still
    be built and diagnosed.
    """

    source_count: int
    values: np.ndarray

    def __post_init__(self):
        values = self.values
        # unset until stored, so a measure refused here shows no structure
        object.__setattr__(self, "values", None)
        object.__setattr__(self, "source_count", _check_source_count(self.source_count))
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValidationError(f"values must be 1-D, got shape {values.shape}")
        if not np.isin(values, (0, 1)).all():
            raise ValidationError("binary measure values must all be 0 or 1")
        self._store(values.astype(np.uint8))

    def __repr__(self) -> str:
        if self.values is None:
            return f"BinaryFuzzyMeasure(S={self.source_count!r}, table not stored)"
        coalitions = minimal_winning_coalitions(self)
        return f"BinaryFuzzyMeasure(S={self.source_count}, minimal_winning={coalitions})"


@dataclass(frozen=True, eq=False)
class RealFuzzyMeasure(_MeasureBase):
    """A [0,1]-valued set function on the 2**S subset lattice; the
    constructor checks the value range and the table length, 2**S."""

    source_count: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source_count", _check_source_count(self.source_count))
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValidationError(f"values must be 1-D, got shape {values.shape}")
        if not _in_unit_interval(values):
            raise ValidationError("real measure values must all lie in [0, 1]")
        self._store(values.copy())

    def __repr__(self) -> str:
        return f"RealFuzzyMeasure(S={self.source_count})"


Measure = BinaryFuzzyMeasure | RealFuzzyMeasure


def _check_binary(measure: Measure, what: str) -> None:
    """Refuse a measure that is not binary, since `what` is not defined for it."""
    if not isinstance(measure, BinaryFuzzyMeasure):
        raise ValidationError(f"{what} exists only for binary measures")


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
    equivalent to full pairwise monotonicity, in O(S * 2**S). The table
    length needs no check: a measure of the wrong length cannot be built.
    """
    n = 1 << measure.source_count
    v = measure.values
    violations = []
    if v[0] != 0:
        violations.append(AxiomViolation("empty_set", 0))
    if v[n - 1] != 1:
        violations.append(AxiomViolation("normalization", n - 1))

    best: tuple[int, int] | None = None  # first offending (A, A | bit) pair
    for i in range(measure.source_count):
        # coalitions paired across bit i: [:, 1] holds each [:, 0] set plus source i
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
    """Refuse a measure over other than `source_count` sources or breaking
    an axiom: evaluation, fusion and the antichain form assume neither."""
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
    return from_minimal_coalitions(source_count, [])


def maximum_measure(source_count: int) -> BinaryFuzzyMeasure:
    """Every non-empty coalition wins; Choquet fusion degenerates to max."""
    singletons = [1 << i for i in range(_check_source_count(source_count))]
    return from_minimal_coalitions(source_count, singletons)


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
    return BinaryFuzzyMeasure(source_count, _closure(values, source_count))


def set_with_repair(
    measure: BinaryFuzzyMeasure, subset, bit: int
) -> BinaryFuzzyMeasure:
    """Set one coalition's value and repair monotonicity by closure.

    Setting to 1 also raises every superset; setting to 0 also lowers every
    subset; nothing else changes. This is the search's move, `_children`.
    The empty and full coalitions are pinned and may not be targeted.
    """
    _check_binary(measure, "the repair move")
    mask = _as_mask(subset, measure.source_count)
    if mask == 0 or mask == (1 << measure.source_count) - 1:
        raise PinnedElementError(
            "the empty set (always 0) and the full set (always 1) cannot be reassigned"
        )
    if not _is_bit(bit):
        raise ValidationError(f"bit must be 0 or 1, got {bit!r}")
    s, table = measure.source_count, _pack(measure.values[:, None])
    move = np.array([0]), np.array([mask]), np.array([bit == 1])
    return BinaryFuzzyMeasure(s, _unpack(_children(table, *move, table[:, :0], s), s)[:, 0])


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
    values = np.random.default_rng(seed).random(1 << source_count) < density
    values[[0, -1]] = 0, 1
    return BinaryFuzzyMeasure(source_count, _closure(values, source_count))


# Bitsets. A stack of binary tables in bulk holds 8 coalitions a byte: a
# (ceil(2**S / 8), C) uint8 stack in np.packbits order, one table per
# column, coalition c at byte c >> 3, bit 7 - (c & 7). The first coalition
# of a byte is its highest bit, so bytes compare as the tables' rows do;
# below S = 3 one byte holds all 2**S coalitions and its low bits are 0.

# each byte with its bits in reverse order
_REVERSED = np.packbits(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)[:, ::-1])


def _pack(tables: np.ndarray) -> np.ndarray:
    """The bitset stack of a (2**S, C) stack of {0, 1} tables."""
    return np.packbits(tables, axis=0)


def _unpack(stack: np.ndarray, source_count: int) -> np.ndarray:
    """The (2**S, C) uint8 stack of {0, 1} tables of a bitset stack."""
    return np.unpackbits(stack, axis=0, count=1 << source_count)


def _coalition_bits(coalitions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Byte row and uint8 bit mask of each coalition in a bitset stack:
    stack[row] & mask is nonzero where the coalition wins, and OR-ing the
    mask in makes it win."""
    return coalitions >> 3, (0x80 >> (coalitions & 7)).astype(np.uint8)


def _close_up(stack: np.ndarray, source_count: int) -> np.ndarray:
    """Upward closure, in place, of every column of a bitset stack of
    tables on `source_count` sources: a coalition wins when any subset of
    it did. C may be 0, and padding bits stay 0. A stack whose rows cannot
    be regrouped without a copy, such as a transposed one, raises
    ValueError rather than closing a copy."""
    for i, without in enumerate((0xAA, 0xCC, 0xF0)[:source_count]):
        # sources 0-2 within a byte: each bit of `without` is a coalition
        # lacking source i, and 2**i bits below it that coalition plus i
        stack |= (stack & without) >> (1 << i)
    n, cols = stack.shape
    for i in range(n.bit_length() - 1):  # subset-OR sweep over bytes, sources 3 and up
        # axis 1 of this view is bit i + 3: [:, 1] holds each [:, 0] set plus source i + 3
        pairs = np.reshape(stack, (n >> i + 1, 2, cols << i), copy=False)
        pairs[:, 1] |= pairs[:, 0]
    return stack


def _children(stack, columns, coalitions, raised, fresh, source_count: int) -> np.ndarray:
    """The repair move: a new bitset stack, built with one upward closure.
    Column columns[k] of `stack` has coalition coalitions[k] raised with its
    supersets where raised[k] holds, else lowered with its subsets; raised
    children come first, each kind in input order. Then come the closures
    of the seed columns of the bitset stack `fresh`, both ends pinned. A
    raised child is parent | up(c), a lowered one parent & ~down(c)."""
    n = 1 << source_count
    by_kind = np.argsort(~raised, kind="stable")
    coalitions, columns = coalitions[by_kind], columns[by_kind]
    ups, flips = np.count_nonzero(raised), len(coalitions)
    seeds = np.zeros((len(stack), flips + fresh.shape[1]), dtype=np.uint8)
    row, bit = _coalition_bits(np.r_[coalitions[:ups], (n - 1) ^ coalitions[ups:]])
    seeds[row, np.arange(flips)] = bit
    seeds[:, flips:] = fresh
    # below S = 3 the low 8 - n bits of the one byte are padding and stay 0
    seeds[0, flips:] &= 0x7F & 0xFF << 8 - min(n, 8)
    seeds[(n - 1) >> 3, flips:] |= 0x80 >> ((n - 1) & 7)
    up = _close_up(seeds, source_count)
    kin = stack[:, columns]
    up[:, :ups] |= kin[:, :ups]
    # down(c) is up(full ^ c) at the complements: coalitions, bytes and bits reversed
    down = np.take(_REVERSED, up[::-1, ups:flips])
    if n < 8:
        down <<= 8 - n  # back above the padding bits
    np.invert(down, out=down)
    np.bitwise_and(kin[:, ups:], down, out=up[:, ups:flips])
    return up


def _closure(table: np.ndarray, source_count: int) -> np.ndarray:
    """The upward closure of one (2**S,) {0, 1} table, as uint8."""
    return _unpack(_close_up(_pack(table[:, None]), source_count), source_count)[:, 0]


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
    masks = np.arange(1 << source_count)
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
    tables = _unpack(_all_tables(source_count), source_count)
    return (BinaryFuzzyMeasure(source_count, table) for table in tables.T)


def _all_tables(source_count: int) -> np.ndarray:
    """Every valid binary table on S sources as the columns of one bitset
    stack, sorted as bytes.

    Built by doubling on 2**S-bit uint64 words, coalition 0 the high bit,
    so words compare as the tables' bytes do: a monotone table on one more
    source is a pair (f0, f1) of monotone tables with f0 <= f1 everywhere,
    f1 read where the new source is in, the word f0 << 2**i | f1. Pairs
    come out in row-major order, so the order holds at every step; last,
    the endpoints are pinned.
    """
    if source_count > ENUMERATION_CAP:
        bound = f"more than 2**{comb(source_count, source_count // 2)}"
        raise CapError(
            f"enumeration of S={source_count} refused (cap {ENUMERATION_CAP}): "
            f"there are {_MEASURE_COUNTS.get(source_count, bound)} valid measures"
        )
    n, words = 1 << source_count, np.array([0, 1], dtype=np.uint64)
    for i in range(source_count):
        low, high = np.nonzero(words[:, None] & ~words[None] == 0)
        words = words[low] << (1 << i) | words[high]
    words = words[(words >> n - 1 == 0) & (words & 1 == 1)] << 64 - n
    # the big-endian bytes of each word, coalition 0 first: np.packbits order
    stack = words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, : -(-n // 8)]
    return np.ascontiguousarray(stack.T)


def count_all(source_count: int) -> int:
    """Exact count of valid binary measures, known up to S = 9."""
    try:
        return _MEASURE_COUNTS[_check_source_count(source_count)]
    except KeyError:
        raise CapError(f"exact measure count unknown for S={source_count}")


def minimal_winning_coalitions(measure: BinaryFuzzyMeasure) -> list[tuple[int, ...]]:
    """The antichain of winning coalitions whose every immediate subset loses,
    each as a tuple of 0-based source indices.

    Sorted by cardinality then bitmask. Its upward closure reconstructs the
    measure exactly, so this is a complete, human-readable summary of which
    source combinations the measure trusts.
    """
    _check_binary(measure, "the antichain of minimal winning coalitions")
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
# `_read_json` reads every JSON input; `_write_json` writes every output but datasets.


def measure_to_dict(measure: Measure) -> dict:
    # a uint8 table lists as ints, a float64 one as floats
    return {"source_count": measure.source_count, "values": measure.values.tolist()}


def measure_to_antichain_dict(measure: BinaryFuzzyMeasure) -> dict:
    # JSON numbers sources from 1 (display convention); the API is 0-based
    _check_binary(measure, "the antichain form")
    _check_measure(measure, measure.source_count)  # an invalid table would load back changed
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
    if "minimal_winning" in obj and "values" in obj:
        raise ValidationError("measure JSON takes values or minimal_winning, not both")
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
    _write_json(path, measure_to_dict(measure))


def _write_json(path, payload: dict) -> None:
    """Write an output file: `payload` indented by 2, keys sorted, and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, text=None):
    """Parse a JSON input file, or `text`, the text already read from it (a
    pipe's, which reads once); malformed text, bytes that are not UTF-8 and
    nesting too deep to decode are a ValidationError naming the file."""
    try:
        if text is not None:
            return json.loads(text)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ValidationError(f"{path}: not valid JSON: {e}") from e


def load_measure(path) -> Measure:
    return measure_from_dict(_read_json(path))
