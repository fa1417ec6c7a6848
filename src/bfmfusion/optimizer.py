"""Measure-space search: evolutionary training and the exhaustive oracle.

`train_bfm` runs an elitist evolutionary search over binary measures (the
production path), `train_real_fm` the same skeleton over real-valued
measures (the baseline used for timing comparisons), and
`train_exhaustive` scans every binary measure outright for small source
counts, serving as the global-optimum oracle; it and the one-flip descent
build and score tables 512 at a time through one scan, `_scan`.

The binary candidate space is finite (every measure has at most 2**S - 2
single-flip neighbours), which is what lets the binary search terminate by
exact convergence where the real-valued baseline keeps inching forward.

A population is one column stack, one value table per column. Binary
tables are a bitset stack, (ceil(2**S / 8), P) uint8 with 8 coalitions a
byte in np.packbits order (coalition c at byte c >> 3, bit 7 - (c & 7);
see `measures._pack`), so closure, breeding, ranking and evaluation touch
an eighth of the bytes; real tables are a (2**S, P) float64 stack, one
coalition per row. Each generation makes one random draw per kind of move
for all its children and then builds them at once: binary ones with one
upward closure, real ones with one gather of redraw intervals and one
cardinality sweep for fresh tables. It evaluates them in one pass and ranks
the columns with one sort; the stack is never transposed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .measures import (
    BinaryFuzzyMeasure,
    Measure,
    RealFuzzyMeasure,
    _all_tables,
    _check_integer,
    _check_real,
    _children,
    _coalition_bits,
    _pack,
    _random_real_table,
    _unpack,
    measure_to_antichain_dict,
    measure_to_dict,
)
from .objective import PreparedData, _evaluate, _prepared
from .rng import substream


@dataclass(frozen=True)
class EAConfig:
    """Evolutionary search settings.

    The elite_count best columns of the population carry over, at least one
    and fewer than population_size, so the best table found is never lost;
    every other column is a child of a rank-selected parent. With probability
    small_mutation_rate the child is a small mutation: one coalition
    flipped, raised with its supersets or lowered with its subsets (the
    real baseline redraws one value inside its monotonicity interval).
    Otherwise it is a fresh random measure. The counts and rng_seed must be
    integers (not bool) and are stored as int; rng_seed must be non-negative.
    The rate, the tolerance and a set time cap must be finite real numbers
    (not bool) and are stored as an int or a float.
    """

    population_size: int = 64
    elite_count: int = 4
    small_mutation_rate: float = 0.8
    max_generations: int = 500
    stall_generations: int = 30
    fitness_tolerance: float = 1e-6
    rng_seed: int = 0
    time_cap_seconds: float | None = None

    def __post_init__(self):
        for name in ("population_size", "elite_count", "max_generations", "stall_generations",
                     "rng_seed"):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name))
        reals = ("small_mutation_rate", "fitness_tolerance")
        if self.time_cap_seconds is not None:
            reals += ("time_cap_seconds",)
        for name in reals:
            object.__setattr__(self, name, _check_real(getattr(self, name), name))
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")
        if self.population_size < 2:
            raise ValidationError("population_size must be at least 2")
        if not 1 <= self.elite_count < self.population_size:
            raise ValidationError("elite_count must be in [1, population_size)")
        if not 0 <= self.small_mutation_rate <= 1:
            raise ValidationError("small_mutation_rate must lie in [0, 1]")
        if self.max_generations < 1 or self.stall_generations < 1:
            raise ValidationError("generation limits must be positive")
        if self.fitness_tolerance < 0:
            raise ValidationError("fitness_tolerance must be >= 0")
        if self.time_cap_seconds is not None and self.time_cap_seconds <= 0:
            raise ValidationError("time_cap_seconds must be positive when set")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainResult:
    best_measure: Measure
    best_objective: float
    generations_run: int
    wall_time_seconds: float
    objective_trace: tuple[float, ...]
    terminated_by: str  # converged | stalled | max_generations | time_cap

    def to_json_dict(self) -> dict:
        out = {field.name: getattr(self, field.name) for field in fields(self)}
        out["best_measure"] = measure_to_dict(self.best_measure)
        out["objective_trace"] = list(self.objective_trace)
        if isinstance(self.best_measure, BinaryFuzzyMeasure):
            out["best_measure_minimal_winning"] = measure_to_antichain_dict(
                self.best_measure
            )["minimal_winning"]
        return out


class _BinaryOps:
    """Moves and ranking of the binary search over a bitset stack of tables
    on `source_count` sources: (ceil(2**S / 8), P) uint8, 8 coalitions a
    byte in np.packbits order (see `measures._pack`)."""

    def __init__(self, source_count: int):
        self.source_count = source_count

    def stack(self, tables):
        """This layout of a (2**S, C) stack of {0, 1} tables."""
        return _pack(tables)

    def measure(self, column):
        return BinaryFuzzyMeasure(self.source_count, _unpack(column, self.source_count))

    def breed(self, pop, parents, small, rng):
        """Children of the columns `parents` of pop as a bitset stack: a
        small mutation where `small` holds, else a fresh table, in blocks
        raised, lowered, fresh, built by `measures._children`. One call
        draws every flipped coalition and one every fresh field, as random
        bytes in bitset layout; a fresh table is the closure of its field,
        a Bernoulli(0.5) draw."""
        idx = rng.integers(1, (1 << self.source_count) - 1, size=np.count_nonzero(small))
        fields = rng.integers(0, 256, size=(len(pop), len(small) - len(idx)), dtype=np.uint8)
        # a coalition that loses in its parent is raised, one that wins is lowered
        kin = parents[small]
        row, bit = _coalition_bits(idx)
        raised = (pop[row, kin] & bit) == 0
        return _children(pop, kin, idx, raised, fields, self.source_count)

    @staticmethod
    def order(pop, js):
        """Column order by objective, then fewer winning coalitions, then
        the table's bytes: equal objectives rank the sparser structure first."""
        return _column_order(pop, np.bitwise_count(pop).sum(axis=0), js)


class _RealOps:
    """Moves and ranking of the real-valued baseline over a (2**S, P) float64
    stack; like `_BinaryOps`, it draws once per kind of move and builds in
    one batch."""

    def __init__(self, source_count: int):
        self.source_count = source_count

    def stack(self, tables):
        """This layout of a (2**S, C) stack of {0, 1} tables."""
        return tables.astype(np.float64)

    def measure(self, column):
        return RealFuzzyMeasure(self.source_count, column)

    @staticmethod
    def breed(pop, parents, small, rng):
        """Children of the columns `parents` of pop as a (2**S, C) stack, in
        child order: the parent with one coalition idx redrawn uniformly
        inside its monotonicity interval where `small` holds, else a fresh
        table. One call draws every redrawn coalition, one every redraw and
        one every fresh field; one gather bounds every redraw and one
        cardinality sweep builds every fresh table."""
        n = len(pop)
        idx = rng.integers(1, n - 1, size=np.count_nonzero(small))
        u = rng.random(len(idx))
        fields = rng.random((len(small) - len(idx), n))
        kin = parents[small]
        bits = 1 << np.arange(n.bit_length() - 1)
        # idx ^ bit is the subset without bit where idx holds it, else the superset with it
        near = pop[idx[:, None] ^ bits, kin[:, None]]
        inside = (idx[:, None] & bits) != 0
        lo = np.where(inside, near, 0.0).max(axis=1)
        hi = np.where(inside, 1.0, near).min(axis=1)
        children = np.empty((n, len(small)))
        children[:, small] = pop[:, kin]
        children[idx, np.flatnonzero(small)] = lo + (hi - lo) * u
        children[:, ~small] = _random_real_table(fields.T)
        return children

    @staticmethod
    def order(pop, js):
        """Column order by objective, then the table's bytes."""
        return _column_order(pop, js)


def _column_order(keys: np.ndarray, *ranks: np.ndarray) -> np.ndarray:
    """Column order by `ranks`, the last most significant, then by each
    column of `keys` compared as bytes: a total order, so the ranking does
    not depend on the order of the columns."""
    rows = np.ascontiguousarray(keys.T)
    by_bytes = np.argsort(rows.view(f"V{rows.shape[1] * rows.itemsize}")[:, 0], kind="stable")
    return by_bytes[np.lexsort([rank[by_bytes] for rank in ranks])]


def _rank_picks(rng, size: int, count: int) -> np.ndarray:
    """Linear ranking selection: weight size - rank, best rank first."""
    # inverse-CDF draws over weights size, size-1, ..., 1
    cum = np.cumsum(np.arange(size, 0, -1, dtype=float))
    u = rng.random(count) * cum[-1]
    return np.searchsorted(cum, u, side="right")


def _evolve(prepared: PreparedData, cfg: EAConfig, ops) -> TrainResult:
    """Elitist search over a stack of value tables, one column each, in the
    layout of `ops`; the stack stays unpermuted and `order` ranks its columns."""
    t0 = time.perf_counter()
    ends = np.zeros((1 << prepared.source_count, 2), dtype=np.uint8)
    ends[-1, 0] = 1  # only the full set wins: fusion is min
    ends[1:, 1] = 1  # every non-empty set wins: fusion is max
    ends = ops.stack(ends)
    fresh = np.zeros(cfg.population_size - 2, dtype=bool)  # no small mutations
    drawn = ops.breed(ends, fresh.astype(int), fresh, substream(cfg.rng_seed, "init"))
    pop = np.concatenate([ends, drawn], axis=1)
    js = _evaluate(pop, prepared).total
    order = ops.order(pop, js)

    trace = [float(js[order[0]])]
    stall = 0
    gen = 0
    while True:
        if trace[-1] <= cfg.fitness_tolerance:
            terminated_by = "converged"
            break
        if gen >= cfg.max_generations:
            terminated_by = "max_generations"
            break
        if stall >= cfg.stall_generations:
            terminated_by = "stalled"
            break
        if (
            cfg.time_cap_seconds is not None
            and time.perf_counter() - t0 >= cfg.time_cap_seconds
        ):
            terminated_by = "time_cap"
            break

        rng = substream(cfg.rng_seed, "mutation", gen)
        n_children = cfg.population_size - cfg.elite_count
        parents = order[_rank_picks(rng, cfg.population_size, n_children)]
        small = rng.random(n_children) < cfg.small_mutation_rate
        children = ops.breed(pop, parents, small, rng)
        elites = order[: cfg.elite_count]
        pop = np.concatenate([pop[:, elites], children], axis=1)
        js = np.concatenate([js[elites], _evaluate(children, prepared).total])
        order = ops.order(pop, js)

        improvement = trace[-1] - float(js[order[0]])
        stall = 0 if improvement > cfg.fitness_tolerance else stall + 1
        trace.append(float(js[order[0]]))
        gen += 1

    return TrainResult(
        best_measure=ops.measure(pop[:, order[0]]),
        best_objective=trace[-1],
        generations_run=gen,
        wall_time_seconds=time.perf_counter() - t0,
        objective_trace=tuple(trace),
        terminated_by=terminated_by,
    )


def _scan(prepared: PreparedData, count: int, build) -> tuple:
    """The objective and a copy of the first minimum of the `count` tables
    that `build(i, j)` gives 512 at a time, as bitset stack columns i..j."""
    best = (np.inf, None)
    for i in range(0, count, 512):
        tables = build(i, min(i + 512, count))
        js = _evaluate(tables, prepared).total
        k = int(np.argmin(js))
        if js[k] < best[0]:
            best = float(js[k]), tables[:, k].copy()
    return best


def _descend(
    prepared: PreparedData, column: np.ndarray, deadline: float, tolerance: float
) -> tuple:
    """Steepest one-flip descent from the bitset column `column` (S >= 2):
    until `deadline`, a `time.perf_counter()` reading, move to the best of
    the 2**S - 2 tables that flip one coalition and repair by closure (the
    lowest coalition among equal objectives), while it improves by more
    than `tolerance`. Returns the column reached, its objective, the steps
    taken and the tables evaluated, `column` and every neighbourhood. Its
    memory follows one slice of a neighbourhood (see `_scan`): 512 columns
    of 2**S / 8 bytes, their closure and their evaluation."""
    s = prepared.source_count
    c = np.arange(1, (1 << s) - 1)
    col = column[:, None]

    def flips(i, j):
        raised = _unpack(col, s)[c[i:j], 0] == 0
        kids = _children(col, np.zeros(j - i, np.intp), c[i:j], raised, col[:, :0], s)
        # the children come raised first: the take puts them in coalition order
        return kids.take(np.argsort(np.argsort(~raised, kind="stable")), axis=1)

    (best, _), steps, evaluated = _scan(prepared, 1, lambda i, j: col), 0, 1
    while time.perf_counter() < deadline:
        js, kid = _scan(prepared, len(c), flips)
        evaluated += len(c)
        if best - js <= tolerance:
            break
        col, best, steps = kid[:, None], js, steps + 1
    return col[:, 0], best, steps, evaluated


def _trainable(data: Dataset | PreparedData) -> PreparedData:
    """The data prepared, refused unless evolutionary training can run on it."""
    prepared = _prepared(data)
    if prepared.source_count < 2:
        # one source leaves no coalition between the pinned empty and full sets
        # for the small mutation to change
        raise ValidationError("evolutionary training needs at least 2 sources")
    if not ((prepared.labels == 0).any() and (prepared.labels == 1).any()):
        raise ValidationError("training needs at least one positive and one negative bag")
    return prepared


def train_bfm(data: Dataset | PreparedData, cfg: EAConfig = EAConfig()) -> TrainResult:
    """Evolutionary search for the binary measure minimizing the objective.
    `data` is a dataset or its `prepare`d form."""
    prepared = _trainable(data)
    return _evolve(prepared, cfg, _BinaryOps(prepared.source_count))


def train_real_fm(data: Dataset | PreparedData, cfg: EAConfig = EAConfig()) -> TrainResult:
    """Same search skeleton over real-valued measures; the timing baseline."""
    prepared = _trainable(data)
    return _evolve(prepared, cfg, _RealOps(prepared.source_count))


def train_exhaustive(data: Dataset | PreparedData) -> TrainResult:
    """Global optimum by scanning every valid binary measure.

    Ties resolve to the lowest serialization order (the value table read in
    bitmask index order). Refuses source counts above ENUMERATION_CAP.
    """
    t0 = time.perf_counter()
    s = data.source_count
    tables = _all_tables(s)
    # the columns are sorted as bytes: the first minimum wins ties
    best_objective, best = _scan(_prepared(data), tables.shape[1], lambda i, j: tables[:, i:j])
    return TrainResult(
        best_measure=BinaryFuzzyMeasure(s, _unpack(best, s)),
        best_objective=best_objective,
        generations_run=tables.shape[1],
        wall_time_seconds=time.perf_counter() - t0,
        objective_trace=(best_objective,),
        terminated_by="converged",
    )
