"""Measure-space search: evolutionary training and the exhaustive oracle.

`train_bfm` runs an elitist evolutionary search over binary measures (the
production path), `train_real_fm` the same skeleton over real-valued
measures (the baseline used for timing comparisons), and
`train_exhaustive` scans every binary measure outright for small source
counts, serving as the global-optimum oracle.

The binary candidate space is finite (every measure has at most 2**S - 2
single-flip neighbours), which is what lets the binary search terminate by
exact convergence where the real-valued baseline keeps inching forward.

A population is a (2**S, P) column stack: one value table per column, one
coalition per row. Each generation draws its moves child by child and then
builds all children at once: binary ones with one upward closure, real ones
with one gather of redraw intervals and one cardinality sweep for fresh
tables. It evaluates them in one gather and ranks the columns with one
sort; the stack is never transposed.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, has_both_polarities
from .errors import ValidationError
from .measures import (
    BinaryFuzzyMeasure,
    Measure,
    RealFuzzyMeasure,
    _all_tables,
    _check_integer,
    _close_up,
    _random_real_table,
    measure_to_antichain_dict,
    measure_to_dict,
)
from .objective import PreparedData, _evaluate, prepare
from .rng import substream


@dataclass(frozen=True)
class EAConfig:
    """Evolutionary search settings.

    The elite_count best columns of the population carry over; every other
    column is a child of a rank-selected parent. With probability
    small_mutation_rate the child is a small mutation: one coalition
    flipped, raised with its supersets or lowered with its subsets (the
    real baseline redraws one value inside its monotonicity interval).
    Otherwise it is a fresh random measure. The counts and rng_seed must be
    integers (not bool) and are stored as int; rng_seed must be non-negative.
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
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")
        if self.population_size < 2:
            raise ValidationError("population_size must be at least 2")
        if not 0 <= self.elite_count < self.population_size:
            raise ValidationError("elite_count must be in [0, population_size)")
        if not (math.isfinite(self.small_mutation_rate) and 0 <= self.small_mutation_rate <= 1):
            raise ValidationError("small_mutation_rate must lie in [0, 1]")
        if self.max_generations < 1 or self.stall_generations < 1:
            raise ValidationError("generation limits must be positive")
        if not (math.isfinite(self.fitness_tolerance) and self.fitness_tolerance >= 0):
            raise ValidationError("fitness_tolerance must be finite and >= 0")
        if self.time_cap_seconds is not None and not (
            math.isfinite(self.time_cap_seconds) and self.time_cap_seconds > 0
        ):
            raise ValidationError("time_cap_seconds must be finite and positive when set")

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
        out = {
            "best_measure": measure_to_dict(self.best_measure),
            "best_objective": self.best_objective,
            "generations_run": self.generations_run,
            "wall_time_seconds": self.wall_time_seconds,
            "objective_trace": list(self.objective_trace),
            "terminated_by": self.terminated_by,
        }
        if isinstance(self.best_measure, BinaryFuzzyMeasure):
            out["best_measure_minimal_winning"] = measure_to_antichain_dict(
                self.best_measure
            )["minimal_winning"]
        return out


class _BinaryOps:
    """Moves and ranking of the binary search over a (2**S, P) uint8 stack."""

    dtype = np.uint8
    measure = BinaryFuzzyMeasure

    @staticmethod
    def breed(pop, parents, small, rng):
        """Children of the columns `parents` of pop as a (2**S, C) stack: a
        small mutation where `small` holds, else a fresh table, in blocks
        raised, lowered, fresh. Only the draws are made child by child, in
        child order; one upward closure of a seed stack builds every child.
        A flipped coalition idx is raised, parent | up(idx), or lowered,
        parent & ~down(idx), where down(idx) is up(full ^ idx) with its rows
        reversed; a fresh table is up(Bernoulli(0.5) field)."""
        n = len(pop)
        draws = [rng.integers(1, n - 1) if is_small else rng.random(n) < 0.5 for is_small in small]
        idx = np.array([d for d, is_small in zip(draws, small) if is_small], dtype=int)
        fields = [d for d, is_small in zip(draws, small) if not is_small]
        # a coalition that loses in its parent is raised, one that wins is lowered
        kin = parents[small]
        lit = pop[idx, kin]
        by_kind = np.argsort(lit, kind="stable")
        idx, kin = idx[by_kind], kin[by_kind]
        raised, flips = np.count_nonzero(lit == 0), len(idx)
        seeds = np.zeros((n, len(small)), dtype=np.uint8)
        seeds[np.r_[idx[:raised], (n - 1) ^ idx[raised:]], np.arange(flips)] = 1
        seeds[:, flips:] = np.reshape(fields, (-1, n)).T
        seeds[0, flips:], seeds[-1, flips:] = 0, 1  # a fresh table pins both ends
        up = _close_up(seeds)
        kin = pop[:, kin]
        up[:, :raised] |= kin[:, :raised]
        up[:, raised:flips] = kin[:, raised:] & ~up[::-1, raised:flips]
        return up

    @staticmethod
    def order(pop, js):
        """Column order by objective, then fewer winning coalitions, then
        the table's bytes: equal objectives rank the sparser structure first."""
        packed = pop[0::8] << 7  # 8 rows a byte, the first highest: bytes compare as rows do
        for r in range(1, min(8, len(pop))):
            packed |= pop[r::8] << (7 - r)
        return _column_order(packed, np.bitwise_count(packed).sum(axis=0), js)


class _RealOps:
    """Moves and ranking of the real-valued baseline over a (2**S, P) float64
    stack; like `_BinaryOps`, it draws child by child and builds in one batch."""

    dtype = np.float64
    measure = RealFuzzyMeasure

    @staticmethod
    def breed(pop, parents, small, rng):
        """Children of the columns `parents` of pop as a (2**S, C) stack, in
        child order: the parent with one coalition idx redrawn uniformly
        inside its monotonicity interval where `small` holds, else a fresh
        table. Only the draws are made child by child; one gather bounds
        every redraw and one cardinality sweep builds every fresh table."""
        n = len(pop)
        idx, u, fields = [], [], []
        for is_small in small:
            if is_small:
                idx.append(rng.integers(1, n - 1))
                u.append(rng.random())
            else:
                fields.append(rng.random(n))
        idx, kin = np.array(idx, dtype=int), parents[small]
        bits = 1 << np.arange(n.bit_length() - 1)
        # idx ^ bit is the subset without bit where idx holds it, else the superset with it
        near = pop[idx[:, None] ^ bits, kin[:, None]]
        inside = (idx[:, None] & bits) != 0
        lo = np.where(inside, near, 0.0).max(axis=1)
        hi = np.where(inside, 1.0, near).min(axis=1)
        children = np.empty((n, len(small)))
        children[:, small] = pop[:, kin]
        children[idx, np.flatnonzero(small)] = lo + (hi - lo) * np.array(u)
        children[:, ~small] = _random_real_table(np.reshape(fields, (-1, n)).T)
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
    """Elitist search over a (2**S, P) stack of value tables, one column
    each; the stack stays unpermuted and `order` ranks its columns."""
    t0 = time.perf_counter()
    ends = np.zeros((1 << prepared.source_count, 2), dtype=ops.dtype)
    ends[-1, 0] = 1  # only the full set wins: fusion is min
    ends[1:, 1] = 1  # every non-empty set wins: fusion is max
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
        best_measure=ops.measure(prepared.source_count, pop[:, order[0]]),
        best_objective=trace[-1],
        generations_run=gen,
        wall_time_seconds=time.perf_counter() - t0,
        objective_trace=tuple(trace),
        terminated_by=terminated_by,
    )


def _check_trainable(data: Dataset) -> None:
    if data.source_count < 2:
        # one source leaves no coalition between the pinned empty and full sets
        # for the small mutation to change
        raise ValidationError("evolutionary training needs at least 2 sources")
    if not has_both_polarities(data):
        raise ValidationError("training needs at least one positive and one negative bag")


def train_bfm(data: Dataset, cfg: EAConfig = EAConfig()) -> TrainResult:
    """Evolutionary search for the binary measure minimizing the objective."""
    _check_trainable(data)
    return _evolve(prepare(data), cfg, _BinaryOps())


def train_real_fm(data: Dataset, cfg: EAConfig = EAConfig()) -> TrainResult:
    """Same search skeleton over real-valued measures; the timing baseline."""
    _check_trainable(data)
    return _evolve(prepare(data), cfg, _RealOps())


def train_exhaustive(data: Dataset) -> TrainResult:
    """Global optimum by scanning every valid binary measure.

    Ties resolve to the lowest serialization order (the value table read in
    bitmask index order). Refuses source counts above ENUMERATION_CAP.
    """
    t0 = time.perf_counter()
    tables = _all_tables(data.source_count)
    prepared = prepare(data)
    js = np.concatenate([
        _evaluate(tables[:, i : i + 512], prepared).total
        for i in range(0, tables.shape[1], 512)
    ])
    best = int(np.argmin(js))  # the columns are sorted as bytes: the first minimum wins ties
    best_objective = float(js[best])
    return TrainResult(
        best_measure=BinaryFuzzyMeasure(data.source_count, tables[:, best]),
        best_objective=best_objective,
        generations_run=tables.shape[1],
        wall_time_seconds=time.perf_counter() - t0,
        objective_trace=(best_objective,),
        terminated_by="converged",
    )
