"""Measure-space search: evolutionary training and the exhaustive oracle.

`train_bfm` runs an elitist evolutionary search over binary measures (the
production path), `train_real_fm` the same skeleton over real-valued
measures (the baseline used for timing comparisons), and
`train_exhaustive` scans every binary measure outright for small source
counts, serving as the global-optimum oracle.

The binary candidate space is finite (every measure has at most 2**S - 2
single-flip neighbours), which is what lets the binary search terminate by
exact convergence where the real-valued baseline keeps inching forward.
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
    _masks,
    _random_real_table,
    _random_table,
    _set_closed,
    measure_to_antichain_dict,
    measure_to_dict,
)
from .objective import PreparedData, _evaluate, prepare
from .rng import substream


@dataclass(frozen=True)
class EAConfig:
    """Evolutionary search settings.

    Each non-elite slot is filled by rank-selecting a parent and applying a
    small mutation (one element flipped or redrawn, with monotonicity
    repair) with probability small_mutation_rate, else a large mutation (a
    fresh random measure).
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
    """Row moves of the binary search; a row is a uint8 value table."""

    dtype = np.uint8
    measure = BinaryFuzzyMeasure

    def __init__(self, source_count: int, density: float = 0.5):
        self.source_count = source_count
        self.density = density
        self.masks = _masks(source_count)

    def small_mutation(self, row, rng):
        # flip one non-pinned element; closure repair keeps the result valid
        idx = int(rng.integers(1, len(row) - 1))
        return _set_closed(row, idx, 0 if row[idx] else 1, self.masks)

    def large_mutation(self, rng):
        return _random_table(self.source_count, self.density, rng)

    def tie_key(self, row):
        # equal objectives prefer sparser coalition structure, then a fixed
        # serialization order, so ranking is a total deterministic order
        return (int(np.count_nonzero(row)), row.tobytes())


class _RealOps:
    """Row moves of the real-valued baseline; a row is a float64 value table."""

    dtype = np.float64
    measure = RealFuzzyMeasure

    def __init__(self, source_count: int):
        self.source_count = source_count
        self.bits = 1 << np.arange(source_count)

    def small_mutation(self, row, rng):
        # redraw one element uniformly inside its monotonicity interval
        idx = int(rng.integers(1, len(row) - 1))
        inside = (idx & self.bits) != 0
        lo = float(row[idx ^ self.bits[inside]].max(initial=0.0))
        hi = float(row[idx | self.bits[~inside]].min(initial=1.0))
        row = row.copy()
        row[idx] = rng.uniform(lo, hi)
        return row

    def large_mutation(self, rng):
        return _random_real_table(self.source_count, rng)

    def tie_key(self, row):
        return (row.tobytes(),)


def _rank_picks(rng, size: int, count: int) -> np.ndarray:
    """Linear ranking selection: weight size - rank, best rank first."""
    # inverse-CDF draws over weights size, size-1, ..., 1
    cum = np.cumsum(np.arange(size, 0, -1, dtype=float))
    u = rng.random(count) * cum[-1]
    return np.searchsorted(cum, u, side="right")


def _ranked(pop: np.ndarray, js: np.ndarray, ops) -> tuple[np.ndarray, np.ndarray]:
    """Population rows and objectives, best first under the ops' tie key."""
    order = sorted(range(len(pop)), key=lambda i: (js[i], *ops.tie_key(pop[i])))
    return pop[order], js[order]


def _evolve(prepared: PreparedData, cfg: EAConfig, ops) -> TrainResult:
    """Elitist search over a (P, 2**S) array of value tables, one row each."""
    t0 = time.perf_counter()
    masks = np.arange(1 << prepared.source_count)
    lowest = (masks == masks[-1]).astype(ops.dtype)  # only the full set wins: fusion is min
    highest = (masks != 0).astype(ops.dtype)  # every non-empty set wins: fusion is max
    rng_init = substream(cfg.rng_seed, "init")
    drawn = [ops.large_mutation(rng_init) for _ in range(cfg.population_size - 2)]
    pop = np.stack([lowest, highest] + drawn)
    pop, js = _ranked(pop, _evaluate(pop, prepared).total, ops)

    trace = [float(js[0])]
    stall = 0
    gen = 0
    while True:
        if js[0] <= cfg.fitness_tolerance:
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
        parent_ranks = _rank_picks(rng, cfg.population_size, n_children)
        small = rng.random(n_children) < cfg.small_mutation_rate
        children = np.stack([
            ops.small_mutation(pop[rank], rng) if is_small else ops.large_mutation(rng)
            for rank, is_small in zip(parent_ranks, small)
        ])
        pop = np.concatenate([pop[: cfg.elite_count], children])
        js = np.concatenate([js[: cfg.elite_count], _evaluate(children, prepared).total])
        pop, js = _ranked(pop, js, ops)

        improvement = trace[-1] - float(js[0])
        stall = 0 if improvement > cfg.fitness_tolerance else stall + 1
        trace.append(float(js[0]))
        gen += 1

    return TrainResult(
        best_measure=ops.measure(prepared.source_count, pop[0]),
        best_objective=float(js[0]),
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
    return _evolve(prepare(data), cfg, _BinaryOps(data.source_count))


def train_real_fm(data: Dataset, cfg: EAConfig = EAConfig()) -> TrainResult:
    """Same search skeleton over real-valued measures; the timing baseline."""
    _check_trainable(data)
    return _evolve(prepare(data), cfg, _RealOps(data.source_count))


def train_exhaustive(data: Dataset) -> TrainResult:
    """Global optimum by scanning every valid binary measure.

    Ties resolve to the lowest serialization order (the value table read in
    bitmask index order). Refuses source counts above ENUMERATION_CAP.
    """
    t0 = time.perf_counter()
    tables = _all_tables(data.source_count)
    prepared = prepare(data)
    js = np.concatenate([
        _evaluate(tables[i : i + 512], prepared).total for i in range(0, len(tables), 512)
    ])
    best = int(np.argmin(js))  # the rows are sorted as bytes: the first minimum wins ties
    best_objective = float(js[best])
    return TrainResult(
        best_measure=BinaryFuzzyMeasure(data.source_count, tables[best]),
        best_objective=best_objective,
        generations_run=len(tables),
        wall_time_seconds=time.perf_counter() - t0,
        objective_trace=(best_objective,),
        terminated_by="converged",
    )
