"""The four workloads: dataset recipes, timed operations and output checks.

A run does a fixed number of rounds, derived from --seconds and the
workload's nominal round time, never from a clock reading, so stop
reasons, generation counts and reach counts depend only on the code and
the seed. Each round first sets up (builds the workload's datasets, timed
as set-up), then runs a fixed list of operations; an operation is one
training call, or one CLI subcommand in `pipeline`. An operation fails
when it raises, exits non-zero or fails its output check.

Every dataset is built here from `SynthSpec` and `from_minimal_coalitions`
with this file's own random streams, so an edit to `src/` cannot silently
change a workload. Only public names of `bfmfusion` and `bfmfusion.cli.main`
are called, looked up at call time so the tracer sees them.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import bfmfusion
import bfmfusion.cli
import bfmfusion.optimizer

clock = time.perf_counter

# objective recheck tolerance and fusion.csv oracle tolerance
RECHECK_TOL = 1e-9
ORACLE_TOL = 1e-12
FUSION_SAMPLE_ROWS = 200

_CODES = {"search": 1, "evaluate-large": 2, "pipeline": 3, "real-baseline": 4}


def stream(seed: int, workload: str, *keys: int) -> np.random.Generator:
    """The benchmark's own random stream, independent of `bfmfusion.rng`."""
    return np.random.default_rng([seed, _CODES[workload], *keys])


def planted_spec(rng, source_count, bags_per_label, sets_per_bag, instances_per_set, noise):
    """Truth measure of up to 3 planted coalitions of size ceil(S/2)."""
    size = (source_count + 1) // 2
    want = min(3, math.comb(source_count, size))
    coalitions: set[frozenset[int]] = set()
    while len(coalitions) < want:
        coalitions.add(frozenset(int(i) for i in rng.permutation(source_count)[:size]))
    truth = bfmfusion.from_minimal_coalitions(source_count, sorted(coalitions, key=sorted))
    return bfmfusion.SynthSpec(
        source_count=source_count,
        n_pos_bags=bags_per_label,
        n_neg_bags=bags_per_label,
        sets_per_bag=sets_per_bag,
        instances_per_set=instances_per_set,
        noise_sigma=noise,
        truth_measure=truth,
        rng_seed=int(rng.integers(2**31)),
    )


def search_spec(seed: int, source_count: int, workload: str = "search"):
    """Noise-free planted dataset with 4S bags: objective 0 is reachable."""
    rng = stream(seed, workload, 0, source_count)
    return planted_spec(rng, source_count, 2 * source_count, (2, 3), (3, 4), 0.0)


def ea_seed(seed: int, workload: str, *keys: int) -> int:
    return int(stream(seed, workload, 1, *keys).integers(2**31))


def median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def paused(tracer):
    """Checks run outside the timed region and must not add spans."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def timed(fn, *args, **kwargs):
    t0 = clock()
    result = fn(*args, **kwargs)
    return result, clock() - t0


# ---------------------------------------------------------------- training


def check_training(result, data, cfg) -> tuple[bool, str]:
    """Validate the returned measure and recompute its objective per bag.

    Returns (reached, problem); problem is "" when every check holds. A
    reached run is one whose rechecked objective is within the target.
    """
    report = bfmfusion.validate(result.best_measure)
    if not report.ok:
        return False, f"invalid measure: {report.violations[0]}"
    recheck = bfmfusion.objective(result.best_measure, data).total
    if abs(recheck - result.best_objective) > RECHECK_TOL:
        return False, f"objective {result.best_objective!r} rechecks as {recheck!r}"
    if len(result.objective_trace) != result.generations_run + 1:
        return False, "objective trace length does not match generations run"
    return recheck <= cfg.fitness_tolerance, ""


@dataclass
class Call:
    """One training call as seen from outside."""

    key: tuple
    seconds: float
    generations: int
    reached: bool
    best_objective: float
    terminated_by: str


class TrainingWorkload:
    """Rounds of seeded `train_*` calls; subclasses say which and on what,
    and set `name` and `nominal_round_s`."""

    setup_repeats = 1

    def __init__(self, seed: int, workdir=None):
        self.seed = seed
        self.data = {}

    def setup(self) -> None:
        raise NotImplementedError

    def plan(self, round_index: int) -> list[tuple]:
        """(key, trainer name, dataset key, EAConfig) for one round."""
        raise NotImplementedError

    def run_round(self, round_index: int, outcome: Outcome, tracer=None) -> tuple[list, float]:
        calls = []
        busy = 0.0
        for key, trainer_name, data_key, cfg in self.plan(round_index):
            data = self.data[data_key]
            outcome.attempted += 1
            if tracer is not None:
                tracer.new_run()
            trainer = getattr(bfmfusion.optimizer, trainer_name)
            try:
                result, seconds = timed(trainer, data, cfg)
            except Exception as exc:  # an operation that raises is a failed operation
                outcome.fail(f"{key}: {type(exc).__name__}: {exc}")
                continue
            busy += seconds
            with paused(tracer):
                reached, problem = check_training(result, data, cfg)
            if problem:
                outcome.fail(f"{key}: {problem}")
                continue
            calls.append(
                Call(key, seconds, result.generations_run, reached,
                     result.best_objective, result.terminated_by)
            )
        return calls, busy

    @staticmethod
    def outcomes(rounds) -> list:
        """What must repeat exactly for the same code and seed."""
        return [[list(c.key), c.generations, c.reached, c.terminated_by]
                for calls in rounds for c in calls]

    def metrics(self, rounds) -> dict:
        calls = [c for r in rounds for c in r]
        seconds = [c.seconds for c in calls]
        gens = sum(c.generations for c in calls)
        per_gen = [c.seconds / c.generations for c in calls if c.generations]
        return {
            "calls": (len(calls), "count", len(calls)),
            "reached": (sum(c.reached for c in calls), "count", len(calls)),
            "train_s_sum": (sum(seconds), "s", len(seconds)),
            "train_s_p50": (median(seconds), "s", len(seconds)),
            "gen_per_s": (gens / sum(seconds), "1/s", len(seconds)),
            "unit_s": (median(per_gen), "s", len(per_gen)),
        }


class Search(TrainingWorkload):
    """Default EAConfig until converged or stalled, at S = 8, 10 and 12."""

    name = "search"
    sources = (8, 10, 12)
    nominal_round_s = 5.5
    # its set-up takes about 25 ms, so it is timed several times per round
    setup_repeats = 8

    def setup(self):
        self.data = {
            s: bfmfusion.generate_synthetic(search_spec(self.seed, s)) for s in self.sources
        }

    def plan(self, r):
        return [
            ((s, r), "train_bfm", s,
             bfmfusion.EAConfig(rng_seed=ea_seed(self.seed, self.name, s, r)))
            for s in self.sources
        ]

    def metrics(self, rounds):
        out = super().metrics(rounds)
        calls = [c for r in rounds for c in r]
        total, reached = out["train_s_sum"][0], out["reached"][0]
        out["tts_s"] = (total / reached if reached else math.inf, "s", reached)
        out["reach_rate"] = (reached / len(calls), "ratio", len(calls))
        # seconds per generation, median within each S, then averaged over S
        # with equal weight: a generation costs about three times as much at
        # S=12 as at S=8, so how the generations split between the source
        # counts must not move it
        per_source = []
        for s in self.sources:
            ratios = [c.seconds / c.generations for c in calls if c.key[0] == s and c.generations]
            if ratios:
                per_source.append(median(ratios))
        out["unit_s"] = (sum(per_source) / len(per_source), "s", len(calls))
        for s in self.sources:
            mine = [c for c in calls if c.key[0] == s]
            out[f"reached_s{s}"] = (sum(c.reached for c in mine), "count", len(mine))
        return out


class EvaluateLarge(TrainingWorkload):
    """S=10 at about 27k instances, fixed generation budget, stall disabled."""

    name = "evaluate-large"
    generations = 6
    nominal_round_s = 2.0

    def setup(self):
        rng = stream(self.seed, self.name, 0)
        spec = planted_spec(rng, 10, 1500, (2, 4), (2, 4), 0.05)
        self.data = {}  # free the previous round's dataset first
        self.data = {"large": bfmfusion.generate_synthetic(spec)}

    def plan(self, r):
        cfg = bfmfusion.EAConfig(
            rng_seed=ea_seed(self.seed, self.name, r),
            max_generations=self.generations,
            stall_generations=self.generations,
        )
        return [((10, r), "train_bfm", "large", cfg)]


class RealBaseline(TrainingWorkload):
    """`train_real_fm` on the S=8 search dataset, fixed generation budget."""

    name = "real-baseline"
    generations = 150
    nominal_round_s = 1.6
    setup_repeats = 8  # as in search: one set-up takes under 10 ms

    def setup(self):
        self.data = {8: bfmfusion.generate_synthetic(search_spec(self.seed, 8))}

    def plan(self, r):
        cfg = bfmfusion.EAConfig(
            rng_seed=ea_seed(self.seed, self.name, r),
            max_generations=self.generations,
            stall_generations=self.generations,
        )
        return [((8, r), "train_real_fm", 8, cfg)]

    def metrics(self, rounds):
        out = super().metrics(rounds)
        calls = [c for r in rounds for c in r]
        objectives = [c.best_objective for c in calls]
        out["best_objective_p50"] = (median(objectives), "objective", len(objectives))
        return out


# ---------------------------------------------------------------- pipeline


class Pipeline:
    """synth -> train -> fuse-eval through `cli.main` at S=8, about 60k instances."""

    name = "pipeline"
    nominal_round_s = 9.0
    setup_repeats = 1
    train_generations = 3
    subcommands = ("synth", "train", "fuse_eval")

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.spec_path = os.path.join(workdir, "spec.json")
        self.data_path = os.path.join(workdir, "data.json")
        self.train_path = os.path.join(workdir, "train.json")
        self.measure_path = os.path.join(workdir, "measure.json")
        self.eval_dir = os.path.join(workdir, "eval")
        self.reference = None  # the dataset synth must write, built in memory
        self.measure = None
        self.train_outcome = None

    def setup(self) -> None:
        """Write synth's spec file and build, in memory, the dataset it describes."""
        rng = stream(self.seed, self.name, 0)
        spec = planted_spec(rng, 8, 4000, (2, 3), (2, 4), 0.05)
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(bfmfusion.spec_to_dict(spec), fh)
        self.reference = None  # free the previous round's dataset first
        self.reference = bfmfusion.generate_synthetic(spec)

    def argv(self, sub: str, round_index: int) -> list[str]:
        if sub == "synth":
            return ["synth", "--spec", self.spec_path, "--out", self.data_path, "--force"]
        if sub == "train":
            return [
                "train", "--data", self.data_path, "--mode", "bfm",
                "--seed", str(ea_seed(self.seed, self.name, round_index)),
                "--max-generations", str(self.train_generations), "--explain",
                "--out", self.train_path, "--force",
            ]
        return [
            "fuse-eval", "--data", self.data_path, "--measure", self.measure_path,
            "--out", self.eval_dir, "--force",
        ]

    def run_round(self, round_index: int, outcome: Outcome, tracer=None):
        times = {}
        for sub in self.subcommands:
            outcome.attempted += 1
            if tracer is not None:
                tracer.new_run()
                idx = tracer.open(f"cli.{sub}")
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    code, seconds = timed(bfmfusion.cli.main, self.argv(sub, round_index))
            except Exception as exc:  # an operation that raises is a failed operation
                outcome.fail(f"{sub}: {type(exc).__name__}: {exc}")
                return None, 0.0
            finally:
                if tracer is not None:
                    tracer.close(idx)
            if code != 0:
                outcome.fail(f"{sub}: exit code {code}")
                return None, 0.0
            with paused(tracer):
                problem = self.check(sub)
            if problem:
                outcome.fail(f"{sub}: {problem}")
                return None, 0.0
            times[sub] = seconds
        return {"times": times, "outcome": self.train_outcome}, sum(times.values())

    # output checks, outside the timed region

    def check(self, sub: str) -> str:
        if sub == "synth":
            return self._check_synth()
        if sub == "train":
            return self._check_train()
        return self._check_fuse_eval()

    def _check_synth(self) -> str:
        reloaded = bfmfusion.load_dataset(self.data_path)
        manifest_path = os.path.splitext(self.data_path)[0] + ".manifest.json"
        with open(manifest_path, encoding="utf-8") as fh:
            generated = json.load(fh)["n_instances"]
        if reloaded.n_instances != generated:
            return f"reloaded dataset has {reloaded.n_instances} instances, synth generated {generated}"
        ref = self.reference
        if not (np.array_equal(reloaded.instance_matrix(), ref.instance_matrix())
                and [b.label for b in reloaded.bags] == [b.label for b in ref.bags]
                and np.array_equal(reloaded.flat_truth(), ref.flat_truth())):
            return "reloaded dataset differs from the dataset its spec describes"
        return ""

    def _check_train(self) -> str:
        with open(self.train_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        result = payload["result"]
        measure = bfmfusion.measure_from_dict(result["best_measure"])
        report = bfmfusion.validate(measure)
        if not report.ok:
            return f"invalid measure: {report.violations[0]}"
        recheck = bfmfusion.objective(measure, self.reference).total
        if abs(recheck - result["best_objective"]) > RECHECK_TOL:
            return f"objective {result['best_objective']!r} rechecks as {recheck!r}"
        if abs(payload["explanation"]["total"] - recheck) > RECHECK_TOL:
            return "explanation total disagrees with the rechecked objective"
        if len(payload["explanation"]["per_bag"]) != len(self.reference.bags):
            return "explanation does not cover every bag"
        # fuse-eval --measure reads a bare measure file, not a train result
        bfmfusion.save_measure(self.measure_path, measure)
        self.measure = measure
        self.train_outcome = [result["generations_run"], result["terminated_by"]]
        return ""

    def _check_fuse_eval(self) -> str:
        data, measure = self.reference, self.measure
        with open(os.path.join(self.eval_dir, "fusion.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != data.n_instances + 1:
            return f"fusion.csv has {len(rows) - 1} rows for {data.n_instances} instances"
        truth = data.flat_truth()
        pick = np.random.default_rng(self.seed).choice(
            data.n_instances, size=min(FUSION_SAMPLE_ROWS, data.n_instances), replace=False
        )
        for k in pick:
            b, c, i, value, t = rows[k + 1]
            h = data.bags[int(b)].candidate_sets[int(c)].instances[int(i)]
            expected = bfmfusion.choquet_maxmin(h, measure)
            if abs(float(value) - expected) > ORACLE_TOL:
                return f"fusion.csv row {k}: {value} != max-min oracle {expected!r}"
            if int(t) != int(truth[k]):
                return f"fusion.csv row {k}: truth {t} != {truth[k]}"
        with open(os.path.join(self.eval_dir, "score.json"), encoding="utf-8") as fh:
            auc = json.load(fh)["auc"]
        expected = bfmfusion.score(bfmfusion.fuse(data, measure), truth).auc
        if auc != expected:
            return f"score.json auc {auc!r} != recomputed {expected!r}"
        return ""

    @staticmethod
    def outcomes(rounds) -> list:
        return [r["outcome"] for r in rounds]

    @staticmethod
    def metrics(rounds) -> dict:
        times = [r["times"] for r in rounds]
        out = {}
        for sub in Pipeline.subcommands:
            out[f"cli_{sub}_s"] = (median([t[sub] for t in times]), "s", len(times))
        out["unit_s"] = (median([sum(t.values()) for t in times]), "s", len(times))
        return out


WORKLOADS = {
    "search": Search,
    "evaluate-large": EvaluateLarge,
    "pipeline": Pipeline,
    "real-baseline": RealBaseline,
}
