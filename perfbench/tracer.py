"""Spans recorded from outside the library, at the names its callers look up.

The tracer replaces functions in the `bfmfusion` modules (for example
`bfmfusion.optimizer.objective_batch`, which `_evolve` resolves at call
time) with wrappers that record a span per call: name, start, end, parent
span and run id. Spans stay in memory and are written when the run ends.
A layer's self time is its spans' durations minus the time their child
spans cover. A target that no longer exists is recorded as missing and
reports zero calls, so refactors inside `src/` cannot break the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import tracemalloc
from collections import defaultdict

_clock = time.perf_counter

MIB = float(1 << 20)

# Layers in the order they are reported; they are the modules of src/bfmfusion.
LAYERS = ("data", "measures", "choquet", "objective", "optimizer", "metrics", "cli")

# (module, attribute, span name). A module-level name is wrapped in the
# module whose code calls it, because that is where the call looks it up.
FUNCTION_TARGETS = (
    ("bfmfusion.cli", "generate_synthetic", "data.generate"),
    ("bfmfusion.cli", "save_dataset", "data.save"),
    ("bfmfusion.cli", "load_dataset", "data.load"),
    ("bfmfusion.cli", "load_measure", "measures.load"),
    ("bfmfusion.optimizer", "sample_random", "measures.sample_random"),
    ("bfmfusion.optimizer", "sample_random_real", "measures.sample_random_real"),
    ("bfmfusion.optimizer", "set_with_repair", "measures.set_with_repair"),
    ("bfmfusion.objective", "sort_decomposition", "choquet.sort_decomposition"),
    ("bfmfusion.metrics", "choquet_batch", "choquet.choquet_batch"),
    ("bfmfusion.data", "choquet_batch", "choquet.choquet_batch"),
    ("bfmfusion.optimizer", "prepare", "objective.prepare"),
    ("bfmfusion.objective", "prepare", "objective.prepare"),
    ("bfmfusion.optimizer", "objective_batch", "objective.batch"),
    ("bfmfusion.cli", "objective", "objective.breakdown"),
    ("bfmfusion.optimizer", "train_bfm", "optimizer.train"),
    ("bfmfusion.optimizer", "train_real_fm", "optimizer.train"),
    ("bfmfusion.cli", "train_bfm", "optimizer.train"),
    ("bfmfusion.cli", "train_real_fm", "optimizer.train"),
    ("bfmfusion.cli", "fuse", "metrics.fuse"),
    ("bfmfusion.cli", "score", "metrics.score"),
    ("bfmfusion.cli", "write_fusion_csv", "metrics.write_fusion_csv"),
    ("bfmfusion.cli", "write_roc_csv", "metrics.write_roc_csv"),
    ("bfmfusion.cli", "write_score_json", "metrics.write_score_json"),
)

# (module, class, method, span name): methods are looked up on the class.
METHOD_TARGETS = (
    ("bfmfusion.data", "Dataset", "instance_matrix", "data.instance_matrix"),
    ("bfmfusion.data", "Dataset", "flat_truth", "data.flat_truth"),
    ("bfmfusion.measures", "BinaryFuzzyMeasure", "__post_init__", "measures.construct"),
    ("bfmfusion.measures", "RealFuzzyMeasure", "__post_init__", "measures.construct"),
)

# Every span name the report expects, so an unexercised one reads as zero calls.
SPAN_NAMES = sorted(
    {t[-1] for t in FUNCTION_TARGETS + METHOD_TARGETS}
    | {"cli.synth", "cli.train", "cli.fuse_eval"}
)


def _file_mib(path) -> float:
    try:
        return os.path.getsize(path) / MIB
    except (OSError, TypeError):
        return 0.0


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self._stack: list[int] = []
        self.run_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._tables: dict[int, set] = defaultdict(set)  # run id -> value-table hashes
        self._undo: list[tuple] = []
        self.active = True

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def new_run(self) -> None:
        """Start a new operation; its spans share one run id."""
        self.run_id += 1

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks outputs."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ------------------------------------------------------------ wrapping

    def _wrap(self, owner, attr: str, name: str, label: str) -> None:
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(label)
            return
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            done = hook(tracer, args, kwargs) if hook else None
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx)
                if done is not None:
                    done(result)

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        for module_name, attr, name in FUNCTION_TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            self._wrap(module, attr, name, f"{module_name}.{attr}")
        for module_name, cls_name, attr, name in METHOD_TARGETS:
            try:
                cls = getattr(importlib.import_module(module_name), cls_name, None)
            except ImportError:
                cls = None
            self._wrap(cls, attr, name, f"{module_name}.{cls_name}.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # ------------------------------------------------------------ results

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def unique_eval_ratio(self) -> float:
        evaluated = self.counts["objective.measures_evaluated"]
        distinct = sum(len(s) for s in self._tables.values())
        return distinct / evaluated if evaluated else 0.0

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, run]))
                fh.write("\n")


# Counters kept at span boundaries. A hook runs before the call and returns
# a function that runs after it with the result (None if the call raised).
# Hooks read arguments and results and change neither.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _objective_batch_hook(tracer, args, kwargs):
    measures = _arg(args, kwargs, 0, "measures")
    data = _arg(args, kwargs, 1, "data")
    masks = getattr(data, "masks", None)
    n, s = masks.shape if masks is not None else (data.n_instances, data.source_count)
    p = len(measures)
    tables = tracer._tables[tracer.run_id]
    for m in measures:
        tables.add(hash(m.values.tobytes()))
    c = tracer.counts
    c["objective.measures_evaluated"] += p
    c["objective.instance_evals"] += p * n
    # computed, not measured: the (P, N, S) float64 gather and its product
    # with the level differences
    computed = 2 * p * n * s * 8 / MIB
    c["objective.batch_computed_mib"] = max(c["objective.batch_computed_mib"], computed)
    tracemalloc.start()

    def done(result):
        peak = tracemalloc.get_traced_memory()[1] / MIB
        tracemalloc.stop()
        c["objective.batch_peak_mib"] = max(c["objective.batch_peak_mib"], peak)

    return done


def _train_hook(tracer, args, kwargs):
    def done(result):
        if result is not None:
            tracer.counts["optimizer.generations"] += result.generations_run

    return done


def _file_size_hook(counter):
    def hook(tracer, args, kwargs):
        path = _arg(args, kwargs, 0, "path")

        def done(result):
            tracer.counts[counter] += _file_mib(path)

        return done

    return hook


_HOOKS = {
    "objective.batch": _objective_batch_hook,
    "optimizer.train": _train_hook,
    "data.save": _file_size_hook("data.save_mib"),
    "data.load": _file_size_hook("data.load_mib"),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as name -> (value, unit).

    `<span>_s` is inclusive time and `<span>_calls` the call count;
    `<layer>.self_s` is the layer's exclusive time.
    """
    agg = tracer.aggregate()
    out: dict[str, tuple] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (agg[name]["total_s"], "s")
        out[f"{name}_calls"] = (agg[name]["calls"], "count")
    for layer in LAYERS:
        self_s = sum(row["self_s"] for name, row in agg.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (self_s, "s")
    # the large-mutation sampler of either representation
    for suffix, unit in (("_s", "s"), ("_calls", "count")):
        out[f"measures.sample{suffix}"] = (
            out[f"measures.sample_random{suffix}"][0]
            + out[f"measures.sample_random_real{suffix}"][0],
            unit,
        )
    c = tracer.counts
    for key, unit in (
        ("objective.measures_evaluated", "count"),
        ("objective.instance_evals", "count"),
        ("objective.batch_computed_mib", "MiB"),
        ("objective.batch_peak_mib", "MiB"),
        ("optimizer.generations", "count"),
        ("data.save_mib", "MiB"),
        ("data.load_mib", "MiB"),
    ):
        out[key] = (c[key], unit)
    out["optimizer.unique_eval_ratio"] = (tracer.unique_eval_ratio(), "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.missing_targets"] = (len(tracer.missing), "count")
    return out
