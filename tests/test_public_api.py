import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bfmfusion
from bfmfusion import (
    Bag,
    BinaryFuzzyMeasure,
    CandidateSet,
    Dataset,
    FusionMap,
    RealFuzzyMeasure,
    ScoreReport,
    ValidationError,
    choquet_batch,
    choquet_maxmin,
    from_minimal_coalitions,
    prepare,
    score,
)
from bfmfusion.measures import _number_array

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_what_init_imports():
    # the `from .x import` lines of __init__.py are the one declaration of
    # the public names, each once, and __version__ is added
    tree = ast.parse((ROOT / "src" / "bfmfusion" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert sorted(bfmfusion.__all__) == sorted(imported + ["__version__"])


def test_star_import():
    namespace = {}
    exec("from bfmfusion import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(bfmfusion.__all__)
    assert [name for name, value in namespace.items() if inspect.ismodule(value)] == []


def test_no_test_or_ci_step_lists_the_public_names():
    # a quoted list of most of the names would be a second declaration to
    # keep in step; a file may quote a few of them for its own ends
    names = set(bfmfusion.__all__)
    words = r"([\"'])(\w+)\1"  # a quoted word
    quoted = {
        path.name: len(names & {word for _, word in re.findall(words, path.read_text())})
        for path in [*(ROOT / "tests").glob("*.py"), *(ROOT / ".github").rglob("*.yml")]
    }
    assert "tier1.yml" in quoted
    assert {path: n for path, n in quoted.items() if n > len(names) // 5} == {}


def test_readme_quickstart_runs():
    # the first python block of the README, run as a user would, with every warning an error
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    antichain = re.search(r"^# (\{'source_count'.*\})$", code, re.M).group(1)
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    assert antichain in run.stdout.splitlines()


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export, so it is the one module left out
    unused = []
    for path in sorted((ROOT / "src" / "bfmfusion").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                unused += [
                    f"{path.name}: {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert unused == []


def test_names_the_benchmark_calls_resolve():
    # perfbench reaches the package through `bfmfusion.` attribute chains and
    # through trainer names that each workload's `plan` gives and
    # bfmfusion.optimizer resolves, so a removal would fail only there
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # as the file does: import bfmfusion.cli
            for alias in node.names:
                if alias.name.split(".")[0] == "bfmfusion":
                    importlib.import_module(alias.name)
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "bfmfusion":
            chains.add(".".join(parts))
    assert {"choquet_maxmin", "cli.main", "optimizer"} <= chains

    def missing(obj, chain):
        for part in chain.split("."):
            obj = getattr(obj, part, None)
        return obj is None

    assert sorted(c for c in chains if missing(bfmfusion, c)) == []
    # plan returns (key, trainer name, dataset key, EAConfig) tuples
    trainers = {
        node.elts[1].value
        for plan in ast.walk(tree) if isinstance(plan, ast.FunctionDef) and plan.name == "plan"
        for node in ast.walk(plan)
        if isinstance(node, ast.Tuple) and len(node.elts) == 4
        and isinstance(node.elts[1], ast.Constant)
    }
    assert "train_bfm" in trainers
    assert sorted(t for t in trainers if not callable(getattr(bfmfusion.optimizer, t, None))) == []


# each public type that holds arrays, built around one array: a table, a
# matrix or a curve; then that array and a copy of it that differs in one element
VALUE_TYPES = {
    "binary measure": (lambda v: BinaryFuzzyMeasure(2, v), [0, 0, 0, 1], [0, 1, 0, 1]),
    "real measure": (lambda v: RealFuzzyMeasure(2, v), [0, 0.25, 0.5, 1], [0, 0.3, 0.5, 1]),
    "CandidateSet": (CandidateSet, [[0.2, 0.9], [0.4, 0.1]], [[0.2, 0.9], [0.4, 0.2]]),
    "Bag": (lambda v: Bag(1, [v]), [[0.2, 0.9], [0.4, 0.1]], [[0.2, 0.9], [0.4, 0.2]]),
    "FusionMap": (lambda v: FusionMap(v, {"mode": "min"}), [0.2, 0.4], [0.2, 0.5]),
    "ScoreReport": (lambda v: ScoreReport(0.5, 0.5, 6.0, v, [0, 1]), [0, 1], [0.5, 1]),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_values_holding_arrays_compare_by_content(name):
    make, same, changed = VALUE_TYPES[name]
    a, b = make(np.array(same)), make(np.array(same))
    assert a == b and not a != b
    assert make(np.array(changed)) != a and not make(np.array(changed)) == a
    assert a != same
    if "measure" in name:
        assert hash(a) == hash(b) == hash((type(a).__name__, a.source_count, a.values.tobytes()))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_prepared_data_compares_by_identity():
    data = Dataset(2, [Bag(0, [[[0.2, 0.9]]]), Bag(1, [[[0.8, 0.7]]])])
    prepared = prepare(data)
    assert prepared == prepared
    assert prepared != prepare(data)


# every entry point that takes an array of numbers from its caller, with one
# value of it given as `v`, and the start of its refusal; a hand-made
# dataset's refusal names the row, as the loader's does
SOURCE_0 = from_minimal_coalitions(2, [[0]])
RULE = " must be numbers in float range, never bools, got "
NUMBER_READERS = {
    "hand-made dataset": (
        lambda v: Dataset(2, [Bag(0, [[[v, 0.5]]])]),
        "bag 0, candidate set 0, instance 0: expected a list of 2 numbers in [0, 1], got ",
    ),
    "binary measure": (
        lambda v: BinaryFuzzyMeasure(2, [0, v, 0, 1]), "binary measure values" + RULE
    ),
    "real measure": (lambda v: RealFuzzyMeasure(2, [0, v, 0.5, 1]), "real measure values" + RULE),
    "batch fusion": (lambda v: choquet_batch([[v, 0.5]], SOURCE_0), "confidences" + RULE),
    "max-min form": (lambda v: choquet_maxmin([v, 0.5], SOURCE_0), "confidences" + RULE),
    "fusion map": (lambda v: FusionMap([v, 0.5], {"mode": "min"}), "scores" + RULE),
    "scoring": (lambda v: score([v, 0.5], [1, 0]), "scores" + RULE),
    "ROC curve": (lambda v: ScoreReport(0.5, 0.5, 6.0, [0, v], [0, 1]), "a ROC curve" + RULE),
}


@pytest.mark.parametrize("value", ["0.5", True, None, "a", 10**400],
                         ids=["numeric_string", "bool", "none", "string", "huge_int"])
@pytest.mark.parametrize("entry", NUMBER_READERS)
def test_every_array_of_numbers_refuses_what_is_not_a_number(entry, value):
    # numpy alone reads "0.5" as 0.5 and True as 1.0, and overflows on 10**400
    make, start = NUMBER_READERS[entry]
    with pytest.raises(ValidationError, match=f"^{re.escape(start)}"):
        make(value)


def test_a_float64_array_of_numbers_is_read_without_a_copy():
    x = np.array([0.25, 0.5])
    assert _number_array(x, "x") is x
    assert np.shares_memory(FusionMap(x, {"mode": "min"}).scores, x)
    assert _number_array(x.astype(np.float32), "x").dtype == np.float64
