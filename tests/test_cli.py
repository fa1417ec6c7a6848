import contextlib
import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmfusion import (
    Bag,
    Dataset,
    EAConfig,
    from_minimal_coalitions,
    minimum_measure,
    save_dataset,
    save_measure,
    validate,
)
from bfmfusion.cli import bench_dataset_spec, bench_table, main, run_benchmark
from bfmfusion.data import generate_synthetic, spec_to_dict
from bfmfusion.measures import measure_to_dict

TRUTH = from_minimal_coalitions(3, [{0, 1}, {0, 2}])


def write_spec(path, **overrides):
    spec = {
        "source_count": 3,
        "n_pos_bags": 8,
        "n_neg_bags": 8,
        "sets_per_bag": [2, 3],
        "instances_per_set": [2, 4],
        "noise_sigma": 0.0,
        "truth_measure": measure_to_dict(TRUTH),
        "rng_seed": 41,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


def must_not_run(*args, **kwargs):
    raise AssertionError("work started although an output exists")


@pytest.fixture
def dataset_path(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "data.json"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "bfmfusion 0.1.0" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSynth:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "data.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out

        manifest = json.loads((tmp_path / "data.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 41
        assert manifest["truth_minimal_winning"] == [[1, 2], [1, 3]]
        assert manifest["provenance"]["version"]
        data = json.loads(out.read_text())
        assert data["source_count"] == 3
        assert len(data["bags"]) == 16
        assert manifest["n_instances"] == sum(
            len(cs) for bag in data["bags"] for cs in bag["candidate_sets"]
        )

    def test_byte_determinism(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.manifest.json").read_bytes() == (
            tmp_path / "b.manifest.json"
        ).read_bytes()

    # SHA-256 of the outputs for one noisy spec and a fixed measure, recorded
    # when each candidate set was still generated and written on its own: a
    # generator that shifts the random stream, or a writer that formats a
    # number differently, changes these bytes. fusion.csv was re-recorded
    # when binary fusion took the max-min form: each value is exactly one of
    # its row's confidences
    GOLDEN = {
        "data.json": "1884bb5526bf24c5b5960622871ea1ac4a1d4256ef2857c3b8c0c3356ffbe8eb",
        "data.manifest.json": "cdfc8d8f16999b23a6edeb676d51b8b1a36c3cb4a8aa2d5e036c8a3fde9cff0c",
        "eval/fusion.csv": "4697cba0960d3e2d2b473e4ce4ed85db95df187899d079868d5bedda9a0cb120",
        "eval/score.json": "3fe6b0aa0143651e41c3cc15a4dcebd3ae8912e62ccd788ea42bc7b0322e0250",
        "eval/roc.csv": "9b06ffa0327c6d623b15ae1db732a0d9f82f9aab4a5fd17e1f7705bc0fa7dd65",
    }

    def test_golden_bytes(self, tmp_path, monkeypatch):
        # relative paths: score.json hashes the run configuration, paths included
        monkeypatch.chdir(tmp_path)
        write_spec(Path("spec.json"), noise_sigma=0.1)
        save_measure("measure.json", TRUTH)
        assert main(["synth", "--spec", "spec.json", "--out", "data.json"]) == 0
        assert main(["fuse-eval", "--data", "data.json", "--measure", "measure.json",
                     "--out", "eval"]) == 0
        for name, digest in self.GOLDEN.items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name

    def test_overwrite_refused_without_force(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "data.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert "--force" in capsys.readouterr().err
        assert main(["synth", "--spec", str(spec), "--out", str(out), "--force"]) == 0

    def test_existing_manifest_refused_before_dataset(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        (tmp_path / "data.manifest.json").write_text("{}")
        out = tmp_path / "data.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert "--force" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_noise_exits_1(self, tmp_path, capsys, sigma):
        spec = write_spec(tmp_path / "spec.json", noise_sigma=sigma)
        out = tmp_path / "d.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [spec]

    def test_invalid_spec_json(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{nope")
        code = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, top_level",
        [
            ({"n_pos_bags": "3"}, None),
            ({"sets_per_bag": [1, 2, 3]}, None),
            ({}, [1]),
        ],
        ids=["string_count", "three_element_range", "top_level_list"],
    )
    def test_mistyped_spec_exits_1(self, tmp_path, capsys, overrides, top_level):
        spec = write_spec(tmp_path / "spec.json", **overrides)
        if top_level is not None:
            spec.write_text(json.dumps(top_level))
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversized_spec_exits_3_at_once(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", n_pos_bags=10**18)
        out = tmp_path / "d.json"
        code = main(["synth", "--spec", str(spec), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_spec_file(self, tmp_path, capsys):
        code = main(["synth", "--spec", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err


class TestTrain:
    def test_bfm_recovers_truth(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "best objective 0 " in printed
        assert "minimal winning coalitions: {1,2}, {1,3}" in printed

        payload = json.loads(out.read_text())
        assert payload["mode"] == "bfm"
        assert payload["result"]["best_objective"] == 0.0
        assert payload["result"]["terminated_by"] == "converged"
        assert payload["result"]["best_measure_minimal_winning"] == [[1, 2], [1, 3]]
        assert payload["config"]["rng_seed"] == 0
        assert set(payload["provenance"]) == {"seed", "config_hash", "version"}

    def test_explain_payload_and_stdout(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--out", str(out), "--explain"])
        assert code == 0
        assert "bag 0: contribution" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        explanation = payload["explanation"]
        assert explanation["total"] == 0.0
        assert len(explanation["per_bag"]) == 16

    def test_exhaustive_mode(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(dataset_path),
                     "--mode", "bfm-exhaustive", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["best_objective"] == 0.0
        assert payload["result"]["best_measure_minimal_winning"] == [[1, 2], [1, 3]]

    def test_exhaustive_refuses_large_source_count(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        big = Dataset(6, (Bag(0, [rng.random((2, 6))]), Bag(1, [rng.random((2, 6))])))
        data_path = tmp_path / "big.json"
        save_dataset(data_path, big)
        code = main(["train", "--data", str(data_path),
                     "--mode", "bfm-exhaustive", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "refused" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train", "--mode", "bfm"],
                                         ["fuse-eval", "--naive", "max"]])
    def test_too_many_sources_exits_1_at_load(self, command, tmp_path, capsys):
        # 2**25 table entries per measure would be allocated before any check
        data_path = tmp_path / "wide.json"
        data_path.write_text(json.dumps({"source_count": 25, "bags": [
            {"label": label, "candidate_sets": [[[0.5] * 25]]} for label in (0, 1)]}))
        code = main(command + ["--data", str(data_path), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "source_count" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("mode", ["bfm", "real"])
    def test_single_source_exits_1(self, mode, tmp_path, capsys):
        data_path = tmp_path / "one.json"
        save_dataset(data_path, Dataset(1, (Bag(0, [[[0.5]]]), Bag(1, [[[0.2]]]))))
        code = main(["train", "--data", str(data_path), "--mode", mode,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 sources" in err
        assert err.count("\n") == 1

    def test_real_mode(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(dataset_path), "--mode", "real",
                     "--max-generations", "20", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "best_measure_minimal_winning" not in payload["result"]
        assert isinstance(payload["result"]["best_measure"]["values"][1], float)

    def test_ea_flags_reach_config(self, dataset_path, tmp_path):
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--population-size", "24", "--elite-count", "3",
                     "--seed", "9", "--out", str(out)])
        assert code == 0
        cfg = json.loads(out.read_text())["config"]
        assert cfg["population_size"] == 24
        assert cfg["elite_count"] == 3
        assert cfg["rng_seed"] == 9

    def test_invalid_ea_flags(self, dataset_path, tmp_path, capsys):
        code = main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--population-size", "1", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "population_size" in capsys.readouterr().err

    def test_nan_search_setting_exits_1(self, dataset_path, tmp_path, capsys):
        code = main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--fitness-tolerance", "nan", "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fitness_tolerance" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_negative_seed_exits_1(self, dataset_path, tmp_path, capsys):
        code = main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--seed", "-1", "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rng_seed" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_existing_out_refused_before_training(self, dataset_path, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setattr("bfmfusion.cli.train_bfm", must_not_run)
        out = tmp_path / "r.json"
        out.write_text("{}")
        code = main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--out", str(out)])
        assert code == 1
        assert "--force" in capsys.readouterr().err
        assert out.read_text() == "{}"

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.json"),
                     "--mode", "bfm", "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_corrupt_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2,")
        code = main(["train", "--data", str(bad), "--mode", "bfm",
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestFuseEval:
    def auc_dataset(self, tmp_path):
        # per-instance min yields scores (0.1, 0.4, 0.35, 0.8): AUC 0.75
        b0 = Bag(0, [np.array([[0.1, 0.5, 0.9], [0.4, 0.6, 0.7]])])
        b1 = Bag(1, [np.array([[0.35, 0.9, 0.9]]), np.array([[0.8, 0.9, 0.85]])])
        ds = Dataset(3, (b0, b1), (((0, 0),), ((1,), (1,))))
        path = tmp_path / "auc_data.json"
        save_dataset(path, ds)
        return path

    def test_naive_min_end_to_end(self, tmp_path, capsys):
        data = self.auc_dataset(tmp_path)
        out = tmp_path / "eval"
        code = main(["fuse-eval", "--data", str(data), "--naive", "min",
                     "--out", str(out)])
        assert code == 0
        assert "auc 0.7500" in capsys.readouterr().out

        report = json.loads((out / "score.json").read_text())
        assert report["auc"] == 0.75
        # the curve is written once, to roc.csv
        assert "roc_points" not in report
        assert report["n_instances"] == 4
        assert report["fusion"] == {"mode": "min"}
        assert report["provenance"]["seed"] is None

        rows = list(csv.reader((out / "fusion.csv").read_text().splitlines()))
        assert rows[0] == ["bag", "candidate_set", "instance", "score", "truth"]
        assert len(rows) == 5
        roc = list(csv.reader((out / "roc.csv").read_text().splitlines()))
        assert roc[0] == ["false_positive_rate", "true_positive_rate"]

    def test_measure_matches_naive_min(self, tmp_path):
        data = self.auc_dataset(tmp_path)
        mpath = tmp_path / "measure.json"
        save_measure(mpath, minimum_measure(3))
        out_m = tmp_path / "via_measure"
        out_n = tmp_path / "via_naive"
        assert main(["fuse-eval", "--data", str(data), "--measure", str(mpath),
                     "--out", str(out_m)]) == 0
        assert main(["fuse-eval", "--data", str(data), "--naive", "min",
                     "--out", str(out_n)]) == 0
        assert (out_m / "fusion.csv").read_bytes() == (out_n / "fusion.csv").read_bytes()
        report = json.loads((out_m / "score.json").read_text())
        assert report["fusion"]["mode"] == "choquet"
        assert report["fusion"]["measure"]["source_count"] == 3

    @pytest.mark.parametrize(
        "values",
        [
            [0, 1, 1],  # shorter than 2**3
            [0, 0, 0, 1, 0, 1, 0, 1, 1],  # longer than 2**3
            [0, 1, 0, 0, 0, 0, 0, 1],  # {1} wins but {1, 2} loses
        ],
        ids=["short_table", "long_table", "non_monotone"],
    )
    def test_bad_measure_file_exits_1(self, tmp_path, capsys, values):
        data = self.auc_dataset(tmp_path)
        mpath = tmp_path / "measure.json"
        mpath.write_text(json.dumps({"source_count": 3, "values": values}))
        code = main(["fuse-eval", "--data", str(data), "--measure", str(mpath),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "eval" / "fusion.csv").exists()

    @pytest.mark.parametrize(
        "change",
        [
            lambda d: d.update(bags=5),
            lambda d: d["bags"][0].update(candidate_sets=5),
            lambda d: d.update(instance_truth=3),
            lambda d: d.update(instance_truth=[[5]]),
            lambda d: d["bags"][0]["candidate_sets"][0].__setitem__(0, ["0.1", 0.2, 0.3]),
            lambda d: d["bags"][0].update(label=0.0),
        ],
        ids=["bags_number", "candidate_sets_number", "truth_number", "truth_too_shallow",
             "string_confidence", "float_label"],
    )
    def test_malformed_dataset_exits_1(self, tmp_path, capsys, change):
        obj = json.loads(self.auc_dataset(tmp_path).read_text())
        change(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main(["fuse-eval", "--data", str(path), "--naive", "min",
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_train_result_is_a_measure_file(self, dataset_path, tmp_path, capsys):
        result = tmp_path / "result.json"
        assert main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--out", str(result)]) == 0
        code = main(["fuse-eval", "--data", str(dataset_path), "--measure", str(result),
                     "--out", str(tmp_path / "eval")])
        assert code == 0
        report = json.loads((tmp_path / "eval" / "score.json").read_text())
        learned = json.loads(result.read_text())["result"]["best_measure"]
        assert report["fusion"]["measure"] == learned

    def test_no_truth_skips_scoring(self, tmp_path, capsys):
        b0 = Bag(0, [np.array([[0.1, 0.5, 0.9]])])
        b1 = Bag(1, [np.array([[0.8, 0.9, 0.85]])])
        path = tmp_path / "untruthed.json"
        save_dataset(path, Dataset(3, (b0, b1)))
        out = tmp_path / "eval"
        code = main(["fuse-eval", "--data", str(path), "--naive", "max",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "scoring skipped" in captured.err
        assert (out / "fusion.csv").exists()
        assert not (out / "score.json").exists()

    def untruthed_dataset(self, tmp_path):
        obj = json.loads(self.auc_dataset(tmp_path).read_text())
        del obj["instance_truth"]
        path = tmp_path / "untruthed.json"
        path.write_text(json.dumps(obj))
        return path

    def test_forced_run_without_truth_removes_stale_scores(self, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["fuse-eval", "--data", str(self.auc_dataset(tmp_path)),
                     "--naive", "min", "--out", str(out)]) == 0
        assert main(["fuse-eval", "--data", str(self.untruthed_dataset(tmp_path)),
                     "--naive", "max", "--out", str(out), "--force"]) == 0
        assert sorted(out.iterdir()) == [out / "fusion.csv"]

    def test_existing_score_refused_without_truth(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("bfmfusion.cli.fuse_naive", must_not_run)
        data = self.untruthed_dataset(tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        (out / "score.json").write_text("{}")
        code = main(["fuse-eval", "--data", str(data), "--naive", "max", "--out", str(out)])
        assert code == 1
        assert "--force" in capsys.readouterr().err
        assert list(out.iterdir()) == [out / "score.json"]
        assert (out / "score.json").read_text() == "{}"

    def test_measure_and_naive_are_exclusive(self, tmp_path):
        data = self.auc_dataset(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["fuse-eval", "--data", str(data), "--naive", "min",
                  "--measure", "m.json", "--out", str(tmp_path / "e")])
        assert exc.value.code == 2

    def test_overwrite_refused(self, tmp_path, capsys):
        data = self.auc_dataset(tmp_path)
        out = tmp_path / "eval"
        args = ["fuse-eval", "--data", str(data), "--naive", "min", "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 1
        assert "--force" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0

    def test_existing_roc_refused_before_fusion(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("bfmfusion.cli.fuse_naive", must_not_run)
        data = self.auc_dataset(tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        (out / "roc.csv").write_text("")
        code = main(["fuse-eval", "--data", str(data), "--naive", "min", "--out", str(out)])
        assert code == 1
        assert "--force" in capsys.readouterr().err
        assert list(out.iterdir()) == [out / "roc.csv"]


# Field names of the dataset, spec and measure formats, so that fuzzed
# objects reach past the first missing-field check.
FIELDS = ("source_count", "bags", "label", "candidate_sets", "instance_truth", "n_pos_bags",
          "n_neg_bags", "sets_per_bag", "instances_per_set", "noise_sigma", "truth_measure",
          "rng_seed", "values", "minimal_winning")


def json_values(ints):
    return st.recursive(
        st.none() | st.booleans() | ints | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=5),
        max_leaves=12,
    )


def _subtree_paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _subtree_paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """A valid document with one subtree replaced by a small JSON value.

    Integers stay small: a valid spec asking for 10**18 bags would run for ever."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_subtree_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_values(st.integers(-2, 12)))
    return doc


DATASET_DOC = {
    "source_count": 3,
    "bags": [
        {"label": 0, "candidate_sets": [[[0.1, 0.5, 0.9], [0.4, 0.6, 0.7]]]},
        {"label": 1, "candidate_sets": [[[0.35, 0.9, 0.9]], [[0.8, 0.9, 0.85]]]},
    ],
    "instance_truth": [[[0, 0]], [[1], [1]]],
}
SPEC_DOC = {
    "source_count": 3, "n_pos_bags": 2, "n_neg_bags": 2, "sets_per_bag": [1, 2],
    "instances_per_set": [1, 3], "noise_sigma": 0.1,
    "truth_measure": {"source_count": 3, "minimal_winning": [[1, 2], [1, 3]]}, "rng_seed": 5,
}

MEASURE_DOC = {"source_count": 3, "values": [0, 0, 0, 1, 0, 1, 0, 1]}


def assert_documented_exit(args):
    """Run the CLI: the exit code is documented, no traceback is printed,
    and exit 1 prints exactly one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# Garbage command-line values with no decimal digit, so none parses as a
# number, and small integers around the valid range
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
SMALL_INTS = st.integers(-3, 4).map(str)


class TestFuzzedInput:
    """Any JSON value as an input file ends in a documented exit code, never a traceback."""

    @pytest.mark.parametrize(
        "argv, valid",
        [
            (["fuse-eval", "--data", "{in}", "--naive", "min", "--out", "{out}"], DATASET_DOC),
            (["train", "--data", "{in}", "--mode", "bfm", "--max-generations", "1",
              "--out", "{out}"], DATASET_DOC),
            (["synth", "--spec", "{in}", "--out", "{out}"], SPEC_DOC),
            (["fuse-eval", "--data", "{data}", "--measure", "{in}", "--out", "{out}"],
             MEASURE_DOC),
        ],
        ids=["fuse-eval", "train", "synth", "fuse-eval-measure"],
    )
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_exit_code_and_one_error_line(self, argv, valid, data):
        value = data.draw(json_values(st.integers()) | mutated(valid))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(value))
            data_path = Path(tmp) / "data.json"  # a valid dataset beside a fuzzed measure
            data_path.write_text(json.dumps(DATASET_DOC))
            assert_documented_exit(
                [a.format(**{"in": path, "data": data_path, "out": Path(tmp) / "out"})
                 for a in argv]
            )

    @given(
        sources=st.lists(st.integers(2, 4).map(str), min_size=1, max_size=2).map(",".join)
        | st.lists(SMALL_INTS | NO_DIGITS, max_size=3).map(",".join),
        repeats=st.sampled_from(["1", "2"]) | st.integers(-2, 0).map(str) | NO_DIGITS,
        cap=st.floats(0.001, 2).map(str)
        | st.sampled_from(["1e-9", "0", "-1", "nan", "inf"])
        | NO_DIGITS,
    )
    @settings(max_examples=50, deadline=None)
    def test_bench_arguments(self, sources, repeats, cap):
        # source counts stay at 4 or below, so a valid draw runs in well under a second
        with tempfile.TemporaryDirectory() as tmp:
            assert_documented_exit(
                ["bench", f"--sources={sources}", f"--repeats={repeats}",
                 f"--cap-seconds={cap}", "--out", str(Path(tmp) / "bench.csv"),
                 "--population-size", "6", "--elite-count", "1",
                 "--max-generations", "3", "--stall-generations", "2"]
            )


class TestBenchRecipe:
    def test_small_source_counts_terminate(self):
        # S=2 only has two singleton coalitions; the recipe must not demand 3
        spec = bench_dataset_spec(2)
        assert spec.source_count == 2
        assert validate(spec.truth_measure).ok

    def test_three_coalitions_when_available(self):
        spec = bench_dataset_spec(6)
        winning = spec.truth_measure
        from bfmfusion import minimal_winning_coalitions

        coalitions = minimal_winning_coalitions(winning)
        assert len(coalitions) == 3
        assert all(len(c) == 3 for c in coalitions)

    def test_deterministic(self):
        assert spec_to_dict(bench_dataset_spec(5)) == spec_to_dict(bench_dataset_spec(5))
        assert bench_dataset_spec(5, seed=1) != bench_dataset_spec(5, seed=2)

    def test_rejects_single_source(self):
        from bfmfusion import ValidationError

        with pytest.raises(ValidationError):
            bench_dataset_spec(1)


class TestBenchmark:
    QUICK = dict(population_size=12, elite_count=2, max_generations=6,
                 stall_generations=3)

    def test_records_structure(self):
        records = run_benchmark([3], repeats=2, cap_seconds=60,
                                base_cfg=EAConfig(**self.QUICK))
        assert len(records["runs"]) == 4  # 2 algorithms x 2 repeats
        run = records["runs"][0]
        assert set(run) == {
            "source_count", "algorithm", "repeat", "seconds", "best_objective",
            "generations_run", "terminated_by", "censored", "cap_too_small",
        }
        assert not any(r["censored"] for r in records["runs"])

    def test_table_shape(self):
        records = run_benchmark([2, 3], repeats=2, cap_seconds=60,
                                base_cfg=EAConfig(**self.QUICK))
        table = bench_table(records)
        assert table[0] == ["algorithm", "metric", "S=2", "S=3"]
        assert [r[:2] for r in table[1:]] == [
            ["bfm", "time_seconds"], ["bfm", "best_objective"],
            ["real", "time_seconds"], ["real", "best_objective"],
        ]

    def test_censoring_marks_cells(self):
        records = run_benchmark([3], repeats=1, cap_seconds=1e-6,
                                base_cfg=EAConfig(**self.QUICK))
        assert all(r["censored"] and r["cap_too_small"] for r in records["runs"])
        table = bench_table(records)
        assert table[1][2] == ">1e-06s"

    def test_validation(self):
        from bfmfusion import ValidationError

        with pytest.raises(ValidationError):
            run_benchmark([3], repeats=0, cap_seconds=60)
        with pytest.raises(ValidationError):
            run_benchmark([1, 3], repeats=1, cap_seconds=60)
        with pytest.raises(ValidationError):
            run_benchmark([3], repeats=1, cap_seconds=60, algorithms=("bfm", "magic"))

    def test_cli_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sources", "2,3", "--repeats", "2",
                     "--cap-seconds", "30", "--out", str(out),
                     "--population-size", "12", "--elite-count", "2",
                     "--max-generations", "6", "--stall-generations", "3"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "S=2" in printed and "wrote" in printed

        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["algorithm", "metric", "S=2", "S=3"]
        assert len(rows) == 5
        records = json.loads((tmp_path / "bench.runs.json").read_text())
        assert len(records["runs"]) == 8
        assert records["provenance"]["version"]

    def test_cap_too_small_warns(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sources", "3", "--repeats", "1",
                     "--cap-seconds", "0.000001", "--out", str(out),
                     "--population-size", "12", "--elite-count", "2",
                     "--max-generations", "6", "--stall-generations", "3"])
        assert code == 0
        assert "too small" in capsys.readouterr().err

    def test_bad_sources(self, tmp_path, capsys):
        code = main(["bench", "--sources", "6,x", "--repeats", "1",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_empty_sources(self, tmp_path, capsys):
        code = main(["bench", "--sources", ",", "--repeats", "1",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 1

    def test_overwrite_refused(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = ["bench", "--sources", "2", "--repeats", "1", "--cap-seconds", "30",
                "--out", str(out), "--population-size", "12", "--elite-count", "2",
                "--max-generations", "4", "--stall-generations", "2"]
        assert main(args) == 0
        runs_before = (tmp_path / "bench.runs.json").read_bytes()
        assert main(args) == 1
        # the refusal happens before either file is rewritten
        assert (tmp_path / "bench.runs.json").read_bytes() == runs_before
        assert main(args + ["--force"]) == 0

    def test_existing_out_refused_before_running(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("bfmfusion.cli.run_benchmark", must_not_run)
        out = tmp_path / "bench.csv"
        out.write_text("")
        code = main(["bench", "--sources", "2", "--repeats", "1", "--out", str(out)])
        assert code == 1
        assert "--force" in capsys.readouterr().err
        assert not (tmp_path / "bench.runs.json").exists()
