import argparse
import contextlib
import csv
import hashlib
import io
import json
import re
import tempfile
from dataclasses import fields
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
)
from bfmfusion.cli import _config_hash, _ea_config, build_parser, main
from bfmfusion.measures import measure_to_dict

ROOT = Path(__file__).resolve().parents[1]
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

    def test_retired_bench_is_a_usage_error(self, capsys):
        # perfbench times the trainers; the CLI no longer has a bench subcommand
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sources", "3"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_readme_documents_each_subcommand_and_train_flag(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        cli = readme[readme.index("## CLI"):readme.index("## JSON formats")]
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert re.findall(r"^### `bfmfusion (\S+)`$", cli, re.M) == list(subparsers.choices)
        flags = [flag for action in subparsers.choices["train"]._actions
                 for flag in action.option_strings if flag.startswith("--") and flag != "--help"]
        assert [flag for flag in flags if not re.search(re.escape(flag) + r"(?![\w-])", cli)] == []


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

    # SHA-256 of the outputs for one noisy spec and a fixed measure: a
    # generator that shifts the random stream, or a writer that formats a
    # number differently, changes these bytes. Re-recorded when the
    # generator began to make one draw per kind of draw, over every bag, set
    # or row at once, instead of one per bag and set
    GOLDEN = {
        "data.json": "32a26c419871e01952935a9e516bd40ed55ec7516450ab85b546903ae3462687",
        "data.manifest.json": "0f67f0bc12127e2926119f0c13ad9310d4cc97ffc5bd643bf75567ec954fc58e",
        "eval/fusion.csv": "8a5d59298b99d430095f34fff71b6742764f59c9a184e0e0f46ba56c7d9b1e6e",
        "eval/score.json": "2fd196fe32f735d113c0c7164447fb153425975a9e9808d5457cb1a56f449399",
        "eval/roc.csv": "ceca71bc21ac6ac8aff9c85f9c21ae4ab98ee02ca229eecc67afc29bfcb0f833",
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
        stdout = capsys.readouterr().out
        payload = json.loads(out.read_text())
        explanation = payload["explanation"]
        assert explanation["total"] == 0.0
        assert len(explanation["per_bag"]) == 16
        # one stdout line a bag, in bag order, formatted from its JSON entry
        assert [bag["bag_index"] for bag in explanation["per_bag"]] == list(range(16))
        assert [line for line in stdout.splitlines() if line.startswith("  bag ")] == [
            f"  bag {bag['bag_index']}: contribution {bag['contribution']:.6g} "
            f"from candidate set {bag['selected_set']}"
            for bag in explanation["per_bag"]
        ]

    def test_exhaustive_mode(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(dataset_path),
                     "--mode", "bfm-exhaustive", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["best_objective"] == 0.0
        assert payload["result"]["best_measure_minimal_winning"] == [[1, 2], [1, 3]]
        # the scan reads no search setting: none is written, none is hashed
        assert payload["config"] is None
        run_config = {"mode": "bfm-exhaustive", "seed": payload["seed"]}
        assert payload["provenance"]["config_hash"] == _config_hash(run_config)
        # 18 valid binary measures on 3 sources, each scanned once
        assert "best objective 0 over 18 measures scanned, " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--population-size", "7"), ("--elite-count", "1"), ("--small-mutation-rate", "0.5"),
         ("--max-generations", "3"), ("--stall-generations", "2"),
         ("--fitness-tolerance", "0.1"), ("--time-cap-seconds", "1e-6"), ("--seed", "3")],
    )
    def test_exhaustive_refuses_search_settings(self, flag, value, tmp_path, capsys):
        # the scan would ignore each of them, the time cap and the seed
        # included; refused before --data is read, so an absent file is not
        # reached
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(tmp_path / "absent.json"),
                     "--mode", "bfm-exhaustive", "--out", str(out), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} does not apply to --mode bfm-exhaustive\n"
        assert not out.exists()

    def test_search_settings_checked_before_data_is_read(self, tmp_path, capsys):
        # an absent --data would exit 2; the setting is refused first
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(tmp_path / "absent.json"), "--mode", "bfm",
                     "--population-size", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "population_size" in err and err.count("\n") == 1
        assert not out.exists()

    def test_every_search_setting_parses_with_its_type(self):
        # each EAConfig field is a train flag; rng_seed is spelled --seed
        settable = fields(EAConfig)
        given = {f.name: f.default + 1 if f.type == "int" else 0.25 for f in settable}
        argv = ["train", "--data", "d.json", "--mode", "bfm", "--out", "r.json"]
        for name, value in given.items():
            flag = "--seed" if name == "rng_seed" else "--" + name.replace("_", "-")
            argv += [flag, str(value)]
        args = build_parser().parse_args(argv)
        cfg = _ea_config(args)
        for f in settable:
            value = getattr(cfg, f.name)
            assert value == given[f.name]
            assert type(value) is (int if f.type == "int" else float)

    def test_no_elite_refused(self, dataset_path, tmp_path, capsys):
        # with no elite the best table found could be bred away
        out = tmp_path / "result.json"
        code = main(["train", "--data", str(dataset_path), "--mode", "bfm",
                     "--elite-count", "0", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: elite_count must be in [1, ") and err.count("\n") == 1
        assert not out.exists()

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
    def test_out_of_memory_exits_3(self, mode, dataset_path, tmp_path, capsys):
        # 10**15 columns exceed the address space, so the first population
        # allocation fails at once instead of growing
        out = tmp_path / "r.json"
        code = main(["train", "--mode", mode, "--data", str(dataset_path),
                     "--population-size", str(10**15), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_data_is_read_before_the_output_is_claimed(self, tmp_path, capsys):
        # as the README says: the outputs are checked after the inputs are
        # read, so an absent --data is reported even where --out exists
        out = tmp_path / "r.json"
        out.write_text("{}")
        code = main(["train", "--data", str(tmp_path / "absent.json"),
                     "--mode", "bfm", "--out", str(out)])
        assert code == 2
        assert "--force" not in capsys.readouterr().err
        assert out.read_text() == "{}"

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

    def test_measure_with_both_spellings_exits_1(self, tmp_path, capsys):
        data = self.auc_dataset(tmp_path)
        mpath = tmp_path / "measure.json"
        mpath.write_text(json.dumps({"source_count": 3, "values": [0, 0, 0, 1, 0, 1, 0, 1],
                                     "minimal_winning": [[1, 2], [1, 3]]}))
        code = main(["fuse-eval", "--data", str(data), "--measure", str(mpath),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "eval" / "fusion.csv").exists()

    @pytest.mark.parametrize("truth", [True, 1.0, False, 0.0])
    def test_non_integer_truth_exits_1(self, tmp_path, capsys, truth):
        # as bag labels, truth labels are the integers 0 and 1 only
        obj = json.loads(self.auc_dataset(tmp_path).read_text())
        obj["instance_truth"][-1][-1][-1] = truth
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main(["fuse-eval", "--data", str(path), "--naive", "min",
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        b, c = len(obj["bags"]) - 1, len(obj["bags"][-1]["candidate_sets"]) - 1
        i = len(obj["bags"][-1]["candidate_sets"][-1]) - 1
        assert f"bag {b}, candidate set {c}, instance {i}" in err
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
            lambda d: d["bags"].__setitem__(0, 5),
            lambda d: d["bags"][0].pop("label"),
        ],
        ids=["bags_number", "candidate_sets_number", "truth_number", "truth_too_shallow",
             "string_confidence", "float_label", "bag_number", "bag_without_label"],
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
    return code


# Garbage command-line values with no decimal digit, so none parses as a
# number, and small integers and reals around the valid ranges
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
SMALL_INTS = st.integers(-3, 4).map(str)
SMALL_REALS = st.floats(-0.5, 2).map(str) | st.sampled_from(["1e-9", "0", "-1", "nan", "inf"])


# each command that reads a JSON input file, "{in}", and a valid document for it
INPUT_COMMANDS = pytest.mark.parametrize(
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


def run_on_input(argv, tmp, content: bytes):
    """`assert_documented_exit` on `argv` with `content` as its input file,
    beside a valid dataset for the command that reads a measure."""
    path = Path(tmp) / "input.json"
    path.write_bytes(content)
    data_path = Path(tmp) / "data.json"
    data_path.write_text(json.dumps(DATASET_DOC))
    return assert_documented_exit(
        [a.format(**{"in": path, "data": data_path, "out": Path(tmp) / "out"}) for a in argv]
    )


class TestFuzzedInput:
    """Any JSON value as an input file ends in a documented exit code, never a traceback."""

    @INPUT_COMMANDS
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_exit_code_and_one_error_line(self, argv, valid, data):
        value = data.draw(json_values(st.integers()) | mutated(valid))
        with tempfile.TemporaryDirectory() as tmp:
            run_on_input(argv, tmp, json.dumps(value).encode())

    @INPUT_COMMANDS
    @pytest.mark.parametrize(
        "content", [b"\xff\xfe", b"[" * 200_000], ids=["not-utf8", "nested-200000"]
    )
    def test_undecodable_file_is_one_error(self, tmp_path, argv, valid, content):
        # the decoder raises UnicodeDecodeError and RecursionError on these
        assert run_on_input(argv, tmp_path, content) == 1

    @pytest.mark.parametrize("mode", ["bfm", "real"])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_search_flags(self, mode, data):
        # counts stay at 4 or below, so a valid draw trains in well under a second
        given = {"seed": data.draw(SMALL_INTS)}
        for f in fields(EAConfig):
            if f.name != "rng_seed":
                given[f.name] = data.draw(SMALL_INTS if f.type == "int" else SMALL_REALS)
        # at most one value that is no number, so most draws reach the search
        garbage = data.draw(st.none() | st.sampled_from(sorted(given)))
        if garbage:
            given[garbage] = data.draw(NO_DIGITS)
        argv = ["train", "--mode", mode]
        argv += [f"--{name.replace('_', '-')}={value}" for name, value in given.items()]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.json"
            path.write_text(json.dumps(DATASET_DOC))
            assert_documented_exit(argv + ["--data", str(path), "--out", str(Path(tmp) / "out")])
