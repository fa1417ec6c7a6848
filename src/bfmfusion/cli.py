"""Command-line entry point.

Subcommands wire the library into reproducible runs:

* synth      generate a synthetic dataset from a spec file
* train      learn a measure from a dataset (binary EA, exhaustive, or real EA)
* fuse-eval  apply a measure (or naive baseline) and score against truth

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 cap refusal
or a run out of memory.
The synth manifest, the train result and score.json embed the seed (null in
score.json), a hash of the run configuration and the tool version; the
dataset, fusion.csv and roc.csv carry none of these.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .data import (
    generate_synthetic,
    load_dataset,
    save_dataset,
    spec_from_dict,
    spec_to_dict,
)
from .errors import CapError, ValidationError
from .measures import (
    BinaryFuzzyMeasure,
    _read_json,
    _write_json,
    load_measure,
    measure_to_antichain_dict,
    measure_to_dict,
)
from .metrics import (
    NAIVE_MODES,
    fuse,
    fuse_naive,
    score,
    write_fusion_csv,
    write_roc_csv,
)
from .objective import objective, prepare
from .optimizer import EAConfig, train_bfm, train_exhaustive, train_real_fm

TRAIN_MODES = ("bfm", "bfm-exhaustive", "real")


def _config_hash(obj: dict) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _provenance(seed: Optional[int], config: dict) -> dict:
    return {"seed": seed, "config_hash": _config_hash(config), "version": __version__}


def _claim(force: bool, *paths) -> None:
    """Refuse to overwrite an existing output unless forced. Subcommands call
    this after reading their inputs and before any synthesis, training or
    fusion, so a refused command writes nothing."""
    for path in paths:
        if not force and Path(path).exists():
            raise ValidationError(f"{path} exists; pass --force to overwrite")


def _ea_config(args) -> EAConfig:
    given = {f.name: getattr(args, f.name) for f in fields(EAConfig)}
    return EAConfig(**{name: value for name, value in given.items() if value is not None})


def _flag(name: str) -> str:
    return "--" + name.removeprefix("rng_").replace("_", "-")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")


def _antichain_text(measure: BinaryFuzzyMeasure) -> str:
    coalitions = measure_to_antichain_dict(measure)["minimal_winning"]
    return ", ".join("{" + ",".join(str(i) for i in c) + "}" for c in coalitions)


# ---------------------------------------------------------------- synth


def cmd_synth(args) -> int:
    spec = spec_from_dict(_read_json(args.spec))
    manifest_path = Path(args.out).with_suffix(".manifest.json")
    _claim(args.force, args.out, manifest_path)
    data = generate_synthetic(spec)
    save_dataset(args.out, data)

    spec_dict = spec_to_dict(spec)
    manifest = {
        "command": "synth",
        "spec": spec_dict,
        "seed": spec.rng_seed,
        "truth_measure": measure_to_dict(spec.truth_measure),
        "truth_minimal_winning": measure_to_antichain_dict(spec.truth_measure)[
            "minimal_winning"
        ],
        "n_instances": data.n_instances,
        "provenance": _provenance(spec.rng_seed, spec_dict),
    }
    _write_json(manifest_path, manifest)
    print(
        f"wrote {data.n_instances} instances in {len(data.labels())} bags "
        f"to {args.out} (manifest: {manifest_path})"
    )
    return 0


# ---------------------------------------------------------------- train


def cmd_train(args) -> int:
    if args.mode == "bfm-exhaustive":
        # the scan visits every measure once, so no search setting applies
        given = [f.name for f in fields(EAConfig) if getattr(args, f.name) is not None]
        if given:
            raise ValidationError(f"{_flag(given[0])} does not apply to --mode bfm-exhaustive")
    cfg = _ea_config(args)  # checked before the data is read
    data = load_dataset(args.data)
    _claim(args.force, args.out)
    # one compilation serves the training and the explanation
    prepared = prepare(data)

    run_config = {"mode": args.mode, "seed": cfg.rng_seed}
    if args.mode == "bfm-exhaustive":
        # the scan reads no search setting, so none is recorded or hashed
        result, config = train_exhaustive(prepared), None
        ran = f"over {result.generations_run} measures scanned"
    else:
        trainer = train_bfm if args.mode == "bfm" else train_real_fm
        result, config = trainer(prepared, cfg), cfg.to_json_dict()
        run_config["config"] = config
        ran = f"after {result.generations_run} generations ({result.terminated_by})"

    payload = {
        "command": "train",
        "mode": args.mode,
        "seed": cfg.rng_seed,
        "config": config,
        "data_path": str(args.data),
        "result": result.to_json_dict(),
        "provenance": _provenance(cfg.rng_seed, run_config),
    }
    if args.explain:
        breakdown = objective(result.best_measure, prepared)
        payload["explanation"] = breakdown.to_json_dict()

    _write_json(args.out, payload)

    print(f"best objective {result.best_objective:.6g} {ran}, {result.wall_time_seconds:.3f}s")
    if isinstance(result.best_measure, BinaryFuzzyMeasure):
        print(f"minimal winning coalitions: {_antichain_text(result.best_measure)}")
    if args.explain:
        for b, (c, sel) in enumerate(zip(breakdown.contributions, breakdown.selected_sets)):
            print(f"  bag {b}: contribution {c:.6g} from candidate set {sel}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------- fuse-eval


def cmd_fuse_eval(args) -> int:
    data = load_dataset(args.data)
    measure = load_measure(args.measure) if args.measure is not None else None
    truth = data.flat_truth()

    out_dir = Path(args.out)
    fusion_path, score_path, roc_path = (
        out_dir / name for name in ("fusion.csv", "score.json", "roc.csv")
    )
    written = [fusion_path] if truth is None else [fusion_path, score_path, roc_path]
    _claim(args.force, fusion_path, score_path, roc_path)

    fmap = fuse_naive(data, args.naive) if measure is None else fuse(data, measure)
    os.makedirs(out_dir, exist_ok=True)
    write_fusion_csv(fusion_path, data, fmap)

    run_config = {
        "data": str(args.data),
        "measure": str(args.measure) if args.measure else None,
        "naive": args.naive,
    }
    if truth is None:
        # scores of an earlier run must not read as this run's
        score_path.unlink(missing_ok=True)
        roc_path.unlink(missing_ok=True)
        print(
            "warning: dataset has no instance truth; scoring skipped",
            file=sys.stderr,
        )
    else:
        report = score(fmap, truth)
        _write_json(
            score_path,
            {
                **report.to_json_dict(),
                "n_instances": data.n_instances,
                "fusion": fmap.provenance,
                "provenance": _provenance(None, run_config),
            },
        )
        write_roc_csv(roc_path, report)
        auc_text = "undefined" if report.auc is None else f"{report.auc:.4f}"
        print(f"auc {auc_text}  rmse {report.rmse:.4f}  psnr {report.psnr:.3f} dB")

    print("wrote " + ", ".join(map(str, written)))
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfmfusion",
        description="Binary fuzzy measure learning and Choquet-integral fusion",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset from a spec file")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True, help="dataset JSON output path")
    _add_common_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="learn a measure from a dataset")
    p.add_argument("--data", required=True, help="dataset JSON path")
    p.add_argument("--mode", required=True, choices=TRAIN_MODES)
    p.add_argument("--out", required=True, help="result JSON output path")
    p.add_argument(
        "--explain",
        action="store_true",
        help="include and print the per-bag objective breakdown of the result",
    )
    g = p.add_argument_group("search settings (defaults per EAConfig)")
    for field in fields(EAConfig):
        # rng_seed is spelled --seed; annotations are strings under postponed evaluation
        g.add_argument(_flag(field.name), dest=field.name,
                       type=int if field.type in (int, "int") else float)
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fuse-eval", help="apply a measure and score against truth")
    p.add_argument("--data", required=True, help="dataset JSON path")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--measure", help="measure JSON path, or a train result JSON")
    src.add_argument("--naive", choices=NAIVE_MODES, help="naive baseline mode")
    p.add_argument("--out", required=True, help="output directory")
    _add_common_flags(p)
    p.set_defaults(func=cmd_fuse_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except (CapError, MemoryError) as e:
        # outputs are written only after the work, so nothing is left behind
        print(f"refused: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
