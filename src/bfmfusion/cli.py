"""Command-line entry point.

Subcommands wire the library into reproducible runs:

* synth      generate a synthetic dataset from a spec file
* train      learn a measure from a dataset (binary EA, exhaustive, or real EA)
* fuse-eval  apply a measure (or naive baseline) and score against truth
* bench      timing comparison of binary vs real training across source counts

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 cap refusal
or a run out of memory.
Every persisted artifact embeds the seed, a hash of the run configuration,
and the tool version, so outputs are traceable to their inputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .data import (
    SynthSpec,
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
    from_minimal_coalitions,
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
from .rng import substream

TRAIN_MODES = ("bfm", "bfm-exhaustive", "real")
BENCH_ALGORITHMS = ("bfm", "real")


def _config_hash(obj: dict) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _provenance(seed: Optional[int], config: dict) -> dict:
    return {"seed": seed, "config_hash": _config_hash(config), "version": __version__}


def _claim(force: bool, *paths) -> None:
    """Refuse, before any work starts, to overwrite an existing output unless forced."""
    for path in paths:
        if not force and Path(path).exists():
            raise ValidationError(f"{path} exists; pass --force to overwrite")


def _ea_config(args, seed: int) -> EAConfig:
    kwargs = {"rng_seed": seed}
    for field in fields(EAConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            kwargs[field.name] = value
    return EAConfig(**kwargs)


def _add_ea_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("search settings (defaults per EAConfig)")
    g.add_argument("--population-size", type=int)
    g.add_argument("--elite-count", type=int)
    g.add_argument("--small-mutation-rate", type=float)
    g.add_argument("--max-generations", type=int)
    g.add_argument("--stall-generations", type=int)
    g.add_argument("--fitness-tolerance", type=float)


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
        for field in fields(EAConfig):
            if getattr(args, field.name, None) is not None:
                flag = "--" + field.name.replace("_", "-")
                raise ValidationError(f"{flag} does not apply to --mode bfm-exhaustive")
    data = load_dataset(args.data)
    cfg = _ea_config(args, args.seed)
    _claim(args.force, args.out)
    # one compilation serves the training and the explanation
    prepared = prepare(data)

    run_config = {"mode": args.mode, "seed": args.seed}
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
        "seed": args.seed,
        "config": config,
        "data_path": str(args.data),
        "result": result.to_json_dict(),
        "provenance": _provenance(args.seed, run_config),
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


# ---------------------------------------------------------------- bench


def bench_dataset_spec(source_count: int, seed: int = 0) -> SynthSpec:
    """Deterministic benchmark dataset recipe for one source count.

    Truth is an antichain of up to 3 distinct coalitions of size ceil(S/2)
    (equal cardinality, so minimality is automatic). Noise is 0 so the
    binary search can terminate by exact convergence. Bag count grows with
    S so evaluation work scales with the source count.
    """
    if source_count < 2:
        raise ValidationError("benchmark needs at least 2 sources")
    rng = substream(seed, "bench", source_count)
    size = (source_count + 1) // 2
    # small S may not have 3 distinct coalitions of this size
    want = min(3, math.comb(source_count, size))
    coalitions: set[frozenset[int]] = set()
    while len(coalitions) < want:
        coalitions.add(frozenset(int(i) for i in rng.permutation(source_count)[:size]))
    truth = from_minimal_coalitions(source_count, sorted(coalitions, key=sorted))
    return SynthSpec(
        source_count=source_count,
        n_pos_bags=2 * source_count,
        n_neg_bags=2 * source_count,
        sets_per_bag=(2, 3),
        instances_per_set=(3, 4),
        noise_sigma=0.0,
        truth_measure=truth,
        rng_seed=int(rng.integers(2**31)),
    )


def run_benchmark(
    source_counts: Sequence[int],
    repeats: int,
    cap_seconds: float,
    seed: int = 0,
    algorithms: Sequence[str] = BENCH_ALGORITHMS,
    base_cfg: Optional[EAConfig] = None,
) -> dict:
    """Run the timing comparison; returns a records dict (no I/O).

    Per source count one dataset is generated, then each algorithm trains
    `repeats` times with per-repeat seeds. Wall time covers the optimizer
    loop only, not dataset generation or I/O. Runs stopped by the time cap
    are marked censored; a censored run that finished zero generations is
    additionally flagged cap_too_small.
    """
    if repeats < 1:
        raise ValidationError("repeats must be at least 1")
    if any(s < 2 for s in source_counts):
        raise ValidationError("every source count must be at least 2")
    unknown = set(algorithms) - set(BENCH_ALGORITHMS)
    if unknown:
        raise ValidationError(f"unknown benchmark algorithms: {sorted(unknown)}")
    base = base_cfg if base_cfg is not None else EAConfig()

    trainers = {"bfm": train_bfm, "real": train_real_fm}
    runs = []
    for s in source_counts:
        data = generate_synthetic(bench_dataset_spec(s, seed))
        for algorithm in algorithms:
            for rep in range(repeats):
                cfg = replace(
                    base, rng_seed=seed * 1000 + rep, time_cap_seconds=cap_seconds
                )
                result = trainers[algorithm](data, cfg)
                censored = result.terminated_by == "time_cap"
                runs.append(
                    {
                        "source_count": s,
                        "algorithm": algorithm,
                        "repeat": rep,
                        "seconds": result.wall_time_seconds,
                        "best_objective": result.best_objective,
                        "generations_run": result.generations_run,
                        "terminated_by": result.terminated_by,
                        "censored": censored,
                        "cap_too_small": censored and result.generations_run == 0,
                    }
                )
    return {
        "source_counts": list(source_counts),
        "repeats": repeats,
        "cap_seconds": cap_seconds,
        "seed": seed,
        "algorithms": list(algorithms),
        "config": base.to_json_dict(),
        "runs": runs,
    }


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def _bench_cell(records: list, metric: str, cap_seconds: float) -> str:
    if any(r["censored"] for r in records) and metric == "seconds":
        return f">{cap_seconds:g}s"
    mean, sd = _mean_sd([r[metric] for r in records])
    return f"{mean:.3g}({sd:.2g})"


def bench_table(records: dict) -> list[list[str]]:
    """Pivot run records into rows: algorithm x metric, one column per S."""
    counts = records["source_counts"]
    header = ["algorithm", "metric"] + [f"S={s}" for s in counts]
    rows = [header]
    for algorithm in records["algorithms"]:
        for metric, label in (("seconds", "time_seconds"), ("best_objective", "best_objective")):
            row = [algorithm, label]
            for s in counts:
                cell_runs = [
                    r
                    for r in records["runs"]
                    if r["algorithm"] == algorithm and r["source_count"] == s
                ]
                row.append(_bench_cell(cell_runs, metric, records["cap_seconds"]))
            rows.append(row)
    return rows


def cmd_bench(args) -> int:
    try:
        source_counts = [int(x) for x in args.sources.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ValidationError(f"--sources must be comma-separated integers: {e}") from e
    if not source_counts:
        raise ValidationError("--sources must name at least one source count")

    base = _ea_config(args, args.seed)
    runs_path = Path(args.out).with_suffix(".runs.json")
    _claim(args.force, args.out, runs_path)
    records = run_benchmark(
        source_counts,
        repeats=args.repeats,
        cap_seconds=args.cap_seconds,
        seed=args.seed,
        base_cfg=base,
    )
    records["provenance"] = _provenance(
        args.seed,
        {
            "sources": source_counts,
            "repeats": args.repeats,
            "cap_seconds": args.cap_seconds,
            "config": base.to_json_dict(),
        },
    )

    for r in records["runs"]:
        if r["cap_too_small"]:
            print(
                f"warning: cap {args.cap_seconds}s too small for one generation "
                f"(algorithm {r['algorithm']}, S={r['source_count']}, repeat {r['repeat']})",
                file=sys.stderr,
            )

    table = bench_table(records)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table)
    _write_json(runs_path, records)

    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(f"wrote {args.out} and {runs_path}")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="result JSON output path")
    p.add_argument(
        "--explain",
        action="store_true",
        help="include and print the per-bag objective breakdown of the result",
    )
    p.add_argument("--time-cap-seconds", type=float, dest="time_cap_seconds")
    _add_ea_flags(p)
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

    p = sub.add_parser("bench", help="binary vs real training time comparison")
    p.add_argument("--sources", required=True, help="comma-separated source counts")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--cap-seconds", type=float, default=120.0, dest="cap_seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="timing table CSV output path")
    _add_ea_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_bench)

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
    except CapError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        # outputs are written only after the work, so nothing is left behind
        print(f"refused: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
