"""bfmfusion benchmark: one workload per call, or every workload with `all`.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in a child process of
its own (numpy's thread pools pinned to one thread), so its peak memory is
its own. With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it carries the
per-layer metrics from a traced run instead. Earlier lines hold the full
report: every metric with its unit and sample count, the outcome counts
that must repeat for the same code and seed, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("search", "evaluate-large", "pipeline", "real-baseline")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- parent


def run_child(workload: str, args) -> tuple[int, list[str]]:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # a run takes about 1.5 x --seconds (set-up, checks, the traced run's
    # untraced twin rounds); only a hung child should reach this
    timeout = max(170, 3 * args.seconds + 60)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload} exceeded {timeout:g}s", file=sys.stderr)
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def parent(args) -> int:
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        code, lines = run_child(name, args)
        if code != 0:
            print(f"error: workload {name} exited with code {code}", file=sys.stderr)
            return code or 1
        if args.workload != "all":
            print("\n".join(lines))
            return 0
        print("\n".join(lines[:-1]))
        results.append((name, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}/{k}": v for name, r in results for k, v in r["metrics"].items()},
    }))
    return 0


# ---------------------------------------------------------------- child


def import_package():
    """Import bfmfusion from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bfmfusion
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bfmfusion from {src}: {exc}")
    if src not in Path(bfmfusion.__file__).resolve().parents:
        raise SystemExit(f"error: bfmfusion was imported from {bfmfusion.__file__}, not {src}")


def git(*args: str) -> str | None:
    """Output of a git command on this checkout, or None outside a repository."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if (status := git("status", "--porcelain")) is None else bool(status),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def child(args) -> int:
    import_package()
    import workloads as wl

    spec = contract()
    workload_cls = wl.WORKLOADS[args.workload]
    rounds = max(2, round(args.seconds / workload_cls.nominal_round_s))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_cls(args.seed, str(workdir))
        setup_times = []

        def setup():
            for _ in range(workload.setup_repeats):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)

        outcome = wl.Outcome()
        if args.trace:
            report = traced_run(workload, rounds, outcome, setup)
        else:
            report = untraced_run(workload, rounds, outcome, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    detail = report["metrics"]
    detail["setup_s"] = (wl.median(setup_times), "s", len(setup_times))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["peak_rss_mib"] = (peak, "MiB", 1)
    correct = outcome.failed == 0 and report["consistent"]

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in names:
        value = detail.get(m["name"], (None,))[0]
        if value is None or not math.isfinite(value):
            correct = False
            outcome.reasons.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "environment": environment(args.seed),
        "outcomes": report["outcomes"],
        "failures": outcome.reasons,
        # JSON has no infinity: a tts_s with nothing reached is null
        "report": {k: {"value": v if math.isfinite(v) else None, "unit": u, "n": n}
                   for k, (v, u, n) in sorted(detail.items())},
    }
    for key, (value, unit, n) in sorted(detail.items()):
        print(f"# {args.workload:<14} {key:<36} {value:>14.6g} {unit:<9} n={n}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def collect(workload, round_results) -> dict:
    """End-to-end metrics and outcomes from the rounds that completed."""
    done = [record for record, _ in round_results if record is not None]
    if not done:
        return {"metrics": {}, "outcomes": []}
    return {"metrics": workload.metrics(done), "outcomes": workload.outcomes(done)}


def untraced_run(workload, rounds, outcome, setup) -> dict:
    results = []
    for r in range(rounds):
        setup()
        results.append(workload.run_round(r, outcome))
    report = collect(workload, results)
    report["consistent"] = True
    return report


def traced_run(workload, rounds, outcome, setup) -> dict:
    """Each round runs untraced and traced; tracing overhead is the difference.

    The order alternates between rounds, so warm-up cost does not fall on
    one side only. Set-up runs untraced before each of them.
    """
    spans = tracer.Tracer()
    untraced, traced = [], []

    def untraced_round(r):
        setup()
        untraced.append(workload.run_round(r, outcome))

    def traced_round(r):
        setup()
        spans.install()
        try:
            traced.append(workload.run_round(r, outcome, spans))
        finally:
            spans.uninstall()

    for r in range((rounds + 1) // 2):
        if r % 2:
            traced_round(r)
        untraced_round(r)
        if not r % 2:
            traced_round(r)
    plain = collect(workload, untraced)
    report = collect(workload, traced)
    layers = tracer.layer_metrics(spans)
    traced_s = sum(busy for _, busy in traced)
    untraced_s = sum(busy for _, busy in untraced)
    covered = sum(layers[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    layers["trace.wall_s"] = (traced_s, "s")
    layers["trace.untraced_wall_s"] = (untraced_s, "s")
    layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
    layers["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s if untraced_s
                                      else math.nan, "ratio")
    # share of the traced operations' wall time that the layer self times explain
    layers["trace.self_coverage"] = (covered / traced_s if traced_s else math.nan, "ratio")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans.write(out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    report["metrics"] = {k: (v, u, len(traced)) for k, (v, u) in layers.items()}
    report["consistent"] = plain["outcomes"] == report["outcomes"]
    report["outcomes"] = {
        "untraced": plain["outcomes"],
        "traced": report["outcomes"],
        "measures_evaluated": layers["objective.measures_evaluated"][0],
        "generations": layers["optimizer.generations"][0],
    }
    if not report["consistent"]:
        outcome.reasons.append("traced and untraced rounds disagree on outcomes")
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
