"""Check that the benchmark is steady, and record a baseline.

    python3 perfbench/prove.py --seeds 1-10 --sets 2 --out perfbench/baseline.json

Runs `perfbench/run.py` once per workload and seed (and per set), one run at
a time. For every end-to-end metric it reports the median over the seeds
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. Every
spread must stay within the metric's bound in BENCHMARK.json, and the
median of a second set may not be worse than the first by more than the
bound. Outcome counts (reach counts, generations, stop reasons) must repeat
exactly between sets for the same seed. With --trace 1 it runs
the traced variant and summarises the per-layer report instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "wall_s": wall}
    return {"exit": 0, "wall_s": wall, "result": json.loads(lines[-1]),
            "record": json.loads(lines[-2])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", help="comma-separated; default every workload")
    p.add_argument("--seeds", default="1-10", help="for example 1-10 or 3,5,7")
    p.add_argument("--sets", type=int, default=1, choices=(1, 2))
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", help="write the summary (a baseline) to this JSON file")
    args = p.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or contract["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in contract["workloads"]])
    seeds = seed_list(args.seeds)
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]

    runs = {}  # (set, workload, seed) -> run
    ok = True
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                run = run_once(w, seed, seconds, args.trace)
                runs[(s, w, seed)] = run
                res = run.get("result", {})
                good = run["exit"] == 0 and res.get("correct") and res.get("failed") == 0
                ok &= bool(good)
                print(f"set {s + 1} {w:<14} seed {seed:>3}  wall {run['wall_s']:6.1f}s  "
                      f"exit {run['exit']}  correct {res.get('correct')}  "
                      f"attempted {res.get('attempted')}  failed {res.get('failed')}",
                      flush=True)

    summary = {"seconds": seconds, "seeds": seeds, "trace": args.trace, "workloads": {}}
    print()
    print(f"{'workload':<14} {'metric':<34} {'set':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for w in workloads:
        entry = {"report": {}, "end_to_end": {}, "outcomes": {}, "run_wall_s": []}
        first_medians = {}
        for s in range(args.sets):
            good = [runs[(s, w, seed)] for seed in seeds if "result" in runs[(s, w, seed)]]
            entry["run_wall_s"].append([runs[(s, w, seed)]["wall_s"] for seed in seeds])
            if len(good) < 2:
                ok = False
                continue
            for m in declared:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in good
                          if m["name"] in r["result"]["metrics"]]
                if len(values) < 2:
                    ok = False
                    continue
                med, q1, q3, sp = spread(values)
                bound = m.get("bound")
                verdict = ""
                if bound is not None:
                    limit_ok = sp <= bound
                    verdict = "ok" if limit_ok else "SPREAD OVER BOUND"
                    if limit_ok and sp > bound / 3:
                        verdict = "over a third of the bound"
                    ok &= limit_ok
                    if s == 0:
                        first_medians[m["name"]] = med
                    else:
                        delta = worse_by(first_medians[m["name"]], med, m["better"])
                        if delta > bound:
                            verdict += f"; second median worse by {delta:.1%}"
                            ok = False
                print(f"{w:<14} {m['name']:<34} {s + 1:>3} {med:>12.6g} {sp:>8.1%} "
                      f"{bound if bound is not None else '':>6}  {verdict}")
                entry["end_to_end"].setdefault(m["name"], []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": sp, "values": values})
            if s == 0:
                for key in good[0]["record"]["report"]:
                    values = [r["record"]["report"][key]["value"] for r in good]
                    unit = good[0]["record"]["report"][key]["unit"]
                    measured = [v for v in values if v is not None]
                    entry["report"][key] = {
                        "unit": unit,
                        "median": statistics.median(measured) if measured else None,
                        "values": values}
                entry["outcomes"] = {str(r["record"]["seed"]): r["record"]["outcomes"]
                                     for r in good}
                entry["environment"] = good[0]["record"]["environment"]
        if args.sets == 2:
            same = all(
                runs[(0, w, seed)].get("record", {}).get("outcomes")
                == runs[(1, w, seed)].get("record", {}).get("outcomes")
                for seed in seeds
            )
            ok &= same
            entry["outcomes_repeat"] = same
            print(f"{w:<14} outcome counts identical across sets: {same}")
        pooled = entry["report"]
        if "train_s_sum" in pooled and "reached" in pooled:
            total = sum(pooled["train_s_sum"]["values"])
            reached = sum(pooled["reached"]["values"])
            calls = sum(pooled["calls"]["values"])
            entry["pooled"] = {"tts_s": total / reached if reached else None,
                               "reach_rate": reached / calls, "reached": reached,
                               "calls": calls}
            print(f"{w:<14} pooled over seeds: reached {reached}/{calls}, "
                  f"tts_s {entry['pooled']['tts_s']}")
        summary["workloads"][w] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("\nevery run correct, every spread within its bound" if ok
          else "\nFAILED: a run failed or a spread, median or outcome check did not hold")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
