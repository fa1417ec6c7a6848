#!/usr/bin/env python3
"""Why the binary restriction pays off: training time next to solution quality.

The binary search can stop the moment it hits an exact optimum, while the
real-valued variant keeps polishing decimals until it stalls or its
generation budget runs out. Each source count gets one noise-free dataset
whose planted measure scores an exact 0, so "reached 0" counts the runs
that found an optimum. Same data, same search settings, per-repeat seeds.

Usage:
    python3 demos/timing_trend.py
"""

import numpy as np

from bfmfusion import (
    EAConfig,
    SynthSpec,
    from_minimal_coalitions,
    generate_synthetic,
    train_bfm,
    train_real_fm,
)

COUNTS = (4, 6, 8)
REPEATS = 3
TRAINERS = {"binary": train_bfm, "real": train_real_fm}


def dataset(source_count):
    # either half of the sources wins on its own
    half = source_count // 2
    truth = from_minimal_coalitions(
        source_count, [set(range(half)), set(range(half, source_count))]
    )
    return generate_synthetic(
        SynthSpec(
            source_count=source_count,
            n_pos_bags=2 * source_count,
            n_neg_bags=2 * source_count,
            sets_per_bag=(2, 3),
            instances_per_set=(3, 4),
            noise_sigma=0.0,
            truth_measure=truth,
            rng_seed=source_count,
        )
    )


def main():
    print(f"training on synthetic data with {COUNTS} sources, {REPEATS} repeats each")
    print("(wall times are machine-dependent; the gap and the trend are the point)\n")
    print(f"{'sources':>7}  {'trainer':<7}  {'median time':>11}  "
          f"{'median best objective':>21}  reached 0")

    median_seconds = {}
    for s in COUNTS:
        data = dataset(s)
        for name, trainer in TRAINERS.items():
            results = [trainer(data, EAConfig(rng_seed=rep)) for rep in range(REPEATS)]
            seconds = float(np.median([r.wall_time_seconds for r in results]))
            best = float(np.median([r.best_objective for r in results]))
            reached = sum(r.best_objective == 0 for r in results)
            median_seconds[s, name] = seconds
            print(f"{s:>7}  {name:<7}  {seconds:>10.3g}s  {best:>21.4g}  "
                  f"{reached}/{REPEATS}")

    print("\nthe ratio compares time to stop, not time to the same objective:")
    for s in COUNTS:
        ratio = median_seconds[s, "real"] / median_seconds[s, "binary"]
        print(f"  {s} sources: real-valued training took {ratio:.1f}x longer")


if __name__ == "__main__":
    main()
