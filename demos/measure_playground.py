#!/usr/bin/env python3
"""Tour of the measure toolbox: construction, validation, repair, enumeration.

Usage:
    python3 demos/measure_playground.py
"""

from bfmfusion import (
    count_all,
    enumerate_all,
    from_minimal_coalitions,
    measure_to_antichain_dict,
    minimal_winning_coalitions,
    sample_random,
    set_with_repair,
    validate,
)


def show(measure, title):
    coalitions = measure_to_antichain_dict(measure)["minimal_winning"]
    print(f"{title}:")
    print(f"  value table (subset bitmask order): {measure.values.tolist()}")
    print(f"  minimal winning coalitions (1-based): {coalitions}")


def main():
    # a measure is fully determined by which coalitions of sources "win";
    # here any coalition containing source 1 plus one of sources 2, 3
    g = from_minimal_coalitions(3, [{0, 1}, {0, 2}])
    show(g, "measure built from two minimal coalitions")
    print(f"  valid: {validate(g).ok}")

    # single-element edits keep the monotonicity axiom by closure repair:
    # winning the pair {1,2} forces every superset to win too
    edited = set_with_repair(g, 0b110, 1)
    show(edited, "after forcing coalition {2,3} to win")

    # the axioms are restrictive: out of 2^6 = 64 conceivable 3-source
    # tables only 18 are valid measures
    print(f"\nvalid measures on 3 sources: {count_all(3)}")
    for i, m in enumerate(enumerate_all(3)):
        wins = [tuple(s + 1 for s in c) for c in minimal_winning_coalitions(m)]
        print(f"  #{i:2d}  table {m.values.tolist()}  wins {wins}")

    rng_seeded = sample_random(5, density=0.5, seed=7)
    print(f"\nrandom 5-source measure (seed 7) is valid: {validate(rng_seeded).ok}")
    print(f"coalitions: {measure_to_antichain_dict(rng_seeded)['minimal_winning']}")


if __name__ == "__main__":
    main()
