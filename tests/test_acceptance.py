"""Headline acceptance checks, one test per shipped guarantee.

Each test prints exactly one [PASS]/[FAIL] line (with capture disabled, so
the lines always reach the terminal) and asserts both the guarantee and its
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from bfmfusion import (
    Bag,
    Dataset,
    EAConfig,
    SynthSpec,
    choquet_batch,
    choquet_maxmin,
    enumerate_all,
    from_minimal_coalitions,
    generate_synthetic,
    minimal_winning_coalitions,
    objective,
    sample_random,
    sample_random_real,
    score,
    train_bfm,
    train_exhaustive,
    train_real_fm,
)
from oracles import brute_force_tables, naive_objective, pair_count_auc

PLANTED = from_minimal_coalitions(3, [{0, 1}, {0, 2}])


def _report(capsys, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _random_dataset(rng, s):
    bags = []
    for b in range(int(rng.integers(2, 6))):
        sets = [
            rng.random((int(rng.integers(1, 4)), s))
            for _ in range(int(rng.integers(1, 4)))
        ]
        bags.append(Bag(int(b % 2), sets))
    return Dataset(s, tuple(bags))


def test_1_aggregation_equivalence(capsys):
    budget = 5.0
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    max_dev = 0.0
    for _ in range(10_000):
        s = int(rng.integers(2, 7))
        g = sample_random(s, float(rng.uniform(0.2, 0.8)), rng)
        h = rng.random(s)
        max_dev = max(max_dev, abs(choquet_batch([h], g)[0] - choquet_maxmin(h, g)))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        "aggregation equivalence",
        max_dev <= 1e-12 and elapsed < budget,
        f"10^4 random pairs over 2..6 sources, max |difference| {max_dev:.2e} "
        f"(tolerance 1e-12), {elapsed:.2f}s (budget {budget:g}s)",
    )


def test_2_enumeration_counts(capsys):
    budget = 10.0
    expected = {1: 1, 2: 4, 3: 18, 4: 166}
    t0 = time.perf_counter()
    ok = True
    counts = {}
    for s, want in expected.items():
        produced = {tuple(int(v) for v in g.values) for g in enumerate_all(s)}
        reference = set(brute_force_tables(s))
        counts[s] = len(produced)
        ok = ok and produced == reference and len(produced) == want
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    _report(
        capsys,
        "enumeration counts",
        ok,
        f"valid measures per source count {counts} match the brute-force "
        f"filter, {elapsed:.2f}s (budget {budget:g}s)",
    )


def test_3_objective_reference_agreement(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    max_dev = 0.0
    for _ in range(200):
        s = int(rng.integers(2, 5))
        ds = _random_dataset(rng, s)
        for g in (sample_random(s, 0.5, rng), sample_random_real(s, rng)):
            max_dev = max(max_dev, abs(objective(g, ds).total - naive_objective(g.values, ds)))

    # hand case: first-source-only measure, contributions 0.16 and 0.01;
    # 0.17 is not representable in binary, so exactness means the
    # double-precision limit
    first_only = from_minimal_coalitions(2, [{0}])
    hand = Dataset(
        2,
        (
            Bag(0, [np.array([[0.4, 0.5], [0.6, 0.1]]), np.array([[0.2, 0.7]])]),
            Bag(1, [np.array([[0.9, 0.3], [0.3, 0.8]]), np.array([[0.5, 0.2]])]),
        ),
    )
    hand_dev = abs(objective(first_only, hand).total - 0.17)
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        "objective reference agreement",
        max_dev <= 1e-12 and hand_dev <= 1e-12 and elapsed < budget,
        f"200 random datasets, max |difference| {max_dev:.2e} (tolerance "
        f"1e-12); hand case off by {hand_dev:.2e}; {elapsed:.2f}s (budget {budget:g}s)",
    )


def test_4_planted_antichain_recovery(capsys):
    budget = 120.0
    t0 = time.perf_counter()
    spec = SynthSpec(
        source_count=3,
        n_pos_bags=20,
        n_neg_bags=20,
        sets_per_bag=(2, 3),
        instances_per_set=(3, 4),
        noise_sigma=0.05,
        truth_measure=PLANTED,
        rng_seed=41,
    )
    data = generate_synthetic(spec)
    floor = train_exhaustive(data)
    want = minimal_winning_coalitions(PLANTED)
    floor_ok = minimal_winning_coalitions(floor.best_measure) == want

    wins = 0
    for seed in range(40):
        cfg = EAConfig(
            population_size=32,
            elite_count=4,
            max_generations=200,
            stall_generations=25,
            rng_seed=seed,
        )
        res = train_bfm(data, cfg)
        if (
            res.best_objective <= floor.best_objective + 1e-12
            and minimal_winning_coalitions(res.best_measure) == want
        ):
            wins += 1
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        "planted antichain recovery",
        floor_ok and wins >= 38 and elapsed < budget,
        f"noisy 3-source data: global optimum is the planted {{1,2}}, {{1,3}} "
        f"structure and search recovered it in {wins}/40 seeded runs "
        f"(need 38), {elapsed:.1f}s (budget {budget:g}s)",
    )


def timing_spec(source_count):
    """Noise-free data around up to 3 planted coalitions of size ceil(S/2).

    Equal sizes make the coalitions minimal, no noise lets the binary search
    stop by exact convergence, and the bag count grows with S so evaluation
    work grows with the source count.
    """
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(3, source_count)))
    size = (source_count + 1) // 2
    coalitions = set()
    # small S may not have 3 distinct coalitions of this size
    while len(coalitions) < min(3, math.comb(source_count, size)):
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


def test_5_binary_training_speed_advantage(capsys):
    budget = 1800.0
    cap = 120.0
    counts = (6, 8, 10, 12)
    t0 = time.perf_counter()

    def runs(trainer, source_count):
        data = generate_synthetic(timing_spec(source_count))
        return [trainer(data, EAConfig(rng_seed=rep, time_cap_seconds=cap)) for rep in range(5)]

    bfm = [runs(train_bfm, s) for s in counts]
    real = runs(train_real_fm, 8)

    def mean_seconds(results):
        return float(np.mean([r.wall_time_seconds for r in results]))

    bfm_means = [mean_seconds(results) for results in bfm]
    real_mean = mean_seconds(real)
    censored = any(r.terminated_by == "time_cap" for results in bfm + [real] for r in results)
    faster = bfm_means[counts.index(8)] < real_mean
    trend = all(a <= b for a, b in zip(bfm_means, bfm_means[1:]))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        "binary training speed advantage",
        faster and trend and not censored and elapsed < budget,
        f"mean binary times {[f'{m:.3f}s' for m in bfm_means]} over sources "
        f"{list(counts)} are non-decreasing; at 8 sources binary "
        f"{bfm_means[1]:.3f}s < real {real_mean:.3f}s; 5 repeats, {cap:g}s cap, "
        f"no run censored; {elapsed:.1f}s (budget {budget:g}s)",
    )


def test_6_metric_identities(capsys):
    budget = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    max_auc_dev = 0.0
    max_psnr_dev = 0.0
    for k in range(200):
        n = int(rng.integers(2, 201))
        scores = rng.random(n)
        if k % 2:
            scores = np.round(scores, 1)  # tie-heavy half
        truth = rng.integers(0, 2, n)
        truth[0], truth[-1] = 0, 1
        report = score(scores, truth)
        max_auc_dev = max(max_auc_dev, abs(report.auc - pair_count_auc(scores, truth)))
        if report.rmse > 0:
            max_psnr_dev = max(
                max_psnr_dev, abs(report.psnr - (-20.0 * math.log10(report.rmse)))
            )

    ref = score(np.array([0.3615]), [0])
    ref_ok = ref.rmse == pytest.approx(0.3615, abs=1e-15) and abs(ref.psnr - 8.838) <= 0.005
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        "metric identities",
        max_auc_dev <= 1e-12 and max_psnr_dev <= 1e-10 and ref_ok and elapsed < budget,
        f"200 datasets up to 200 instances: AUC matches pair counting to "
        f"{max_auc_dev:.2e}, psnr/rmse identity holds to {max_psnr_dev:.2e}, "
        f"rmse 0.3615 gives {ref.psnr:.4f} dB (want 8.838 +/- 0.005); "
        f"{elapsed:.2f}s (budget {budget:g}s)",
    )


def test_7_external_data_out_of_scope(capsys):
    _report(
        capsys,
        "external-data detection scores",
        True,
        "reported AUC values from the original remote-sensing experiments "
        "depend on source data and upstream detectors that are not shipped "
        "here; no reproduction is attempted, correctness rests on the oracle "
        "and property checks above",
    )
