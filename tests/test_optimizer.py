import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmfusion import (
    BinaryFuzzyMeasure,
    CapError,
    EAConfig,
    SynthSpec,
    Bag,
    Dataset,
    RealFuzzyMeasure,
    ValidationError,
    enumerate_all,
    from_minimal_coalitions,
    generate_synthetic,
    minimal_winning_coalitions,
    minimum_measure,
    objective,
    sample_random_real,
    set_with_repair,
    train_bfm,
    train_exhaustive,
    train_real_fm,
    validate,
)
from bfmfusion.measures import _close_up, _random_table
from bfmfusion.optimizer import _BinaryOps, _RealOps
from oracles import naive_random_real_table, naive_ranking, naive_real_redraw

TRUTH = from_minimal_coalitions(3, [{0, 1}, {0, 2}])


def clean_dataset(seed=0):
    """Noise-free synthetic data: the truth measure scores exactly 0."""
    spec = SynthSpec(
        source_count=3,
        n_pos_bags=8,
        n_neg_bags=8,
        sets_per_bag=(2, 3),
        instances_per_set=(2, 4),
        noise_sigma=0.0,
        truth_measure=TRUTH,
        rng_seed=seed,
    )
    return generate_synthetic(spec)


def conflict_dataset(s=3):
    """Identical all-ones positive and negative bags: every measure scores 1,
    so the search can never converge or improve."""
    inst = np.ones((1, s))
    return Dataset(s, (Bag(0, [inst]), Bag(1, [inst.copy()])))


def quick_cfg(**overrides):
    base = dict(population_size=16, elite_count=2, max_generations=40,
                stall_generations=10, rng_seed=0)
    base.update(overrides)
    return EAConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"elite_count": -1},
            {"elite_count": 64},
            {"small_mutation_rate": -0.2},
            {"small_mutation_rate": 1.2},
            {"max_generations": 0},
            {"stall_generations": 0},
            {"fitness_tolerance": -1e-9},
            {"time_cap_seconds": 0.0},
            {"time_cap_seconds": -5.0},
            {"small_mutation_rate": float("nan")},
            {"small_mutation_rate": float("inf")},
            {"fitness_tolerance": float("nan")},
            {"fitness_tolerance": float("inf")},
            {"time_cap_seconds": float("nan")},
            {"time_cap_seconds": float("inf")},
            {"population_size": 10.5},
            {"population_size": True},
            {"elite_count": 1.5},
            {"max_generations": 2.0},
            {"stall_generations": "3"},
            {"rng_seed": -1},
            {"rng_seed": 0.5},
            {"rng_seed": False},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            EAConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = EAConfig()
        assert cfg.population_size > cfg.elite_count

    def test_json_dict_round_trip(self):
        cfg = quick_cfg(time_cap_seconds=2.5)
        assert EAConfig(**cfg.to_json_dict()) == cfg


class TestDeterminism:
    def test_identical_runs(self):
        data = clean_dataset()
        a = train_bfm(data, quick_cfg(rng_seed=3))
        b = train_bfm(data, quick_cfg(rng_seed=3))
        assert a.objective_trace == b.objective_trace
        assert a.best_measure == b.best_measure
        assert a.terminated_by == b.terminated_by

    def test_identical_runs_real(self):
        data = clean_dataset()
        a = train_real_fm(data, quick_cfg(rng_seed=3, max_generations=15))
        b = train_real_fm(data, quick_cfg(rng_seed=3, max_generations=15))
        assert a.objective_trace == b.objective_trace
        assert np.array_equal(a.best_measure.values, b.best_measure.values)


class TestTraceShape:
    def test_non_increasing_and_final(self):
        res = train_bfm(clean_dataset(), quick_cfg())
        trace = np.array(res.objective_trace)
        assert (np.diff(trace) <= 0).all()
        assert res.best_objective == trace[-1]
        assert len(trace) == res.generations_run + 1

    def test_best_measure_scores_best_objective(self):
        data = clean_dataset(seed=5)
        res = train_bfm(data, quick_cfg(rng_seed=5))
        assert objective(res.best_measure, data).total == res.best_objective

    def test_best_measure_is_valid(self):
        for trainer in (train_bfm, train_real_fm):
            res = trainer(clean_dataset(), quick_cfg(max_generations=10))
            assert validate(res.best_measure).ok


class TestTermination:
    def test_converged_on_clean_data(self):
        res = train_bfm(clean_dataset(), quick_cfg(max_generations=200))
        assert res.terminated_by == "converged"
        assert res.best_objective == 0.0

    def test_time_cap_before_first_generation(self):
        res = train_bfm(conflict_dataset(), quick_cfg(time_cap_seconds=1e-9))
        assert res.terminated_by == "time_cap"
        assert res.generations_run == 0
        assert res.objective_trace == (1.0,)

    def test_max_generations(self):
        res = train_bfm(conflict_dataset(), quick_cfg(max_generations=3, stall_generations=50))
        assert res.terminated_by == "max_generations"
        assert res.generations_run == 3

    def test_stalled(self):
        res = train_bfm(conflict_dataset(), quick_cfg(max_generations=200, stall_generations=4))
        assert res.terminated_by == "stalled"
        assert res.generations_run == 4
        assert res.best_objective == 1.0


class TestExhaustive:
    def test_scans_whole_space(self):
        res = train_exhaustive(conflict_dataset(s=2))
        assert res.generations_run == 4  # number of valid binary measures at S=2
        assert res.terminated_by == "converged"

    def test_all_tie_picks_lowest_table(self):
        # every measure scores 1 here, so the tie rule decides
        res = train_exhaustive(conflict_dataset(s=2))
        assert res.best_measure == minimum_measure(2)

    def test_refuses_large_source_count(self):
        rng = np.random.default_rng(0)
        ds = Dataset(6, (Bag(0, [rng.random((2, 6))]), Bag(1, [rng.random((2, 6))])))
        with pytest.raises(CapError):
            train_exhaustive(ds)

    def test_global_lower_bound_for_ea(self):
        rng = np.random.default_rng(13)
        bags = [
            Bag(b % 2, [rng.random((3, 3)) for _ in range(2)]) for b in range(6)
        ]
        data = Dataset(3, tuple(bags))
        floor = train_exhaustive(data).best_objective
        ea = train_bfm(data, quick_cfg())
        assert ea.best_objective >= floor - 1e-12

    def test_matches_brute_force_minimum(self):
        spec = SynthSpec(
            source_count=4,
            n_pos_bags=6,
            n_neg_bags=6,
            sets_per_bag=(2, 3),
            instances_per_set=(2, 4),
            noise_sigma=0.2,
            truth_measure=from_minimal_coalitions(4, [{0, 1}, {2, 3}]),
            rng_seed=11,
        )
        data = generate_synthetic(spec)
        scored = [(objective(m, data).total, m.values.tobytes()) for m in enumerate_all(4)]
        best_objective, best_bytes = min(scored)
        res = train_exhaustive(data)
        assert res.best_measure.values.tobytes() == best_bytes
        assert res.best_objective == best_objective
        assert best_objective > 0  # noisy data: the planted measure does not reach 0
        assert res.generations_run == len(scored)

    def test_ea_attains_optimum_on_clean_data(self):
        data = clean_dataset(seed=2)
        assert train_exhaustive(data).best_objective == 0.0
        res = train_bfm(data, quick_cfg(rng_seed=2, max_generations=200))
        assert res.best_objective == 0.0


class TestRecovery:
    def test_recovers_planted_coalitions(self):
        # smoke-scale version of the headline experiment: a handful of seeds,
        # noise-free data, the planted antichain comes back exactly
        data = clean_dataset(seed=7)
        for seed in range(3):
            res = train_bfm(data, quick_cfg(rng_seed=seed, max_generations=300))
            assert res.terminated_by == "converged"
            assert minimal_winning_coalitions(res.best_measure) == minimal_winning_coalitions(TRUTH)


class TestRealBaseline:
    def test_small_mutation_preserves_validity(self):
        rng = np.random.default_rng(17)
        column = sample_random_real(4, rng).values[:, None]
        for _ in range(300):
            column = _RealOps.breed(column, np.zeros(1, dtype=int), np.ones(1, dtype=bool), rng)
            report = validate(RealFuzzyMeasure(4, column[:, 0]))
            assert report.ok, report.violations

    def test_real_approaches_zero_on_clean_data(self):
        res = train_real_fm(clean_dataset(), quick_cfg(max_generations=150, stall_generations=40))
        assert res.best_objective <= 0.05

    def test_results_of_both_trainers_are_valid(self):
        for trainer in (train_bfm, train_real_fm):
            for seed in range(3):
                res = trainer(clean_dataset(seed), quick_cfg(rng_seed=seed, max_generations=5))
                assert validate(res.best_measure).ok
                assert res.best_measure.source_count == 3


# Frozen runs: a change to the search's random draws, moves or ranking shows
# here. Re-record them only in a change that means to alter trajectories.
GOLDEN = [
    ("bfm", 3, (1.843524706342592, 1.843524706342592, 1.843524706342592,
                1.843524706342592, 1.6535396122819281, 1.6535396122819281)
     + (0.8501317277436862,) * 11, 16, "stalled", [0, 0, 0, 0, 0, 1, 0, 1]),
    ("bfm", 6, (1.967511649788977,) + (1.5108449157598254,) * 3
     + (0.31499423117302394,) * 8 + (0.0,), 12, "converged", [0, 0, 0, 1, 0, 1, 0, 1]),
    ("real", 1, (0.9547378583813295, 0.9547378583813295, 0.9547378583813295,
                 0.8234270847284882) + (0.31840444728250994,) * 4
     + (0.31414417541592893, 0.25362886155709524, 0.25362886155709524,
        0.22076530540870626, 0.22076530540870626), 12, "max_generations",
     [0.0, 0.1718090317202463, 0.04528404065805103, 0.872898448285572,
      0.04256481939166859, 0.9183845448712431, 0.23507739939942984, 1.0]),
    ("real", 4, (0.8922734968050626,) * 4 + (0.2727878486319182,) * 2
     + (0.2274821444539522,) + (0.19705355133892843,) * 4
     + (0.13683199270134955,) * 2, 12, "max_generations",
     [0.0, 0.04261903590019345, 0.14593135485167702, 0.9712705516371245,
      0.1398241580578954, 0.8880570372398328, 0.20228913949096436, 1.0]),
]


class TestGoldenTrajectory:
    @pytest.mark.parametrize("kind, seed, trace, generations, stop, values", GOLDEN)
    def test_trajectory_unchanged(self, kind, seed, trace, generations, stop, values):
        if kind == "bfm":
            res = train_bfm(clean_dataset(),
                            quick_cfg(rng_seed=seed, population_size=4, elite_count=1))
        else:
            res = train_real_fm(clean_dataset(), quick_cfg(rng_seed=seed, max_generations=12))
        assert res.objective_trace == trace
        assert res.generations_run == generations
        assert res.terminated_by == stop
        assert res.best_measure.values.tolist() == values


class TestTrainableChecks:
    def test_single_polarity_rejected(self):
        rng = np.random.default_rng(0)
        neg_only = Dataset(3, (Bag(0, [rng.random((2, 3))]), Bag(0, [rng.random((2, 3))])))
        with pytest.raises(ValidationError, match="positive"):
            train_bfm(neg_only)
        with pytest.raises(ValidationError, match="positive"):
            train_real_fm(neg_only)

    def test_single_source_rejected(self):
        # the objective starts above tolerance, so a search would have to
        # mutate, and one source leaves no free coalition to mutate
        one = Dataset(1, (Bag(0, [[[0.5]]]), Bag(1, [[[0.2]]])))
        with pytest.raises(ValidationError, match="2 sources"):
            train_bfm(one)
        with pytest.raises(ValidationError, match="2 sources"):
            train_real_fm(one)
        res = train_exhaustive(one)
        assert res.best_objective == pytest.approx(0.25 + 0.64)


def random_population(rng, s, p, duplicates=0):
    """(2**S, P) stack of valid binary tables, the last `duplicates` columns
    copies of earlier ones."""
    pop = (rng.random((1 << s, p)) < rng.uniform(0.02, 0.4)).astype(np.uint8)
    pop[0], pop[-1] = 0, 1
    _close_up(pop)
    for c in range(p - duplicates, p):
        pop[:, c] = pop[:, rng.integers(0, p - duplicates)]
    return pop


class TestBatchedMoves:
    """One generation's children built at once against the per-child moves."""

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 6), p=st.integers(1, 6),
           children=st.integers(0, 8), small_rate=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_binary_children_match_per_child_moves(self, seed, s, p, children, small_rate):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, s, p)
        parents = rng.integers(0, p, children)
        small = rng.random(children) < small_rate
        breed_rng = np.random.default_rng(seed + 1)
        got = _BinaryOps.breed(pop, parents, small, breed_rng)

        # the same draws, one child at a time, with the single-table moves
        draws = np.random.default_rng(seed + 1)
        blocks = {"raised": [], "lowered": [], "fresh": []}
        for parent, is_small in zip(parents, small):
            if is_small:
                idx = int(draws.integers(1, (1 << s) - 1))
                lit = pop[idx, parent]
                parent_measure = BinaryFuzzyMeasure(s, pop[:, parent])
                child = set_with_repair(parent_measure, idx, 0 if lit else 1).values
                blocks["lowered" if lit else "raised"].append(child)
            else:
                blocks["fresh"].append(_random_table(s, 0.5, draws))
        expected = blocks["raised"] + blocks["lowered"] + blocks["fresh"]
        assert got.dtype == np.uint8 and got.shape == (1 << s, children)
        assert [column.tolist() for column in got.T] == [child.tolist() for child in expected]
        assert breed_rng.random() == draws.random()  # and the same draws were made

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 6), p=st.integers(1, 4),
           children=st.integers(0, 8), small_rate=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_real_children_match_per_child_moves(self, seed, s, p, children, small_rate):
        rng = np.random.default_rng(seed)
        pop = np.stack([sample_random_real(s, rng).values for _ in range(p)], axis=1)
        parents = rng.integers(0, p, children)
        small = rng.random(children) < small_rate
        breed_rng = np.random.default_rng(seed + 1)
        got = _RealOps.breed(pop, parents, small, breed_rng)

        # the same draws, one child at a time, with the naive loop moves
        draws = np.random.default_rng(seed + 1)
        expected = []
        for parent, is_small in zip(parents, small):
            if is_small:
                idx = int(draws.integers(1, (1 << s) - 1))
                expected.append(naive_real_redraw(pop[:, parent], idx, draws.random()))
            else:
                expected.append(naive_random_real_table(draws.random(1 << s)))
        assert got.dtype == np.float64 and got.shape == (1 << s, children)
        assert [column.tolist() for column in got.T] == expected
        assert breed_rng.random() == draws.random()  # and the same draws were made


class TestRanking:
    """The vectorised column order against a Python sort with the tie keys."""

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 6), p=st.integers(1, 12),
           duplicates=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_binary_order_matches_naive(self, seed, s, p, duplicates):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, s, p, min(duplicates, p - 1))
        # few distinct objectives: ties at different popcounts are common
        js = rng.choice([0.0, 0.25, 1.0], size=p)
        got = _BinaryOps.order(pop, js).tolist()
        assert got == naive_ranking(pop.T.tolist(), js.tolist(), binary=True)

    def test_binary_order_breaks_ties_by_popcount_then_bytes(self):
        full = from_minimal_coalitions(3, [{0, 1, 2}]).values  # 1 winning coalition
        wins0, wins1, wins2 = (from_minimal_coalitions(3, [{i}]).values for i in range(3))  # 4
        pop = np.stack([wins0, wins1, full, wins2, wins0], axis=1)
        js = np.array([0.5, 0.5, 0.5, 0.5, 0.25])
        # 0.25 first; then the sparser table; then 00001111 < 00110011 < 01010101
        assert _BinaryOps.order(pop, js).tolist() == [4, 2, 3, 1, 0]

    @given(seed=st.integers(0, 2**31 - 1), p=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_real_order_matches_naive(self, seed, p):
        rng = np.random.default_rng(seed)
        pop = np.stack([sample_random_real(3, rng).values for _ in range(p)], axis=1)
        pop[:, p // 2] = pop[:, 0]  # a duplicate column
        js = rng.choice([0.0, 0.5], size=p)
        got = _RealOps.order(pop, js).tolist()
        assert got == naive_ranking(pop.T.tolist(), js.tolist(), binary=False)


# Default EAConfig on planted noise-free datasets at S=8 and S=10: per run the
# generation count, stop reason, best objective and SHA-256 prefixes of the
# objective trace (float64 bytes) and of the best table. Recorded before the
# population became a column stack; a change to draws, moves or ranking shows here.
PLANTED = {
    8: [{0, 1, 2, 3}, {2, 4, 5, 6}, {1, 3, 5, 7}],
    10: [{0, 1, 2, 3, 4}, {3, 5, 6, 7, 8}, {1, 4, 6, 8, 9}],
}
GOLDEN_DEFAULT = [
    (8, 0, 50, "converged", 0.0, "b075edc2340e34ae", "84ac3f504064aac5"),
    (8, 2, 65, "stalled", 0.4649537847401779, "f6f7a52740853f5a", "52e32a050d940b23"),
    (10, 0, 163, "stalled", 1.577279445000654, "74e821036d77ef6d", "5e61f6d18ed106f0"),
]
# train_real_fm with max_generations=150, the real-baseline benchmark's budget;
# recorded while real children were still built one at a time
GOLDEN_DEFAULT_REAL = [
    (8, 0, 150, "max_generations", 5.201943742214404, "c39eaea124cb2190", "d5a590b129a78b3c"),
    (8, 1, 150, "max_generations", 4.717822490222354, "02a5d6a35410565e", "d4edd793f948b8b1"),
]


def planted_dataset(s):
    truth = from_minimal_coalitions(s, PLANTED[s])
    return generate_synthetic(SynthSpec(s, 2 * s, 2 * s, (2, 3), (3, 4), 0.0, truth, s))


class TestGoldenDefaultConfig:
    @pytest.mark.parametrize("s, seed, generations, stop, best, trace_sha, table_sha",
                             GOLDEN_DEFAULT)
    def test_trajectory_unchanged(self, s, seed, generations, stop, best, trace_sha, table_sha):
        res = train_bfm(planted_dataset(s), EAConfig(rng_seed=seed))
        self.check(res, generations, stop, best, trace_sha, table_sha)

    @pytest.mark.parametrize("s, seed, generations, stop, best, trace_sha, table_sha",
                             GOLDEN_DEFAULT_REAL)
    def test_real_trajectory_unchanged(self, s, seed, generations, stop, best, trace_sha,
                                       table_sha):
        res = train_real_fm(planted_dataset(s), EAConfig(rng_seed=seed, max_generations=150))
        self.check(res, generations, stop, best, trace_sha, table_sha)

    @staticmethod
    def check(res, generations, stop, best, trace_sha, table_sha):
        assert res.generations_run == generations
        assert (res.terminated_by, res.best_objective) == (stop, best)
        trace = np.array(res.objective_trace).tobytes()
        assert hashlib.sha256(trace).hexdigest()[:16] == trace_sha
        assert hashlib.sha256(res.best_measure.values.tobytes()).hexdigest()[:16] == table_sha
