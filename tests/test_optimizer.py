import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmfusion import (
    CapError,
    EAConfig,
    SynthSpec,
    Bag,
    BinaryFuzzyMeasure,
    Dataset,
    RealFuzzyMeasure,
    ValidationError,
    enumerate_all,
    from_minimal_coalitions,
    generate_synthetic,
    minimal_winning_coalitions,
    minimum_measure,
    objective,
    prepare,
    sample_random,
    sample_random_real,
    set_with_repair,
    train_bfm,
    train_exhaustive,
    train_real_fm,
    validate,
)
from bfmfusion.measures import _close_up, _pack, _unpack
from bfmfusion import optimizer as optimizer_module
from bfmfusion.optimizer import _BinaryOps, _RealOps, _descend
from bfmfusion.rng import substream
from oracles import (
    naive_choquet,
    naive_flipped_choquets,
    naive_neighbourhood,
    naive_random_real_table,
    naive_ranking,
    naive_real_redraw,
    naive_set_with_repair,
    naive_upward_closure,
)

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
            {"small_mutation_rate": "0.5"},
            {"small_mutation_rate": True},
            {"fitness_tolerance": 10**400},
            {"fitness_tolerance": True},
            {"time_cap_seconds": "1"},
            {"time_cap_seconds": True},
            {"elite_count": 0},  # with no elite the best table found can be lost
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            EAConfig(**kwargs)

    def test_numpy_reals_stored_as_python_numbers(self):
        cfg = EAConfig(small_mutation_rate=np.float32(0.5), fitness_tolerance=np.int64(0),
                       time_cap_seconds=np.float64(2.5))
        assert [type(x) for x in (cfg.small_mutation_rate, cfg.fitness_tolerance,
                                  cfg.time_cap_seconds)] == [float, int, float]
        assert json.loads(json.dumps(cfg.to_json_dict()))["small_mutation_rate"] == 0.5

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

    def test_unknown_stream_refused(self):
        with pytest.raises(ValueError, match="unknown rng stream 'nope'"):
            substream(0, "nope")

    @pytest.mark.parametrize("name, code", [("synth", 0), ("init", 1), ("mutation", 2)])
    def test_stream_code_is_fixed(self, name, code):
        # a renumbered stream would change every draw made from it
        want = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(code, 4)))
        assert substream(7, name, 4).integers(2**62, size=4).tolist() == \
            want.integers(2**62, size=4).tolist()


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
# Recorded when the synthetic generator and both breeders began to make one
# draw per kind of draw instead of one per bag, set or child: the data and
# every generation's moves come from new streams.
GOLDEN = [
    ("bfm", 3, (1.1858527096653109,) * 4 + (0.3133700778916616,) * 2 + (0.0,), 6,
     "converged", [0, 0, 0, 1, 0, 1, 0, 1]),
    ("bfm", 6, (1.1858527096653109,) * 2 + (0.30787359908930484,) * 10 + (0.0,), 12,
     "converged", [0, 0, 0, 1, 0, 1, 0, 1]),
    ("real", 1, (0.6386735551516405, 0.5235137516279234, 0.36949989605193156)
     + (0.36168131188970576,) * 2 + (0.349242297823703,) + (0.2571585180377456,) * 6
     + (0.2403578796060173,), 12, "max_generations",
     [0.0, 0.06302817833254645, 0.04528404065805103, 0.8665857856923189,
      0.15779389787270426, 0.9870188866362605, 0.23507739939942984, 1.0]),
    ("real", 4, (0.4469448029903804,) * 2 + (0.4412466213600428,) * 4
     + (0.43317294952075547, 0.41948380135124375, 0.4088584062983927, 0.4000144395882838)
     + (0.20273375715153832,) * 2 + (0.19720576737849407,), 12, "max_generations",
     [0.0, 0.07188528089228319, 0.0016421284616654976, 0.9211790246321979,
      0.10639329826428512, 0.8880570372398328, 0.20228913949096436, 1.0]),
]


class TestGoldenTrajectory:
    # ids from what a run is, not what it recorded, so a re-recording keeps them
    @pytest.mark.parametrize("kind, seed, trace, generations, stop, values", GOLDEN,
                             ids=[f"{g[0]}-s3-seed{g[1]}" for g in GOLDEN])
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
    pop = _unpack(_close_up(_pack(pop), s), s)
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
        packed = _BinaryOps(s).breed(_pack(pop), parents, small, breed_rng)
        got = _unpack(packed, s)
        assert np.array_equal(packed, _pack(got))  # and any padding bits are 0

        # the same draws, in the same order: every flipped coalition, then
        # every fresh field as bytes in bitset layout, one column per child;
        # each child is built on its own with the single-table moves
        draws = np.random.default_rng(seed + 1)
        n, flips = 1 << s, int(small.sum())
        idx = draws.integers(1, n - 1, size=flips)
        fields = draws.integers(0, 256, size=(len(packed), children - flips), dtype=np.uint8)
        blocks = {"raised": [], "lowered": [], "fresh": []}
        for parent, coalition in zip(parents[small], idx.tolist()):
            lit = pop[coalition, parent]
            child = naive_set_with_repair(pop[:, parent].tolist(), coalition, 0 if lit else 1)
            blocks["lowered" if lit else "raised"].append(child)
        for field in fields.T:
            table = np.unpackbits(field)[:n].tolist()
            table[0], table[-1] = 0, 1
            blocks["fresh"].append(naive_upward_closure(table))
        expected = blocks["raised"] + blocks["lowered"] + blocks["fresh"]
        assert got.dtype == np.uint8 and got.shape == (1 << s, children)
        assert [column.tolist() for column in got.T] == expected
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

        # the same draws, in the same order: every redrawn coalition, every
        # redraw, every fresh field; each child is built on its own with the
        # naive loop moves
        draws = np.random.default_rng(seed + 1)
        flips = int(small.sum())
        idx = draws.integers(1, (1 << s) - 1, size=flips)
        u = draws.random(flips)
        fields = draws.random((children - flips, 1 << s))
        redrawn = iter(naive_real_redraw(pop[:, parent], int(i), float(v))
                       for parent, i, v in zip(parents[small], idx, u))
        fresh = iter(naive_random_real_table(field) for field in fields)
        expected = [next(redrawn) if is_small else next(fresh) for is_small in small]
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
        got = _BinaryOps.order(_pack(pop), js).tolist()
        assert got == naive_ranking(pop.T.tolist(), js.tolist(), binary=True)

    def test_binary_order_breaks_ties_by_popcount_then_bytes(self):
        full = from_minimal_coalitions(3, [{0, 1, 2}]).values  # 1 winning coalition
        wins0, wins1, wins2 = (from_minimal_coalitions(3, [{i}]).values for i in range(3))  # 4
        pop = np.stack([wins0, wins1, full, wins2, wins0], axis=1)
        js = np.array([0.5, 0.5, 0.5, 0.5, 0.25])
        # 0.25 first; then the sparser table; then 00001111 < 00110011 < 01010101
        assert _BinaryOps.order(_pack(pop), js).tolist() == [4, 2, 3, 1, 0]

    @given(seed=st.integers(0, 2**31 - 1), p=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_real_order_matches_naive(self, seed, p):
        rng = np.random.default_rng(seed)
        pop = np.stack([sample_random_real(3, rng).values for _ in range(p)], axis=1)
        pop[:, p // 2] = pop[:, 0]  # a duplicate column
        js = rng.choice([0.0, 0.5], size=p)
        got = _RealOps.order(pop, js).tolist()
        assert got == naive_ranking(pop.T.tolist(), js.tolist(), binary=False)


# Default EAConfig on planted noise-free datasets at S=2, 8, 10 and 12: per run
# the generation count, stop reason, best objective and SHA-256 prefixes of the
# objective trace (float64 bytes) and of the best table; a change to draws,
# moves or ranking shows here. Re-recorded, with the same specs and seeds, when
# the generator and the breeders began to draw once per kind of draw; only the
# S=2 run, which converges before it breeds, kept its values.
PLANTED = {
    2: [{0}],
    8: [{0, 1, 2, 3}, {2, 4, 5, 6}, {1, 3, 5, 7}],
    10: [{0, 1, 2, 3, 4}, {3, 5, 6, 7, 8}, {1, 4, 6, 8, 9}],
    12: [{0, 1, 2, 3, 4, 5}, {4, 6, 7, 8, 9, 10}, {1, 3, 5, 7, 9, 11}],
}
GOLDEN_DEFAULT = [
    (2, 0, 0, "converged", 0.0, "af5570f5a1810b7a", "76cc5805dab9b4ea"),
    (8, 0, 101, "stalled", 0.38197739846525164, "c5023e5205504c6d", "f9da84cc4ab31498"),
    (8, 2, 93, "stalled", 0.6472129484489022, "961ef823e8df1c84", "225d7135f37cbf93"),
    (10, 0, 166, "stalled", 0.30939052797694194, "fae4fc066474b4f3", "08338c3a4d378063"),
    (12, 1, 146, "stalled", 4.066026929795611, "7ed4c2cf5216e30e", "b6be1cd2c2baafc8"),
]
# train_real_fm with max_generations=150, the real-baseline benchmark's budget;
# re-recorded with the binary runs above
GOLDEN_DEFAULT_REAL = [
    (8, 0, 150, "max_generations", 4.352492834318577, "f76c424d0391f438", "5307c1fe14c68ab3"),
    (8, 1, 150, "max_generations", 4.4710722015108875, "e560e484e32373ec", "68d06ab2e2e861c3"),
]


def planted_dataset(s):
    truth = from_minimal_coalitions(s, PLANTED[s])
    return generate_synthetic(SynthSpec(s, 2 * s, 2 * s, (2, 3), (3, 4), 0.0, truth, s))


class TestGoldenDefaultConfig:
    @pytest.mark.parametrize("s, seed, generations, stop, best, trace_sha, table_sha",
                             GOLDEN_DEFAULT,
                             ids=[f"bfm-s{g[0]}-seed{g[1]}" for g in GOLDEN_DEFAULT])
    def test_trajectory_unchanged(self, s, seed, generations, stop, best, trace_sha, table_sha):
        res = train_bfm(planted_dataset(s), EAConfig(rng_seed=seed))
        self.check(res, generations, stop, best, trace_sha, table_sha)

    @pytest.mark.parametrize("s, seed, generations, stop, best, trace_sha, table_sha",
                             GOLDEN_DEFAULT_REAL,
                             ids=[f"real-s{g[0]}-seed{g[1]}" for g in GOLDEN_DEFAULT_REAL])
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


def descent_case(s, seed, sigma=0.2):
    """A planted dataset on S sources and a random start for descent."""
    truth = from_minimal_coalitions(s, [set(range(s // 2 + 1)), set(range(s // 2, s))])
    data = generate_synthetic(SynthSpec(s, 3 * s, 3 * s, (2, 3), (2, 3), sigma, truth, seed))
    return data, sample_random(s, 0.5, seed)


def one_flips(measure):
    """Every one-flip neighbour of a binary measure, by coalition: the
    coalition's value flipped and monotonicity repaired by closure."""
    n = 1 << measure.source_count
    return {c: set_with_repair(measure, c, 1 - int(measure.values[c])) for c in range(1, n - 1)}


class TestDescent:
    """`optimizer._descend` against a naive steepest descent: every
    neighbour as `set_with_repair` makes it, scored by `objective`."""

    @pytest.mark.parametrize("s, seed, sigma, tolerance", [
        (2, 0, 0.2, 1e-6), (3, 1, 0.2, 1e-6), (4, 2, 0.2, 1e-6), (5, 3, 0.2, 1e-6),
        (6, 4, 0.2, 1e-6), (5, 15, 0.2, 0.05),
        # noise-free data, where many neighbours tie
        (4, 6, 0.0, 1e-6), (5, 7, 0.0, 1e-6), (6, 8, 0.0, 1e-6),
    ])
    def test_every_neighbour_matches_the_oracle(self, monkeypatch, s, seed, sigma, tolerance):
        self.check_against_oracle(monkeypatch, *descent_case(s, seed, sigma), tolerance)

    def test_equal_neighbours_go_to_the_lowest_coalition(self, monkeypatch):
        # from the coalitions holding source 0 winning, lowering {0}
        # (coalition 1) fuses min(x0, x1) and raising {1} (coalition 2)
        # max(x0, x1): both score 0.5625, and the raised child comes first
        data = Dataset(3, [Bag(0, [[[0.75, 0.0, 0.0]]]), Bag(1, [[[0.25, 1.0, 0.0]]])])
        start = BinaryFuzzyMeasure(3, np.array([0, 1, 0, 1, 0, 1, 0, 1], np.uint8))
        path = self.check_against_oracle(monkeypatch, data, start, 1e-6)
        assert path[1] == [0, 0, 0, 1, 0, 1, 0, 1]

    @staticmethod
    def check_against_oracle(monkeypatch, data, start, tolerance):
        """Run `_descend` from `start`; check every neighbourhood it scored
        and every step it took against the naive descent, and return the
        tables it passed through."""
        s = data.source_count
        calls, evaluate = [], optimizer_module._evaluate

        def spy(tables, prepared, *args):
            ev = evaluate(tables, prepared, *args)
            calls.append((_unpack(tables, s).T.tolist(), ev.total.tolist()))
            return ev

        monkeypatch.setattr(optimizer_module, "_evaluate", spy)
        column, best, steps, evaluated = _descend(
            prepare(data), _pack(start.values[:, None])[:, 0], math.inf, tolerance
        )
        assert calls[0][0] == [start.values.tolist()]
        assert calls[0][1][0] == objective(start, data).total
        # at S <= 6 a neighbourhood is one call: one per step, and the last
        assert len(calls) == steps + 2
        measure, current, path = start, calls[0][1][0], [start.values.tolist()]
        for step, (tables, totals) in enumerate(calls[1:]):
            scored = dict(zip(map(tuple, tables), totals))
            neighbours = one_flips(measure)
            assert sorted(scored) == sorted(tuple(m.values.tolist()) for m in neighbours.values())
            for m in neighbours.values():
                got = scored[tuple(m.values.tolist())]
                assert got == objective(m, data).total
            # the lowest coalition among equal minima
            lowest = min(scored.values())
            c = next(c for c, m in neighbours.items() if scored[tuple(m.values.tolist())] == lowest)
            if current - lowest <= tolerance:
                assert step == steps
                break
            measure, current = neighbours[c], lowest
            path.append(measure.values.tolist())
        assert column.tolist() == _pack(measure.values[:, None])[:, 0].tolist()
        assert best == current
        assert evaluated == 1 + (steps + 1) * ((1 << s) - 2)
        return path

    @pytest.mark.parametrize("s, seed", [(3, 6), (4, 7), (5, 8), (6, 9)])
    def test_no_neighbour_improves_on_the_result(self, s, seed):
        data, start = descent_case(s, seed)
        column, best, steps, _ = _descend(
            prepare(data), _pack(start.values[:, None])[:, 0], math.inf, 1e-6
        )
        result = BinaryFuzzyMeasure(s, _unpack(column[:, None], s)[:, 0])
        assert steps > 0
        assert best == objective(result, data).total
        assert best < objective(start, data).total
        for m in one_flips(result).values():
            assert objective(m, data).total > best - 1e-6

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_the_closed_form_matches_the_repaired_table(self, seed, s):
        # rows on a 1/8 grid, so sources tie and the sum in `naive_choquet`
        # is exact
        rng = np.random.default_rng(seed)
        table = sample_random(s, float(rng.random()), rng).values.tolist()
        h = rng.integers(0, 9, size=s) / 8
        flipped = naive_flipped_choquets(h, table)
        assert flipped == [
            naive_choquet(h, naive_set_with_repair(table, c, 1 - table[c]))
            for c in range(1, len(table) - 1)
        ]

    @pytest.mark.parametrize("s, seed", [(10, 3), (11, 7)])
    def test_sliced_neighbourhoods_match_the_closed_form(self, monkeypatch, s, seed):
        # 2**S - 2 children scored 512 at a time: 2 slices at S=10, 4 at
        # S=11, the last one partial. The last source is 0 in every row, so
        # lowering c and lowering c with that source score the same, and a
        # step's minimum ties across slices. The oracle squares d * d and adds
        # each label's bags left to right, as `_evaluate` does, so the totals
        # agree exactly
        truth = from_minimal_coalitions(s, [set(range(s // 2 + 1)), set(range(s // 2, s))])
        planted = generate_synthetic(SynthSpec(s, 3 * s, 3 * s, (2, 3), (2, 3), 0.2, truth, seed))
        X = planted.instance_matrix().copy()
        X[:, -1] = 0.0
        data = Dataset._from_columns(
            s, X, planted.set_offsets, planted.bag_offsets, planted.labels(), None
        )
        start = from_minimal_coalitions(s, [set(range(s // 2, s))])
        calls, evaluate = [], optimizer_module._evaluate

        def spy(tables, prepared, *args):
            ev = evaluate(tables, prepared, *args)
            calls.append((tables.copy(), ev.total.tolist()))
            return ev

        monkeypatch.setattr(optimizer_module, "_evaluate", spy)
        column, best, steps, evaluated = _descend(
            prepare(data), _pack(start.values[:, None])[:, 0], math.inf, 1e-6
        )
        slices = -(-((1 << s) - 2) // 512)
        assert len(calls) == 1 + (steps + 1) * slices
        table, current = start.values.tolist(), calls[0][1][0]
        assert current == objective(start, data).total
        tied = 0
        for step in range(steps + 1):
            hood = calls[1 + step * slices : 1 + (step + 1) * slices]
            totals = [total for _, part in hood for total in part]
            assert totals == naive_neighbourhood(table, data)
            k = totals.index(min(totals))  # the lowest coalition among equal minima
            if step == steps:
                assert current - totals[k] <= 1e-6
                break
            assert current - totals[k] > 1e-6
            tied += len({i // 512 for i, total in enumerate(totals) if total == totals[k]}) > 1
            table = naive_set_with_repair(table, k + 1, 1 - table[k + 1])
            chosen = np.concatenate([tables for tables, _ in hood], axis=1)[:, k]
            assert chosen.tolist() == _pack(np.array(table, np.uint8)[:, None])[:, 0].tolist()
            current = totals[k]
        assert tied
        assert column.tolist() == _pack(np.array(table, np.uint8)[:, None])[:, 0].tolist()
        assert (best, evaluated) == (current, 1 + (steps + 1) * ((1 << s) - 2))

    def test_a_neighbourhood_takes_the_memory_of_a_slice(self):
        # S=14: 16,382 children of 2 KiB each, 32 MiB as one stack, are built
        # and scored 512 at a time (measured with numpy 2.4: 12.3 MiB; 352.6
        # MiB while the whole neighbourhood was built at once)
        data, start = descent_case(14, 0)
        prepared = prepare(data)
        column = _pack(start.values[:, None])[:, 0]
        tracemalloc.start()
        try:
            _, _, steps, evaluated = _descend(prepared, column, math.inf, math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (steps, evaluated) == (0, (1 << 14) - 1)
        assert peak <= 32 * 2**20

    def test_a_passed_deadline_takes_no_step(self):
        data, start = descent_case(4, 0)
        column = _pack(start.values[:, None])[:, 0]
        got, best, steps, evaluated = _descend(prepare(data), column, -math.inf, 1e-6)
        assert got.tolist() == column.tolist()
        assert (steps, evaluated) == (0, 1)
        assert best == objective(start, data).total
