import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmfusion import (
    Bag,
    BinaryFuzzyMeasure,
    Dataset,
    ValidationError,
    enumerate_all,
    from_minimal_coalitions,
    objective,
    objective_batch,
    prepare,
    sample_random,
    sample_random_real,
)
from bfmfusion.objective import _evaluate
from oracles import naive_breakdown, naive_objective

# CI reduces to the first coordinate under this measure, which makes the
# bag arithmetic below checkable by hand
FIRST_SOURCE_ONLY = from_minimal_coalitions(2, [{0}])


def hand_dataset():
    neg = Bag(0, [np.array([[0.4, 0.5], [0.6, 0.1]]), np.array([[0.2, 0.7]])])
    pos = Bag(1, [np.array([[0.9, 0.3], [0.3, 0.8]]), np.array([[0.5, 0.2]])])
    return Dataset(source_count=2, bags=(neg, pos))


def random_dataset(rng, s, n_bags=None):
    if n_bags is None:
        n_bags = int(rng.integers(2, 6))
    bags = []
    for b in range(n_bags):
        sets = [
            rng.random((int(rng.integers(1, 4)), s))
            for _ in range(int(rng.integers(1, 4)))
        ]
        bags.append(Bag(int(b % 2), sets))
    return Dataset(source_count=s, bags=tuple(bags))


def tied_dataset(rng, s):
    """Confidences from a few levels, 0.0 and 1.0 among them, so instances
    carry ties; the first two bags are one set of one instance each."""
    pool = np.array([0.0, 1.0, 0.5, rng.random(), rng.random()])
    shapes = [[1], [1]] + [
        list(rng.integers(1, 4, size=int(rng.integers(1, 4))))
        for _ in range(int(rng.integers(1, 5)))
    ]
    bags = tuple(
        Bag(b % 2, [rng.choice(pool, size=(int(k), s)) for k in sizes])
        for b, sizes in enumerate(shapes)
    )
    return Dataset(source_count=s, bags=bags)


class TestHandCase:
    def test_worked_total(self):
        out = objective(FIRST_SOURCE_ONLY, hand_dataset())
        assert out.total == pytest.approx(0.17, abs=1e-12)
        assert out.negative_term == pytest.approx(0.16, abs=1e-12)
        assert out.positive_term == pytest.approx(0.01, abs=1e-12)
        assert out.total == out.negative_term + out.positive_term

    def test_selected_sets(self):
        out = objective(FIRST_SOURCE_ONLY, hand_dataset())
        neg, pos = out.per_bag
        # neg: max(min(0.4, 0.6)^2, 0.2^2) comes from the first set
        assert (neg.bag_index, neg.selected_set) == (0, 0)
        assert neg.contribution == pytest.approx(0.16, abs=1e-12)
        # pos: min((0.9-1)^2, (0.5-1)^2) comes from the first set
        assert (pos.bag_index, pos.selected_set) == (1, 0)
        assert pos.contribution == pytest.approx(0.01, abs=1e-12)

    def test_tie_selects_first_index(self):
        same = np.array([[0.3, 0.3]])
        ds = Dataset(2, (Bag(0, [same, same.copy()]), Bag(1, [same, same.copy()])))
        out = objective(FIRST_SOURCE_ONLY, ds)
        assert [c.selected_set for c in out.per_bag] == [0, 0]

    def test_perfect_fit_is_exactly_zero(self):
        # all-zero instances fuse to 0 and all-one instances fuse to 1,
        # with no rounding, for every valid measure
        zeros, ones = np.zeros((2, 3)), np.ones((1, 3))
        ds = Dataset(3, (Bag(0, [zeros]), Bag(1, [ones, zeros.copy()])))
        for g in enumerate_all(3):
            assert objective(g, ds).total == 0.0

    def test_single_positive_all_zero(self):
        ds = Dataset(3, (Bag(1, [np.zeros((2, 3))]),))
        for g in enumerate_all(3):
            assert objective(g, ds).total == 1.0

    def test_conflicting_identical_bags_floor(self):
        # the same all-ones instance as both a positive and a negative bag:
        # no measure can score below 1
        inst = np.ones((1, 3))
        ds = Dataset(3, (Bag(0, [inst]), Bag(1, [inst.copy()])))
        for g in enumerate_all(3):
            assert objective(g, ds).total == 1.0


class TestOracleAgreement:
    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_naive_oracle_binary(self, seed, s):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, s)
        g = sample_random(s, 0.5, rng)
        assert objective(g, ds).total == pytest.approx(
            naive_objective(g.values, ds), abs=1e-12
        )

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_naive_oracle_real(self, seed, s):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, s)
        g = sample_random_real(s, rng)
        assert objective(g, ds).total == pytest.approx(
            naive_objective(g.values, ds), abs=1e-12
        )

    @given(
        seed=st.integers(0, 2**31 - 1),
        s=st.integers(1, 4),
        binary=st.booleans(),
        tied=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_naive_oracle_per_bag(self, seed, s, binary, tied):
        rng = np.random.default_rng(seed)
        ds = tied_dataset(rng, s) if tied else random_dataset(rng, s)
        g = sample_random(s, 0.5, rng) if binary else sample_random_real(s, rng)
        out = objective(g, ds)
        expected = naive_breakdown(g.values, ds)
        assert [c.selected_set for c in out.per_bag] == [sel for _, sel in expected]
        for c, (contribution, _) in zip(out.per_bag, expected):
            assert c.contribution == pytest.approx(contribution, abs=1e-12)

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_term_split(self, seed, s):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, s)
        g = sample_random(s, 0.5, rng)
        out = objective(g, ds)
        assert out.total >= 0.0
        assert out.total == out.negative_term + out.positive_term
        for c in out.per_bag:
            assert 0.0 <= c.contribution <= 1.0


class TestBinaryMaxMin:
    """The max-min form for uint8 tables against the sum form and the oracles."""

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 5), p=st.sampled_from([1, 6]))
    @settings(max_examples=150, deadline=None)
    def test_matches_sum_form_and_oracle(self, seed, s, p):
        rng = np.random.default_rng(seed)
        ds = tied_dataset(rng, s)
        pre = prepare(ds)
        tables = np.stack([sample_random(s, 0.5, rng).values for _ in range(p)], axis=1)
        binary = _evaluate(tables, pre)
        summed = _evaluate(tables.astype(np.float64), pre)
        for field in ("total", "contributions", "set_extreme", "bag_extreme"):
            np.testing.assert_allclose(
                getattr(binary, field), getattr(summed, field), rtol=0, atol=1e-12
            )
        for table, total in zip(tables.T, binary.total):
            assert total == pytest.approx(naive_objective(table, ds), abs=1e-12)

    def test_peak_memory_below_half_a_float_gather(self):
        # S=10, P=64, N=6000: a float64 (P, N, S) array would take P*N*S*8 bytes
        rng = np.random.default_rng(31)
        s, p = 10, 64
        bags = tuple(
            Bag(b % 2, [rng.random((3, s)), rng.random((3, s))]) for b in range(1000)
        )
        pre = prepare(Dataset(s, bags))
        tables = np.stack([sample_random(s, 0.5, rng).values for _ in range(p)], axis=1)
        tracemalloc.start()
        try:
            _evaluate(tables, pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * p * 6000 * s * 8


def skewed_dataset(s):
    """A 2000-instance candidate set among 300 sets of 1-3 instances, in
    bags of 1-8 sets."""
    rng = np.random.default_rng(41)
    sets = [rng.random((int(rng.integers(1, 4)), s)) for _ in range(300)]
    sets.insert(150, rng.random((2000, s)))
    bags, start = [], 0
    while start < len(sets):
        stop = start + int(rng.integers(1, 9))
        bags.append(Bag(len(bags) % 2, sets[start:stop]))
        start = stop
    return Dataset(s, tuple(bags))


class TestSkewedSizes:
    """Candidate sets and bags of very different sizes in one dataset."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        s=st.integers(1, 4),
        shapes=st.lists(
            st.lists(st.integers(1, 40), min_size=1, max_size=8), min_size=1, max_size=5
        ),
        binary=st.booleans(),
        tied=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_naive_oracle(self, seed, s, shapes, binary, tied):
        rng = np.random.default_rng(seed)
        # tied: confidences from a few levels, as in tied_dataset
        pool = np.array([0.0, 1.0, 0.5, rng.random(), rng.random()])
        bags = tuple(
            Bag(b % 2, [rng.choice(pool, (k, s)) if tied else rng.random((k, s)) for k in sizes])
            for b, sizes in enumerate(shapes)
        )
        ds = Dataset(s, bags)
        measures = [
            sample_random(s, 0.5, rng) if binary else sample_random_real(s, rng) for _ in range(3)
        ]
        for m, total in zip(measures, objective_batch(measures, ds)):
            assert total == pytest.approx(naive_objective(m.values, ds), abs=1e-12)
        out = objective(measures[0], ds)
        expected = naive_breakdown(measures[0].values, ds)
        assert [c.selected_set for c in out.per_bag] == [sel for _, sel in expected]

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
    def test_evaluate_matches_oracle(self, binary):
        s = 6
        ds = skewed_dataset(s)
        rng = np.random.default_rng(42)
        if binary:
            tables = np.stack([sample_random(s, 0.5, rng).values for _ in range(4)], axis=1)
        else:
            tables = np.stack([sample_random_real(s, rng).values for _ in range(2)], axis=1)
        ev = _evaluate(tables, prepare(ds))
        for table, total, contributions in zip(tables.T, ev.total, ev.contributions):
            assert total == pytest.approx(naive_objective(table, ds), abs=1e-12)
            expected = [c for c, _ in naive_breakdown(table, ds)]
            np.testing.assert_allclose(contributions, expected, rtol=0, atol=1e-12)

    def test_peak_memory_below_half_a_float_gather(self):
        # padding every set to the widest one would take n_sets * 2000 * P * 8
        # bytes, over 50 times this bound
        s, p = 8, 64
        ds = skewed_dataset(s)
        pre = prepare(ds)
        rng = np.random.default_rng(43)
        tables = np.stack([sample_random(s, 0.5, rng).values for _ in range(p)], axis=1)
        tracemalloc.start()
        try:
            _evaluate(tables, pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * p * ds.n_instances * s * 8


class TestBatchPaths:
    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 3, n_bags=5)
        measures = [sample_random(3, 0.5, rng) for _ in range(16)]
        batch = objective_batch(measures, ds)
        singles = np.array([objective(m, ds).total for m in measures])
        assert np.array_equal(batch, singles)

    def test_batch_matches_scalar_real(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 4, n_bags=4)
        measures = [sample_random_real(4, rng) for _ in range(12)]
        batch = objective_batch(measures, ds)
        singles = np.array([objective(m, ds).total for m in measures])
        assert np.array_equal(batch, singles)

    def test_batch_matches_scalar_to_rounding_on_many_bags(self):
        # over 67 bags numpy may add one table's bag terms in another order
        # inside a stack than alone, so totals can differ in the last bits
        ds = skewed_dataset(4)
        rng = np.random.default_rng(7)
        measures = [sample_random(4, 0.5, rng) for _ in range(16)]
        singles = np.array([objective(m, ds).total for m in measures])
        np.testing.assert_allclose(objective_batch(measures, ds), singles, rtol=1e-12, atol=0)

    def test_empty_batch(self):
        ds = hand_dataset()
        assert objective_batch([], ds).shape == (0,)


class TestPreparedReuse:
    def test_prepared_equals_fresh(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 3)
        pre = prepare(ds)
        for _ in range(5):
            g = sample_random(3, 0.5, rng)
            assert objective(g, pre) == objective(g, ds)

    def test_prepared_batch(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, 3)
        pre = prepare(ds)
        measures = [sample_random(3, 0.5, rng) for _ in range(6)]
        assert np.array_equal(objective_batch(measures, pre), objective_batch(measures, ds))


class TestStructuralInvariances:
    def test_bag_permutation(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 3, n_bags=6)
        g = sample_random(3, 0.5, rng)
        base = objective(g, ds)
        perm = rng.permutation(len(ds.bags))
        shuffled = Dataset(3, tuple(ds.bags[i] for i in perm))
        out = objective(g, shuffled)
        assert out.total == pytest.approx(base.total, abs=1e-12)
        assert out.negative_term == pytest.approx(base.negative_term, abs=1e-12)
        assert out.positive_term == pytest.approx(base.positive_term, abs=1e-12)

    def test_duplicate_candidate_set_noop(self):
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 3, n_bags=4)
        g = sample_random(3, 0.5, rng)
        base = objective(g, ds).total
        fattened = Dataset(
            3,
            tuple(
                Bag(bag.label, bag.candidate_sets + (bag.candidate_sets[0],))
                for bag in ds.bags
            ),
        )
        assert objective(g, fattened).total == pytest.approx(base, abs=1e-12)


class TestValidation:
    def test_source_count_mismatch(self):
        ds = hand_dataset()
        g3 = from_minimal_coalitions(3, [{0, 1}])
        with pytest.raises(ValidationError, match="sources"):
            objective(g3, ds)
        with pytest.raises(ValidationError, match="sources"):
            objective_batch([g3], ds)

    def test_axiom_violating_measure_refused(self):
        # {0} wins but the full set loses: the max-min form would read 0.9
        # here, the sum form 0.08, so neither number may come out
        bad = BinaryFuzzyMeasure(2, [0, 1, 0, 0])
        ds = Dataset(2, (Bag(0, [[[0.5, 0.3]]]), Bag(1, [[[0.9, 0.1]]])))
        for call in (objective, lambda m, d: objective_batch([m], d)):
            with pytest.raises(ValidationError, match="measure is invalid"):
                call(bad, ds)


class TestSerialization:
    def test_breakdown_json(self):
        out = objective(FIRST_SOURCE_ONLY, hand_dataset())
        payload = json.loads(json.dumps(out.to_json_dict()))
        assert set(payload) == {"total", "negative_term", "positive_term", "per_bag"}
        assert payload["total"] == pytest.approx(0.17, abs=1e-12)
        assert payload["per_bag"][0] == {
            "bag_index": 0,
            "contribution": pytest.approx(0.16, abs=1e-12),
            "selected_set": 0,
        }
