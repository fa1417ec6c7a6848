import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmfusion import (
    Bag,
    BinaryFuzzyMeasure,
    Dataset,
    RealFuzzyMeasure,
    ValidationError,
    choquet_batch,
    enumerate_all,
    from_minimal_coalitions,
    objective,
    prepare,
    sample_random,
    sample_random_real,
)
from bfmfusion.measures import _pack
from bfmfusion.objective import _BLOCK, _evaluate, _set_extremes
from oracles import naive_breakdown, naive_choquet, naive_objective

# CI reduces to the first coordinate under this measure, which makes the
# bag arithmetic below checkable by hand
FIRST_SOURCE_ONLY = from_minimal_coalitions(2, [{0}])


def hand_dataset():
    neg = Bag(0, [np.array([[0.4, 0.5], [0.6, 0.1]]), np.array([[0.2, 0.7]])])
    pos = Bag(1, [np.array([[0.9, 0.3], [0.3, 0.8]]), np.array([[0.5, 0.2]])])
    return Dataset(source_count=2, bags=(neg, pos))


def as_stack(tables):
    """The stack `_evaluate` takes for a (2**S, P) stack of value tables:
    binary (uint8) tables as a bitset stack, real ones as they are."""
    return _pack(tables) if tables.dtype == np.uint8 else tables


def set_extremes(stack, prepared):
    """(P, n_sets) set extremes of a stack, every block of bags' in turn."""
    return np.concatenate([extremes.copy() for _, extremes in _set_extremes(stack, prepared)]).T


def evaluate(stack, prepared):
    """`_evaluate` of a stack and its (P, n_bags) bag contributions, which
    it writes only into an array it is given."""
    contributions = np.empty((len(prepared.labels), stack.shape[1]))
    return _evaluate(stack, prepared, contributions), contributions.T


def stack_totals(measures, prepared):
    """Objective totals of the measures' tables evaluated as one stack."""
    return _evaluate(as_stack(np.stack([m.values for m in measures], axis=1)), prepared).total


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
        (neg, pos), (neg_set, pos_set) = out.contributions, out.selected_sets
        # neg: max(min(0.4, 0.6)^2, 0.2^2) comes from the first set
        assert neg_set == 0
        assert neg == pytest.approx(0.16, abs=1e-12)
        # pos: min((0.9-1)^2, (0.5-1)^2) comes from the first set
        assert pos_set == 0
        assert pos == pytest.approx(0.01, abs=1e-12)

    def test_tie_selects_first_index(self):
        same = np.array([[0.3, 0.3]])
        ds = Dataset(2, (Bag(0, [same, same.copy()]), Bag(1, [same, same.copy()])))
        out = objective(FIRST_SOURCE_ONLY, ds)
        assert list(out.selected_sets) == [0, 0]

    @pytest.mark.parametrize("kind", [BinaryFuzzyMeasure, RealFuzzyMeasure])
    def test_selected_set_at_the_padded_edge(self, kind):
        # bags of 3 and 5 sets, padded to 4 and 8 by repeating the last set,
        # reach their extreme only at that last set; a bag of 3 whose first
        # and last sets tie selects the first
        g = kind(2, FIRST_SOURCE_ONLY.values)
        sets = lambda *xs: [np.array([[x, 0.5]]) for x in xs]
        ds = Dataset(2, (
            Bag(0, sets(0.1, 0.2, 0.7)),
            Bag(1, sets(0.1, 0.3, 0.2, 0.4, 0.8)),
            Bag(1, sets(0.6, 0.2, 0.6)),
        ))
        out = objective(g, ds)
        assert list(out.selected_sets) == [2, 4, 0]
        assert [sel for _, sel in naive_breakdown(g.values, ds)] == [2, 4, 0]

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
        assert list(out.selected_sets) == [sel for _, sel in expected]
        for c, (contribution, _) in zip(out.contributions, expected):
            assert c == pytest.approx(contribution, abs=1e-12)

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_term_split(self, seed, s):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, s)
        g = sample_random(s, 0.5, rng)
        out = objective(g, ds)
        assert out.total >= 0.0
        assert out.total == out.negative_term + out.positive_term
        for c in out.contributions:
            assert 0.0 <= c <= 1.0


class TestBinaryMaxMin:
    """The max-min form for uint8 tables against the sum form and the oracles."""

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 5), p=st.sampled_from([1, 6]))
    @settings(max_examples=150, deadline=None)
    def test_matches_sum_form_and_oracle(self, seed, s, p):
        rng = np.random.default_rng(seed)
        ds = tied_dataset(rng, s)
        pre = prepare(ds)
        tables = np.stack([sample_random(s, 0.5, rng).values for _ in range(p)], axis=1)
        binary, binary_bags = evaluate(_pack(tables), pre)
        summed, summed_bags = evaluate(tables.astype(np.float64), pre)
        for got, want in ((binary.total, summed.total), (binary_bags, summed_bags)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        sets = [set_extremes(_pack(tables), pre), set_extremes(tables.astype(np.float64), pre)]
        bags = [np.maximum.reduceat(x, ds.bag_offsets[:-1], axis=1) for x in sets]
        for binary_extremes, summed_extremes in (sets, bags):
            np.testing.assert_allclose(binary_extremes, summed_extremes, rtol=0, atol=1e-12)
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
        stack = _pack(np.stack([sample_random(s, 0.5, rng).values for _ in range(p)], axis=1))
        tracemalloc.start()
        try:
            _evaluate(stack, pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * p * 6000 * s * 8


class TestThresholdWalk:
    """Set extremes of uint8 stacks, read off each candidate set's walk,
    against the naive oracles."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        s=st.integers(1, 8),
        p=st.sampled_from([1, 63, 64, 65, 130]),
        shapes=st.lists(
            st.lists(st.integers(1, 9), min_size=1, max_size=3), min_size=1, max_size=3
        ),
        tied=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_set_extremes_equal_oracle(self, seed, s, p, shapes, tied):
        rng = np.random.default_rng(seed)
        # tied: confidences from a few levels, 0.0 and 1.0 among them
        pool = np.array([0.0, 1.0, 0.5, rng.random(), rng.random()])
        bags = tuple(
            Bag(b % 2, [rng.choice(pool, (k, s)) if tied else rng.random((k, s)) for k in sizes])
            for b, sizes in enumerate(shapes)
        )
        ds = Dataset(s, bags)
        tables = np.stack(
            [sample_random(s, float(rng.random()), rng).values for _ in range(p)], axis=1
        )
        pre = prepare(ds)
        ev = _evaluate(_pack(tables), pre)
        sets = [(bag.label, cset) for bag in ds.bags for cset in bag.candidate_sets]
        for table, extremes, total in zip(tables.T, set_extremes(_pack(tables), pre), ev.total):
            for (label, cset), extreme in zip(sets, extremes):
                cis = [naive_choquet(h, table) for h in cset.instances]
                assert extreme == (min(cis) if label == 0 else max(cis))
            assert total == pytest.approx(naive_objective(table, ds), abs=1e-12)

    @pytest.mark.parametrize("label", [1, 0], ids=["positive_min", "negative_max"])
    def test_first_hit_past_index_255(self, label):
        # 300 rows of one high and one low confidence. Under the min measure
        # a positive set's CI is each row's low value, and its walk passes
        # all 300 high values, which lose, before the first hit; under the
        # max measure a negative set's walk passes all 300 low values first
        rng = np.random.default_rng(61)
        rows = np.column_stack([rng.uniform(0.6, 1.0, 300), rng.uniform(0.0, 0.4, 300)])
        ds = Dataset(2, (Bag(label, [rows]),))
        table = np.array([0, 0, 0, 1] if label else [0, 1, 1, 1], dtype=np.uint8)
        cis = [naive_choquet(h, table) for h in rows]
        expected = max(cis) if label else min(cis)
        passed = rows > expected if label else rows < expected
        assert passed.sum() >= 256  # every one of them comes before the hit
        stack, pre = _pack(np.repeat(table[:, None], 65, axis=1)), prepare(ds)
        ev = _evaluate(stack, pre)
        assert (set_extremes(stack, pre)[:, 0] == expected).all()
        assert (ev.total == naive_objective(table, ds)).all()

    def test_int32_walks_equal_choquet_batch(self):
        # 1,600 bags at S=17 read U = 37,784 coalitions, so the 2U words of
        # the walks pass 65,536 and every walk holds int32 word indices
        s = 17
        rng = np.random.default_rng(0)
        ds = Dataset(s, tuple(
            Bag(b % 2, [rng.random((int(rng.integers(1, 4)), s))
                        for _ in range(int(rng.integers(1, 3)))])
            for b in range(1600)
        ))
        pre = prepare(ds)
        assert len(pre.coalitions[0]) == 37784
        assert {walk.dtype for b in pre.blocks for _, _, walk, _ in b.set_groups} == {
            np.dtype(np.int32)
        }
        measures = [sample_random(s, 0.5, rng) for _ in range(3)]
        ev = _evaluate(_pack(np.stack([m.values for m in measures], axis=1)), pre)
        for k, measure in enumerate(measures):
            cis = choquet_batch(ds.instance_matrix(), measure)
            sets = iter(np.split(cis, ds.set_offsets[1:-1]))
            terms = [0.0, 0.0]  # each label's bags added left to right
            for bag in ds.bags:
                extreme = np.min if bag.label == 0 else np.max
                x = max(float(extreme(next(sets))) for _ in bag.candidate_sets)
                terms[bag.label] += (x - bag.label) ** 2
            assert [ev.negative[k], ev.positive[k]] == terms

    def test_memory_does_not_grow_with_the_table(self):
        # at S=20 the table has 2**20 rows, but 20 instances test at most
        # 20 * 20 + 1 coalitions, and only those are packed
        s = 20
        rng = np.random.default_rng(81)
        ds = Dataset(s, (Bag(0, [rng.random((10, s))]), Bag(1, [rng.random((10, s))])))
        pre = prepare(ds)
        table = from_minimal_coalitions(s, [set(range(10)), set(range(10, 20))]).values
        stack = _pack(table[:, None])
        tracemalloc.start()
        try:
            ev = _evaluate(stack, pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20 // 8  # an eighth of a byte per table row
        assert ev.total[0] == pytest.approx(naive_objective(table, ds), abs=1e-12)

    @pytest.mark.parametrize("p, limit", [(64, 4), (512, 16)])
    def test_memory_is_bounded_by_a_block_of_bags(self, p, limit):
        # the walk and the bag reduction run a block of bags at a time, and
        # each block's contributions are folded into the terms, so the whole
        # peak stays bounded as the bags grow from 600 to 9,600 (measured
        # with numpy 2.4: 1.9 to 2.6 MiB at P=64, 8.9 to 13.7 MiB at P=512,
        # where an (n_bags, P) contributions array took it to 47.3 MiB)
        s = 10
        rng = np.random.default_rng(71)
        bags = tuple(
            Bag(b % 2, [rng.random((int(rng.integers(1, 5)), s))
                        for _ in range(int(rng.integers(1, 4)))])
            for b in range(600)
        )
        stack = _pack(np.stack([sample_random(s, 0.5, rng).values for _ in range(p)], axis=1))
        for ds in (Dataset(s, bags), Dataset(s, bags * 4), Dataset(s, bags * 16)):
            pre = prepare(ds)
            tracemalloc.start()
            try:
                _evaluate(stack, pre)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit * 2**20


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
        for m, total in zip(measures, stack_totals(measures, prepare(ds))):
            assert total == pytest.approx(naive_objective(m.values, ds), abs=1e-12)
        out = objective(measures[0], ds)
        expected = naive_breakdown(measures[0].values, ds)
        assert list(out.selected_sets) == [sel for _, sel in expected]

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
    def test_evaluate_matches_oracle(self, binary):
        s = 6
        ds = skewed_dataset(s)
        rng = np.random.default_rng(42)
        if binary:
            tables = np.stack([sample_random(s, 0.5, rng).values for _ in range(4)], axis=1)
        else:
            tables = np.stack([sample_random_real(s, rng).values for _ in range(2)], axis=1)
        ev, bag_contributions = evaluate(as_stack(tables), prepare(ds))
        for table, total, contributions in zip(tables.T, ev.total, bag_contributions):
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
        stack = _pack(np.stack([sample_random(s, 0.5, rng).values for _ in range(p)], axis=1))
        tracemalloc.start()
        try:
            _evaluate(stack, pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * p * ds.n_instances * s * 8


def grid_dataset(rng, s, n_bags):
    """Confidences on a 1/8 grid, 0.0 and 1.0 among them, so rows and sets
    carry ties and every CI, square and sum of them is exact; candidate
    sets of 1-8 instances, 1-3 sets a bag."""
    return Dataset(s, tuple(
        Bag(b % 2, [rng.integers(0, 9, size=(int(rng.integers(1, 9)), s)) / 8
                    for _ in range(int(rng.integers(1, 4)))])
        for b in range(n_bags)
    ))


class TestManyBlocks:
    """About 6,000 rows at S=8, several blocks in each blocked pass: the row
    sort and the walk build in `prepare`, the walk read and the float path."""

    def test_binary_totals_equal_oracle(self):
        rng = np.random.default_rng(101)
        ds = grid_dataset(rng, 8, 660)
        pre = prepare(ds)
        # more than one block of rows, and of sets in some walk group
        assert ds.n_instances * 8 > _BLOCK
        assert max(walk.size for b in pre.blocks for _, _, walk, _ in b.set_groups) > _BLOCK
        # one sort, kept in blocks: each row's sources by falling confidence,
        # ties by ascending source
        assert pre.order.dtype == np.uint8
        assert np.array_equal(pre.order, np.argsort(-ds.instance_matrix(), axis=1, kind="stable"))
        tables = np.stack(
            [sample_random(8, float(rng.random()), rng).values for _ in range(5)], axis=1
        )
        ev = _evaluate(_pack(tables), pre)
        for table, total in zip(tables.T, ev.total):
            assert total == naive_objective(table, ds)

    def test_coalitions_come_from_every_block_of_rows(self):
        # the first block of rows sorts its sources one way only, so nearly
        # every coalition the walks test comes from a later block
        rng = np.random.default_rng(104)
        first = np.tile(np.arange(8, 0, -1) / 8, (_BLOCK // 8, 1))
        ds = Dataset(8, (Bag(0, [first]),) + grid_dataset(rng, 8, 60).bags)
        tables = np.stack(
            [sample_random(8, float(rng.random()), rng).values for _ in range(5)], axis=1
        )
        ev = _evaluate(_pack(tables), prepare(ds))
        for table, total in zip(tables.T, ev.total):
            assert total == naive_objective(table, ds)

    def test_fusion_equals_oracle(self):
        rng = np.random.default_rng(103)
        X = grid_dataset(rng, 8, 660).instance_matrix()
        assert X.size > _BLOCK
        binary = sample_random(8, 0.5, rng)
        real = RealFuzzyMeasure(8, np.round(sample_random_real(8, rng).values * 8) / 8)
        for measure in (binary, real):
            expected = [naive_choquet(h, measure.values) for h in X]
            assert choquet_batch(X, measure).tolist() == expected

    def test_real_stack_equals_each_measure(self):
        rng = np.random.default_rng(102)
        ds = grid_dataset(rng, 8, 660)
        pre = prepare(ds)
        # rounding is monotone and keeps 0 and 1, so a rounded table stays
        # valid, and on the grid every CI is exact
        measures = [
            RealFuzzyMeasure(8, np.round(sample_random_real(8, rng).values * 8) / 8)
            for _ in range(16)
        ]
        ev, bag_contributions = evaluate(np.stack([m.values for m in measures], axis=1), pre)
        for m, total in zip(measures[:3], ev.total):
            assert total == naive_objective(m.values, ds)
        for m, total, contributions in zip(measures, ev.total, bag_contributions):
            single = objective(m, pre)
            assert total == single.total
            assert contributions.tolist() == list(single.contributions)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_fusion_and_training_agree_bitwise(self, s):
        # each row its own single-instance, single-set bag, so a bag's
        # contribution is its row's fused value against the label; more
        # than one block of rows, random rows and rows drawn from a few
        # levels, so most of them hold ties
        rng = np.random.default_rng(300 + s)
        n = _BLOCK // s + 37
        tied = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n - n // 2, s))
        X = np.concatenate([rng.random((n // 2, s)), tied])
        labels = rng.integers(0, 2, n).astype(np.int8)
        offsets = np.arange(n + 1)
        ds = Dataset._from_columns(s, X, offsets, offsets.copy(), labels, None)
        for g in (sample_random(s, 0.5, rng), sample_random_real(s, rng)):
            expected = (choquet_batch(X, g) - labels) ** 2
            got = np.array(objective(g, ds).contributions)
            assert np.array_equal(got, expected)


class TestBoundedMemory:
    """tracemalloc bounds at about 3,000 and 50,000 instances. Measured with
    numpy 2.4: prepare's peak above its held bytes and N * S was 0.75 and
    0.63 MiB, the float path's whole peak 3.36 and 3.97 MiB (a block of set
    extremes, 1 MiB at 50,000 instances, beside 2 MiB blocks of weighted
    gather), and what it still held above its returned arrays 0.6 KiB."""

    S, P = 10, 64

    @pytest.fixture(scope="class")
    def datasets(self):
        rng = np.random.default_rng(71)
        bags = tuple(
            Bag(b % 2, [rng.random((int(rng.integers(1, 5)), self.S))
                        for _ in range(int(rng.integers(1, 4)))])
            for b in range(600)
        )
        return [Dataset(self.S, bags), Dataset(self.S, bags * 16)]

    def test_prepare_holds_one_byte_a_confidence_beyond_its_result(self, datasets):
        for ds in datasets:
            tracemalloc.start()
            try:
                pre = prepare(ds)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert all(block.set_groups for block in pre.blocks)
            assert peak - held <= ds.n_instances * self.S + 2 * 2**20

    def test_float_path_is_bounded(self, datasets):
        rng = np.random.default_rng(72)
        stack = np.stack([sample_random_real(self.S, rng).values for _ in range(self.P)], axis=1)
        for ds in datasets:
            pre = prepare(ds)
            tracemalloc.start()
            try:
                ev = _evaluate(stack, pre)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            returned = sum(a.nbytes for a in ev)
            assert peak <= 5 * 2**20
            # nothing is cached on pre: the real path reads prepare's order
            assert held - returned <= 2**16

    def test_prepare_rank_transient_is_one_int32_table(self):
        # at S=22 the coalition rank table outweighs a tiny dataset: its
        # presence flags and one int32 rank each, 5 bytes a coalition
        rng = np.random.default_rng(73)
        s = 22
        ds = Dataset(s, (Bag(0, [rng.random((2, s))]), Bag(1, [rng.random((3, s))])))
        tracemalloc.start()
        try:
            prepare(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**s + 2 * 2**20


class TestBatchPaths:
    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 3, n_bags=5)
        measures = [sample_random(3, 0.5, rng) for _ in range(16)]
        batch = stack_totals(measures, prepare(ds))
        singles = np.array([objective(m, ds).total for m in measures])
        assert np.array_equal(batch, singles)

    def test_batch_matches_scalar_real(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 4, n_bags=4)
        measures = [sample_random_real(4, rng) for _ in range(12)]
        batch = stack_totals(measures, prepare(ds))
        singles = np.array([objective(m, ds).total for m in measures])
        assert np.array_equal(batch, singles)

    def test_batch_matches_scalar_to_rounding_on_many_bags(self):
        # over 67 bags, enough for numpy to add a lone column pairwise, each
        # table's bags are still added left to right, alone or in a stack
        ds = skewed_dataset(4)
        rng = np.random.default_rng(7)
        measures = [sample_random(4, 0.5, rng) for _ in range(16)]
        singles = np.array([objective(m, ds).total for m in measures])
        assert np.array_equal(stack_totals(measures, prepare(ds)), singles)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
    @pytest.mark.parametrize("p", [1, 2, 3, 64, 65, 130])
    def test_terms_add_bags_left_to_right(self, p, binary):
        # each term of each table in a stack adds that table's contributions
        # one at a time in bag order, with the labels shuffled among the bags
        rng = np.random.default_rng(91)
        bags = random_dataset(rng, 4, n_bags=400).bags
        ds = Dataset(4, tuple(bags[i] for i in rng.permutation(len(bags))))
        tables = np.stack([
            (sample_random(4, 0.5, rng) if binary else sample_random_real(4, rng)).values
            for _ in range(p)
        ], axis=1)
        ev, bag_contributions = evaluate(as_stack(tables), prepare(ds))
        negative = ds.labels() == 0
        for contributions, *terms in zip(bag_contributions, ev.negative, ev.positive):
            for term, bags_of_term in zip(terms, (negative, ~negative)):
                running = 0.0
                for c in contributions[bags_of_term].tolist():
                    running += c
                assert float(term) == running

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
    @pytest.mark.parametrize("s", [4, 8])
    def test_a_table_has_the_same_terms_in_every_stack(self, monkeypatch, s, binary):
        # one fold for every width: over 8 blocks of bags and more, a table's
        # terms and total keep their bits in stacks of 1 to 513 tables, and
        # `objective` gives the same; the bags sorted by label make runs of
        # 200, and at S=8 a real CI adds 8 terms, which numpy would add
        # pairwise for a lone table
        rng = np.random.default_rng(92)
        bags = random_dataset(rng, s, n_bags=400).bags
        ds = Dataset(s, tuple(sorted(bags, key=lambda bag: bag.label)))
        monkeypatch.setattr(sys.modules["bfmfusion.objective"], "_BLOCK_SETS", 50)
        pre = prepare(ds)
        assert len(pre.blocks) >= 8
        measures = [
            sample_random(s, 0.5, rng) if binary else sample_random_real(s, rng) for _ in range(513)
        ]
        tables = np.stack([m.values for m in measures], axis=1)
        widest = _evaluate(as_stack(tables), pre)
        for p in (1, 2, 3, 64, 65):
            ev = _evaluate(as_stack(tables[:, :p]), pre)
            for got, want in zip((ev.negative, ev.positive, ev.total), (*widest, widest.total)):
                assert np.array_equal(got, want[:p])
        for k, m in enumerate(measures[:3]):
            out = objective(m, pre)
            assert (out.negative_term, out.positive_term, out.total) == (
                widest.negative[k], widest.positive[k], widest.total[k]
            )


class TestBagBlocks:
    """`_evaluate` reduces a block of bags at a time: with many blocks, a bag
    larger than a block among them, it gives the same bits as with one."""

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
    @pytest.mark.parametrize("block_sets", [1, 5, 100])
    def test_many_blocks_equal_one(self, monkeypatch, binary, block_sets):
        ds = skewed_dataset(4)
        rng = np.random.default_rng(block_sets)
        measures = [
            sample_random(4, 0.5, rng) if binary else sample_random_real(4, rng) for _ in range(70)
        ]
        stack = as_stack(np.stack([m.values for m in measures], axis=1))
        one = prepare(ds)
        monkeypatch.setattr(sys.modules["bfmfusion.objective"], "_BLOCK_SETS", block_sets)
        many = prepare(ds)
        assert len(one.blocks) == 1 and len(many.blocks) > 1
        assert max(np.diff(ds.bag_offsets)) > 5  # bags larger than the smaller blocks
        (got, got_bags), (want, want_bags) = evaluate(stack, many), evaluate(stack, one)
        for got, want in zip((*got, got_bags), (*want, want_bags)):
            assert np.array_equal(got, want)
        assert np.array_equal(set_extremes(stack, many), set_extremes(stack, one))
        for m in measures[:4]:
            assert objective(m, many) == objective(m, one)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
    @pytest.mark.parametrize("block_sets", [1, 5, 100])
    def test_tied_selected_sets_equal_oracle(self, monkeypatch, binary, block_sets):
        # confidences from a few levels, as in tied_dataset, so sets of a bag
        # tie at its extreme and the first of them must be selected
        rng = np.random.default_rng(block_sets)
        s = 3
        pool = np.array([0.0, 1.0, 0.5, rng.random(), rng.random()])
        ds = Dataset(s, tuple(
            Bag(b % 2, [rng.choice(pool, (int(rng.integers(1, 4)), s)) for _ in range(k)])
            for b, k in enumerate(rng.integers(1, 9, size=60))
        ))
        measures = [
            sample_random(s, 0.5, rng) if binary else sample_random_real(s, rng) for _ in range(4)
        ]
        one = prepare(ds)
        monkeypatch.setattr(sys.modules["bfmfusion.objective"], "_BLOCK_SETS", block_sets)
        many = prepare(ds)
        assert len(one.blocks) == 1 and len(many.blocks) > 1
        tied_bags = 0
        for m in measures:
            expected = [sel for _, sel in naive_breakdown(m.values, ds)]
            for pre in (many, one):
                assert list(objective(m, pre).selected_sets) == expected
            extremes = set_extremes(as_stack(m.values[:, None]), one)[0]
            for bag in np.split(extremes, ds.bag_offsets[1:-1]):
                tied_bags += np.count_nonzero(bag == bag.max()) > 1
        assert tied_bags

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
    def test_objective_makes_one_pass(self, monkeypatch, binary):
        # the selected sets are read in the pass that gives the contributions
        passes = []

        def counting(tables, prepared):
            passes.append(1)
            return _set_extremes(tables, prepared)

        monkeypatch.setattr(sys.modules["bfmfusion.objective"], "_set_extremes", counting)
        pre = prepare(skewed_dataset(4))
        rng = np.random.default_rng(5)
        objective(sample_random(4, 0.5, rng) if binary else sample_random_real(4, rng), pre)
        assert len(passes) == 1


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
        assert np.array_equal(stack_totals(measures, pre), stack_totals(measures, prepare(ds)))


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

    def test_axiom_violating_measure_refused(self):
        # {0} wins but the full set loses: the max-min form would read 0.9
        # here, the sum form 0.08, so neither number may come out
        bad = BinaryFuzzyMeasure(2, [0, 1, 0, 0])
        ds = Dataset(2, (Bag(0, [[[0.5, 0.3]]]), Bag(1, [[[0.9, 0.1]]])))
        with pytest.raises(ValidationError, match="measure is invalid"):
            objective(bad, ds)


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
