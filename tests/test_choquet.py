import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfmfusion import (
    BinaryFuzzyMeasure,
    RealFuzzyMeasure,
    ValidationError,
    choquet_batch,
    choquet_maxmin,
    enumerate_all,
    from_minimal_coalitions,
    maximum_measure,
    minimum_measure,
    sample_random,
    sample_random_real,
)
from bfmfusion.choquet import _BLOCK, _blocks, _choquet, _decompose, _source_order
from oracles import naive_choquet

PAPER_STYLE = from_minimal_coalitions(3, [{0, 1}, {0, 2}])


def random_instance(rng, s):
    return rng.random(s)


def decompose(X):
    """The sorted decomposition of every row of X."""
    return _decompose(X.ravel(), np.arange(len(X)), _source_order(X))


class TestHandCases:
    def test_worked_example(self):
        h = [0.2, 0.9, 0.5]
        assert choquet_batch([h], PAPER_STYLE)[0] == pytest.approx(0.2, abs=1e-15)
        assert choquet_maxmin(h, PAPER_STYLE) == pytest.approx(0.2, abs=1e-15)

    def test_max_degeneracy(self):
        h = [0.3, 0.7, 0.1]
        assert choquet_batch([h], maximum_measure(3))[0] == pytest.approx(0.7, abs=1e-12)
        assert choquet_maxmin(h, maximum_measure(3)) == 0.7

    def test_min_degeneracy(self):
        h = [0.3, 0.7, 0.1]
        # single-term sum: exact
        assert choquet_batch([h], minimum_measure(3))[0] == 0.1
        assert choquet_maxmin(h, minimum_measure(3)) == 0.1

    def test_constant_preservation_all_measures(self):
        for s in (2, 3, 4):
            for g in enumerate_all(s):
                for c in (0.0, 0.25, 1.0):
                    assert choquet_batch([[c] * s], g)[0] == pytest.approx(c, abs=1e-12)


class TestOracleAgreement:
    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 6))
    @settings(max_examples=300, deadline=None)
    def test_maxmin_equivalence(self, seed, s):
        rng = np.random.default_rng(seed)
        g = sample_random(s, float(rng.uniform(0.2, 0.8)), rng)
        h = random_instance(rng, s)
        assert abs(choquet_batch([h], g)[0] - choquet_maxmin(h, g)) <= 1e-12

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_naive_oracle_binary(self, seed, s):
        rng = np.random.default_rng(seed)
        g = sample_random(s, 0.5, rng)
        h = random_instance(rng, s)
        assert choquet_batch([h], g)[0] == pytest.approx(
            naive_choquet(h, g.values), abs=1e-12
        )

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_naive_oracle_real(self, seed, s):
        rng = np.random.default_rng(seed)
        g = sample_random_real(s, rng)
        h = random_instance(rng, s)
        assert choquet_batch([h], g)[0] == pytest.approx(
            naive_choquet(h, g.values), abs=1e-12
        )


class TestProperties:
    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_min_max(self, seed, s):
        rng = np.random.default_rng(seed)
        g = sample_random_real(s, rng) if seed % 2 else sample_random(s, 0.5, rng)
        h = random_instance(rng, s)
        ci = choquet_batch([h], g)[0]
        assert h.min() - 1e-12 <= ci <= h.max() + 1e-12

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_input(self, seed, s, data):
        rng = np.random.default_rng(seed)
        g = sample_random(s, 0.5, rng)
        h = random_instance(rng, s)
        i = data.draw(st.integers(0, s - 1))
        bump = data.draw(st.floats(0.0, float(1.0 - h[i])))
        h2 = h.copy()
        h2[i] = h[i] + bump
        assert choquet_batch([h2], g)[0] >= choquet_batch([h], g)[0] - 1e-12

    def test_tie_order_invariance(self):
        # equal confidences contribute zero-width differences
        g = PAPER_STYLE
        assert choquet_batch([[0.5, 0.5, 0.5]], g)[0] == 0.5
        h = [0.4, 0.4, 0.9]
        assert choquet_batch([h], g)[0] == pytest.approx(
            naive_choquet(h, g.values), abs=1e-15
        )


class TestValidation:
    def test_out_of_range_rejected_not_clamped(self):
        with pytest.raises(ValidationError):
            choquet_batch([[0.2, 1.3, 0.5]], PAPER_STYLE)
        with pytest.raises(ValidationError):
            choquet_batch([[-0.1, 0.3, 0.5]], PAPER_STYLE)
        with pytest.raises(ValidationError):
            choquet_maxmin([0.2, 1.3, 0.5], PAPER_STYLE)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            choquet_batch([[0.2, 0.9]], PAPER_STYLE)
        with pytest.raises(ValidationError):
            choquet_maxmin([0.2, 0.9, 0.5, 0.1], PAPER_STYLE)

    def test_batch_refuses_rows_of_another_width(self):
        g = from_minimal_coalitions(3, [{0, 1}])
        for X in ([[0.9, 0.4]], [[0.9, 0.4, 0.2, 0.1]], [0.9, 0.4, 0.2]):
            with pytest.raises(ValidationError, match="sources"):
                choquet_batch(X, g)

    def test_batch_refuses_out_of_range(self):
        g = from_minimal_coalitions(3, [{0, 1}])
        for X, bad in (([[1.5, -0.2, 0.3]], "1.5"), ([[0.5, 0.2, 0.3], [0.1, np.nan, 0.3]], "nan")):
            with pytest.raises(ValidationError, match=rf"\[0, 1\], got {bad}$"):
                choquet_batch(X, g)

    def test_invalid_measure_refused(self):
        # {0} wins but the full set loses: the sum form read 0.2 here, and
        # the max-min form would read 0.3
        bad = BinaryFuzzyMeasure(2, [0, 1, 0, 0])
        with pytest.raises(ValidationError, match="measure is invalid"):
            choquet_batch([[0.5, 0.3]], bad)

    def test_short_table_refused(self):
        with pytest.raises(ValidationError, match="values length"):
            choquet_batch([[0.5, 0.3]], BinaryFuzzyMeasure(2, [0, 1]))

    def test_maxmin_requires_binary(self):
        g = RealFuzzyMeasure(2, np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValidationError):
            choquet_maxmin([0.2, 0.9], g)

    def test_maxmin_refuses_a_table_without_a_winner(self):
        with pytest.raises(ValidationError, match="measure is invalid"):
            choquet_maxmin([0.2, 0.9], BinaryFuzzyMeasure(2, [0, 0, 0, 0]))

    def test_maxmin_refuses_what_batch_refuses(self):
        # {0} wins but {0, 1} loses: the max over winners read 0.9 here
        bad, h = BinaryFuzzyMeasure(3, [0, 1, 0, 0, 0, 0, 0, 1]), [0.9, 0.1, 0.5]
        with pytest.raises(ValidationError) as batch:
            choquet_batch([h], bad)
        with pytest.raises(ValidationError, match="measure is invalid") as maxmin:
            choquet_maxmin(h, bad)
        assert str(maxmin.value) == str(batch.value)


class TestBatch:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 4))
        g = sample_random(4, 0.5, rng)
        batch = choquet_batch(X, g)
        for i in range(40):
            assert batch[i] == choquet_batch([X[i]], g)[0]

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_binary_batch_is_maxmin_exactly(self, s):
        # every fused value is the oracle's and one of its row's own
        # confidences; a sum over levels spread across several binades
        # rounds off them
        rng = np.random.default_rng(100 + s)
        for density in (0.2, 0.5, 0.8):
            g = sample_random(s, density, rng)
            for X in (rng.random((30, s)), rng.random((30, s)) ** 4, tied_rows(rng, 30, s)):
                batch = choquet_batch(X, g)
                assert [float(v) for v in batch] == [choquet_maxmin(h, g) for h in X]
                assert all(v in h for v, h in zip(batch, X))

    def test_binary_batch_peak_below_table(self):
        # the max-min form gathers N * S uint8 values and never casts the
        # 2**S table; validating it may not allocate a 2**S mask array either
        g = maximum_measure(20)
        X = np.random.default_rng(4).random((10, 20))
        tracemalloc.start()
        try:
            choquet_batch(X, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= g.values.nbytes

    def test_range_check_holds_no_row_sized_mask(self):
        # beyond the fused output, at most one byte a confidence: the blocks
        # are small, and the [0, 1] check forms no (N, S) bool array
        n, s = 200_000, 16
        g = from_minimal_coalitions(s, [range(8), range(8, s)])
        X = np.random.default_rng(6).random((n, s))
        tracemalloc.start()
        try:
            out = choquet_batch(X, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + n * s

    def test_empty_batch(self):
        for g in (PAPER_STYLE, sample_random_real(3, 7)):
            out = choquet_batch(np.empty((0, 3)), g)
            assert out.shape == (0,)

    def test_sort_decomposition_structure(self):
        rng = np.random.default_rng(5)
        X = rng.random((20, 5))
        masks, levels = decompose(X)
        # nested chains: popcount k+1 at column k, ending at the full set
        assert (np.bitwise_count(masks) == np.arange(1, 6)).all()
        assert (masks[:, -1] == 0b11111).all()
        assert levels.shape == (20, 6)
        assert (levels[:, -1] == 0.0).all()
        assert (np.diff(levels, axis=1) <= 0).all()
        assert np.array_equal(levels[:, 0], X.max(axis=1))
        # the level-difference sum is the Choquet integral
        g = sample_random(5, 0.5, rng)
        diffs = levels[:, :-1] - levels[:, 1:]
        assert np.array_equal((diffs * g.values[masks]).sum(axis=1), choquet_batch(X, g))


class TestBlocks:
    @given(
        n=st.integers(0, 300),
        per_item=st.integers(1, 2 * _BLOCK),
        budget=st.sampled_from([1, 7, 64, _BLOCK]),
    )
    @example(n=0, per_item=1, budget=_BLOCK)
    @example(n=5, per_item=_BLOCK + 1, budget=_BLOCK)
    @settings(max_examples=200, deadline=None)
    def test_slices_cover_the_range_once_in_order(self, n, per_item, budget):
        blocks = _blocks(n, per_item, budget)
        step = max(1, budget // per_item)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert all(len(range(n)[b]) == step for b in blocks[:-1])
        assert all(0 < len(range(n)[b]) <= step for b in blocks)


def tied_rows(rng, n, s):
    """Rows drawn from a few levels, so most of them hold ties."""
    return rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, s))


class TestStackForms:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_maxmin_stack_equals_oracle(self, s):
        rng = np.random.default_rng(s)
        measures = list(enumerate_all(s))
        for X in (rng.random((15, s)), tied_rows(rng, 15, s)):
            for g in measures:
                ci = choquet_batch(X, g)
                assert ci.shape == (15,)
                assert [float(v) for v in ci] == [choquet_maxmin(h, g) for h in X]

    @pytest.mark.parametrize("p", [1, 7])
    @pytest.mark.parametrize("s", [1, 2, 5, 8])
    def test_maxmin_stack_of_random_tables_equals_oracle(self, s, p):
        # rows with ties, 0.0 and 1.0 among them
        rng = np.random.default_rng(200 + 10 * s + p)
        measures = [sample_random(s, 0.5, rng) for _ in range(p)]
        for X in (rng.random((40, s)), tied_rows(rng, 40, s)):
            for g in measures:
                ci = choquet_batch(X, g)
                assert ci.shape == (40,)
                assert [float(v) for v in ci] == [choquet_maxmin(h, g) for h in X]

    def test_sum_stack_equals_batch_bitwise(self):
        rng = np.random.default_rng(9)
        measures = [sample_random_real(4, rng) for _ in range(6)]
        tables = np.stack([g.values for g in measures], axis=1)
        for X in (rng.random((25, 4)), tied_rows(rng, 25, 4)):
            ci = _choquet(tables, *decompose(X))
            for p, g in enumerate(measures):
                assert np.array_equal(ci[:, p], choquet_batch(X, g))
