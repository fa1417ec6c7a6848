import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmfusion import (
    RealFuzzyMeasure,
    ValidationError,
    choquet_batch,
    choquet_integral,
    choquet_maxmin,
    enumerate_all,
    from_minimal_coalitions,
    maximum_measure,
    minimum_measure,
    sample_random,
    sample_random_real,
    sort_decomposition,
)
from bfmfusion.choquet import _choquet
from oracles import naive_choquet

PAPER_STYLE = from_minimal_coalitions(3, [{0, 1}, {0, 2}])


def random_instance(rng, s):
    return rng.random(s)


class TestHandCases:
    def test_worked_example(self):
        h = [0.2, 0.9, 0.5]
        assert choquet_integral(h, PAPER_STYLE) == pytest.approx(0.2, abs=1e-15)
        assert choquet_maxmin(h, PAPER_STYLE) == pytest.approx(0.2, abs=1e-15)

    def test_max_degeneracy(self):
        h = [0.3, 0.7, 0.1]
        assert choquet_integral(h, maximum_measure(3)) == pytest.approx(0.7, abs=1e-12)
        assert choquet_maxmin(h, maximum_measure(3)) == 0.7

    def test_min_degeneracy(self):
        h = [0.3, 0.7, 0.1]
        # single-term sum: exact
        assert choquet_integral(h, minimum_measure(3)) == 0.1
        assert choquet_maxmin(h, minimum_measure(3)) == 0.1

    def test_constant_preservation_all_measures(self):
        for s in (2, 3, 4):
            for g in enumerate_all(s):
                for c in (0.0, 0.25, 1.0):
                    assert choquet_integral([c] * s, g) == pytest.approx(c, abs=1e-12)


class TestOracleAgreement:
    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 6))
    @settings(max_examples=300, deadline=None)
    def test_maxmin_equivalence(self, seed, s):
        rng = np.random.default_rng(seed)
        g = sample_random(s, float(rng.uniform(0.2, 0.8)), rng)
        h = random_instance(rng, s)
        assert abs(choquet_integral(h, g) - choquet_maxmin(h, g)) <= 1e-12

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_naive_oracle_binary(self, seed, s):
        rng = np.random.default_rng(seed)
        g = sample_random(s, 0.5, rng)
        h = random_instance(rng, s)
        assert choquet_integral(h, g) == pytest.approx(
            naive_choquet(h, g.values), abs=1e-12
        )

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_naive_oracle_real(self, seed, s):
        rng = np.random.default_rng(seed)
        g = sample_random_real(s, rng)
        h = random_instance(rng, s)
        assert choquet_integral(h, g) == pytest.approx(
            naive_choquet(h, g.values), abs=1e-12
        )


class TestProperties:
    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_min_max(self, seed, s):
        rng = np.random.default_rng(seed)
        g = sample_random_real(s, rng) if seed % 2 else sample_random(s, 0.5, rng)
        h = random_instance(rng, s)
        ci = choquet_integral(h, g)
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
        assert choquet_integral(h2, g) >= choquet_integral(h, g) - 1e-12

    def test_tie_order_invariance(self):
        # equal confidences contribute zero-width differences
        g = PAPER_STYLE
        assert choquet_integral([0.5, 0.5, 0.5], g) == 0.5
        h = [0.4, 0.4, 0.9]
        assert choquet_integral(h, g) == pytest.approx(
            naive_choquet(h, g.values), abs=1e-15
        )


class TestValidation:
    def test_out_of_range_rejected_not_clamped(self):
        with pytest.raises(ValidationError):
            choquet_integral([0.2, 1.3, 0.5], PAPER_STYLE)
        with pytest.raises(ValidationError):
            choquet_integral([-0.1, 0.3, 0.5], PAPER_STYLE)
        with pytest.raises(ValidationError):
            choquet_maxmin([0.2, 1.3, 0.5], PAPER_STYLE)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            choquet_integral([0.2, 0.9], PAPER_STYLE)
        with pytest.raises(ValidationError):
            choquet_maxmin([0.2, 0.9, 0.5, 0.1], PAPER_STYLE)

    def test_maxmin_requires_binary(self):
        g = RealFuzzyMeasure(2, np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValidationError):
            choquet_maxmin([0.2, 0.9], g)


class TestBatch:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 4))
        g = sample_random(4, 0.5, rng)
        batch = choquet_batch(X, g)
        for i in range(40):
            assert batch[i] == choquet_integral(X[i], g)

    def test_sort_decomposition_structure(self):
        rng = np.random.default_rng(5)
        X = rng.random((20, 5))
        masks, levels = sort_decomposition(X)
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


def tied_rows(rng, n, s):
    """Rows drawn from a few levels, so most of them hold ties."""
    return rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, s))


class TestStackForms:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_maxmin_stack_equals_oracle(self, s):
        rng = np.random.default_rng(s)
        measures = list(enumerate_all(s))
        tables = np.stack([g.values for g in measures], axis=1)
        for X in (rng.random((15, s)), tied_rows(rng, 15, s)):
            ci = _choquet(tables, *sort_decomposition(X))
            assert ci.shape == (15, len(measures))
            for p, g in enumerate(measures):
                assert [float(v) for v in ci[:, p]] == [choquet_maxmin(h, g) for h in X]

    def test_sum_stack_equals_batch_bitwise(self):
        rng = np.random.default_rng(9)
        measures = [sample_random_real(4, rng) for _ in range(6)]
        tables = np.stack([g.values for g in measures], axis=1)
        for X in (rng.random((25, 4)), tied_rows(rng, 25, 4)):
            ci = _choquet(tables, *sort_decomposition(X))
            for p, g in enumerate(measures):
                assert np.array_equal(ci[:, p], choquet_batch(X, g))
