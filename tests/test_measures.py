import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmfusion import (
    BinaryFuzzyMeasure,
    CapError,
    PinnedElementError,
    RealFuzzyMeasure,
    ValidationError,
    count_all,
    enumerate_all,
    from_minimal_coalitions,
    load_measure,
    maximum_measure,
    measure_from_dict,
    measure_to_antichain_dict,
    measure_to_dict,
    minimal_winning_coalitions,
    minimum_measure,
    sample_random,
    sample_random_real,
    save_measure,
    set_with_repair,
    validate,
)
from bfmfusion.measures import _close_up, _minimal
from oracles import (
    brute_force_tables,
    naive_first_covering_violation,
    naive_minimal_winning,
    naive_upward_closure,
)

# the measure learned in the S=3 worked example: coalitions {0,1} and {0,2}
# win, nothing smaller does
PAPER_STYLE = from_minimal_coalitions(3, [{0, 1}, {0, 2}])


# Subset arguments that are neither a bitmask nor an iterable of integer
# source indices; a bool counts as neither
NOT_SUBSETS = [True, 1.5, None, "ab", [1.5], [True], [True, 1]]


class TestSourceSet:
    """A set of sources goes in as a bitmask or 0-based members, comes out as a tuple."""

    def test_members_round_trip(self):
        assert PAPER_STYLE[[0, 2]] == PAPER_STYLE[0b101] == 1
        assert PAPER_STYLE[(1, 2)] == PAPER_STYLE[0b110] == 0
        assert PAPER_STYLE[np.array([0, 1])] == PAPER_STYLE[np.uint32(0b011)] == 1
        assert minimal_winning_coalitions(from_minimal_coalitions(3, [[2, 0]])) == [(0, 2)]

    def test_out_of_range_member(self):
        with pytest.raises(ValidationError):
            PAPER_STYLE[[3]]

    @pytest.mark.parametrize("subset", NOT_SUBSETS, ids=repr)
    @pytest.mark.parametrize("call", ["getitem", "from_minimal_coalitions", "set_with_repair"])
    def test_refused(self, call, subset):
        with pytest.raises(ValidationError):
            if call == "getitem":
                PAPER_STYLE[subset]
            elif call == "from_minimal_coalitions":
                from_minimal_coalitions(3, [subset])
            else:
                set_with_repair(PAPER_STYLE, subset, 1)


class TestConstruction:
    def test_minimum_measure(self):
        g = minimum_measure(3)
        assert list(g.values) == [0, 0, 0, 0, 0, 0, 0, 1]
        assert validate(g).ok

    def test_maximum_measure(self):
        g = maximum_measure(3)
        assert list(g.values) == [0, 1, 1, 1, 1, 1, 1, 1]
        assert validate(g).ok

    def test_from_minimal_coalitions(self):
        # bitmask order: {}, {0}, {1}, {0,1}, {2}, {0,2}, {1,2}, {0,1,2}
        assert list(PAPER_STYLE.values) == [0, 0, 0, 1, 0, 1, 0, 1]

    def test_closure_of_non_antichain_input(self):
        # redundant superset collapses to the same measure
        g = from_minimal_coalitions(3, [{0, 1}, {0, 1, 2}])
        assert g == from_minimal_coalitions(3, [{0, 1}])

    def test_empty_coalition_rejected(self):
        with pytest.raises(ValidationError):
            from_minimal_coalitions(3, [set()])

    def test_value_domain_checked(self):
        with pytest.raises(ValidationError):
            BinaryFuzzyMeasure(2, np.array([0, 2, 0, 1]))
        with pytest.raises(ValidationError):
            RealFuzzyMeasure(2, np.array([0.0, 1.2, 0.0, 1.0]))

    def test_values_read_only(self):
        g = minimum_measure(2)
        with pytest.raises(ValueError):
            g.values[1] = 1


class TestValidate:
    def test_valid(self):
        assert validate(PAPER_STYLE).ok
        assert bool(validate(PAPER_STYLE))

    def test_empty_set_axiom(self):
        g = BinaryFuzzyMeasure(2, np.array([1, 1, 1, 1]))
        report = validate(g)
        assert not report.ok
        assert any(v.axiom == "empty_set" for v in report.violations)

    def test_normalization_axiom(self):
        g = BinaryFuzzyMeasure(2, np.array([0, 0, 0, 0]))
        report = validate(g)
        assert any(v.axiom == "normalization" for v in report.violations)

    def test_monotonicity_axiom_names_covering_pair(self):
        # {0} wins but {0,1} loses
        g = BinaryFuzzyMeasure(2, np.array([0, 1, 0, 0]))
        report = validate(g)
        viol = [v for v in report.violations if v.axiom == "monotonicity"]
        assert viol and viol[0].subset_a == 0b01 and viol[0].subset_b == 0b11

    def test_wrong_length_raises(self):
        with pytest.raises(ValidationError):
            validate(BinaryFuzzyMeasure(3, np.array([0, 1, 0, 1])))

    def test_real_measure(self):
        g = RealFuzzyMeasure(2, np.array([0.0, 0.3, 0.5, 1.0]))
        assert validate(g).ok
        bad = RealFuzzyMeasure(2, np.array([0.0, 0.6, 0.5, 1.0]))
        assert validate(bad).ok  # 0.6 on {0} vs 0.5 on {1}: incomparable, fine
        bad2 = RealFuzzyMeasure(2, np.array([0.0, 0.6, 0.5, 0.4]))
        assert not validate(bad2).ok

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 8), flips=st.integers(0, 3),
           binary=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_scan(self, seed, s, flips, binary):
        # a valid table with a few entries redrawn, so violations sit anywhere
        rng = np.random.default_rng(seed)
        if binary:
            values = sample_random(s, float(rng.uniform(0.1, 0.9)), rng).values.copy()
            values[rng.integers(1 << s, size=flips)] ^= 1
            g = BinaryFuzzyMeasure(s, values)
        else:
            values = sample_random_real(s, rng).values.copy()
            values[rng.integers(1 << s, size=flips)] = rng.random(flips)
            g = RealFuzzyMeasure(s, values)
        table = g.values.tolist()
        pair = naive_first_covering_violation(table)
        report = validate(g)
        assert report.ok == (table[0] == 0 and table[-1] == 1 and pair is None)
        found = [(v.subset_a, v.subset_b) for v in report.violations if v.axiom == "monotonicity"]
        assert found == ([] if pair is None else [pair])


class TestSetWithRepair:
    def test_raise_closes_upward(self):
        g = set_with_repair(minimum_measure(3), {0}, 1)
        # every superset of {0} now wins
        assert [g[m] for m in (0b001, 0b011, 0b101, 0b111)] == [1, 1, 1, 1]
        assert validate(g).ok

    def test_lower_closes_downward(self):
        g = set_with_repair(maximum_measure(3), {0, 1}, 0)
        assert [g[m] for m in (0b000, 0b001, 0b010, 0b011)] == [0, 0, 0, 0]
        assert validate(g).ok

    def test_pinned_elements_rejected(self):
        with pytest.raises(PinnedElementError):
            set_with_repair(PAPER_STYLE, set(), 1)
        with pytest.raises(PinnedElementError):
            set_with_repair(PAPER_STYLE, {0, 1, 2}, 0)

    @given(
        seed=st.integers(0, 10_000),
        s=st.integers(2, 6),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_repair_always_valid(self, seed, s, data):
        g = sample_random(s, 0.5, seed)
        subset = data.draw(st.integers(1, (1 << s) - 2))
        bit = data.draw(st.sampled_from((0, 1)))
        out = set_with_repair(g, subset, bit)
        assert out[subset] == bit
        assert validate(out).ok


class TestSampling:
    @given(seed=st.integers(0, 10_000), s=st.integers(1, 8), density=st.floats(0.05, 0.95))
    @settings(max_examples=150, deadline=None)
    def test_sample_random_valid(self, seed, s, density):
        assert validate(sample_random(s, density, seed)).ok

    @given(seed=st.integers(0, 10_000), s=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_sample_random_real_valid(self, seed, s):
        g = sample_random_real(s, seed)
        assert isinstance(g, RealFuzzyMeasure)
        assert validate(g).ok

    def test_seed_determinism(self):
        assert sample_random(4, 0.5, 7) == sample_random(4, 0.5, 7)
        assert sample_random_real(4, 7) == sample_random_real(4, 7)

    def test_degenerate_density_rejected(self):
        # density 0/1 would always produce the same trivial measure
        with pytest.raises(ValidationError):
            sample_random(3, 0.0, 1)
        with pytest.raises(ValidationError):
            sample_random(3, 1.0, 1)


class TestEnumeration:
    def test_frozen_counts(self):
        assert [sum(1 for _ in enumerate_all(s)) for s in (1, 2, 3, 4)] == [1, 4, 18, 166]

    def test_count_all_matches_enumeration(self):
        for s in (1, 2, 3, 4):
            assert count_all(s) == sum(1 for _ in enumerate_all(s))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_brute_force_oracle(self, s):
        ours = {tuple(int(x) for x in g.values) for g in enumerate_all(s)}
        assert ours == set(brute_force_tables(s))

    def test_all_enumerated_are_valid_and_distinct(self):
        seen = set()
        for g in enumerate_all(4):
            assert validate(g).ok
            seen.add(g.values.tobytes())
        assert len(seen) == 166

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_serialization_order(self, s):
        tables = [g.values.tobytes() for g in enumerate_all(s)]
        assert all(a < b for a, b in zip(tables, tables[1:]))

    def test_cap_refusal(self):
        with pytest.raises(CapError) as exc:
            next(enumerate_all(6))
        assert "7828352" in str(exc.value)

    def test_cap_is_eager(self):
        # refusal happens at call time, not first iteration
        with pytest.raises(CapError):
            enumerate_all(7)


class TestMinimalWinningCoalitions:
    def test_paper_style_antichain(self):
        assert minimal_winning_coalitions(PAPER_STYLE) == [(0, 1), (0, 2)]

    def test_trivial_measures(self):
        assert minimal_winning_coalitions(minimum_measure(3)) == [(0, 1, 2)]
        assert minimal_winning_coalitions(maximum_measure(3)) == [(0,), (1,), (2,)]

    @given(seed=st.integers(0, 10_000), s=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_antichain_determines_measure(self, seed, s):
        g = sample_random(s, 0.5, seed)
        coalitions = minimal_winning_coalitions(g)
        assert from_minimal_coalitions(s, coalitions) == g
        # antichain property: no coalition contains another
        for a in coalitions:
            for b in coalitions:
                if a != b:
                    assert not set(a) <= set(b)


class TestLatticeSweeps:
    """The column-stack sweeps against pair-scanning oracles."""

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 6), cols=st.sampled_from([0, 1, 5]),
           density=st.sampled_from([0.02, 0.2, 0.5]))
    @settings(max_examples=120, deadline=None)
    def test_close_up_matches_oracle(self, seed, s, cols, density):
        stack = (np.random.default_rng(seed).random((1 << s, cols)) < density).astype(np.uint8)
        expected = [naive_upward_closure(column) for column in stack.T.tolist()]
        closed = _close_up(stack)
        assert closed is stack  # in place
        assert closed.shape == (1 << s, cols)
        assert closed.T.tolist() == expected

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 6), cols=st.sampled_from([0, 1, 5]))
    @settings(max_examples=120, deadline=None)
    def test_minimal_matches_oracle(self, seed, s, cols):
        rng = np.random.default_rng(seed)
        stack = (rng.random((1 << s, cols)) < rng.uniform(0.01, 0.5)).astype(np.uint8)
        stack[0] = 0
        _close_up(stack)
        minimal = _minimal(stack)
        assert minimal.dtype == np.uint8 and minimal.shape == stack.shape
        for column, table in zip(minimal.T, stack.T):
            assert np.flatnonzero(column).tolist() == naive_minimal_winning(table.tolist())

    def test_close_up_refuses_a_strided_stack(self):
        # closing a copy would silently leave the caller's stack open
        with pytest.raises(ValueError):
            _close_up(np.zeros((4, 8), dtype=np.uint8).T)


class TestSerialization:
    def test_binary_round_trip(self):
        assert measure_from_dict(measure_to_dict(PAPER_STYLE)) == PAPER_STYLE

    def test_real_round_trip(self):
        g = sample_random_real(3, 5)
        back = measure_from_dict(measure_to_dict(g))
        assert isinstance(back, RealFuzzyMeasure)
        assert back == g

    def test_antichain_dict_is_one_based(self):
        d = measure_to_antichain_dict(PAPER_STYLE)
        assert d == {"source_count": 3, "minimal_winning": [[1, 2], [1, 3]]}
        assert measure_from_dict(d) == PAPER_STYLE

    def test_antichain_member_validation(self):
        with pytest.raises(ValidationError):
            measure_from_dict({"source_count": 3, "minimal_winning": [[0, 1]]})
        with pytest.raises(ValidationError):
            measure_from_dict({"source_count": 3, "minimal_winning": [[4]]})

    def test_int_values_parse_binary_float_values_parse_real(self):
        b = measure_from_dict({"source_count": 1, "values": [0, 1]})
        r = measure_from_dict({"source_count": 1, "values": [0.0, 1.0]})
        assert isinstance(b, BinaryFuzzyMeasure)
        assert isinstance(r, RealFuzzyMeasure)

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "measure.json"
        save_measure(p, PAPER_STYLE)
        assert load_measure(p) == PAPER_STYLE
        p.write_text(json.dumps(measure_to_antichain_dict(PAPER_STYLE)))
        assert json.loads(p.read_text())["minimal_winning"] == [[1, 2], [1, 3]]
        assert load_measure(p) == PAPER_STYLE

    def test_malformed_json_is_validation_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"source_count": 2, ')
        with pytest.raises(ValidationError):
            load_measure(p)

    def test_garbage_dict_rejected(self):
        with pytest.raises(ValidationError):
            measure_from_dict({"values": [0, 1]})
        with pytest.raises(ValidationError):
            measure_from_dict({"source_count": 1, "values": [0, "x"]})

    def test_integer_too_large_for_a_float_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            measure_from_dict({"source_count": 1, "values": [0.0, 10**400]})


class TestMeasureSemantics:
    def test_getitem_accepts_masks_and_sets(self):
        assert PAPER_STYLE[0b011] == 1
        assert PAPER_STYLE[{0, 1}] == 1
        assert PAPER_STYLE[(1, 2)] == 0

    def test_eq_and_hash(self):
        a = minimum_measure(2)
        b = minimum_measure(2)
        assert a == b and hash(a) == hash(b)
        assert a != maximum_measure(2)
        assert a != minimum_measure(3)
