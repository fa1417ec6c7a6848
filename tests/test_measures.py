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
    choquet_maxmin,
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
from bfmfusion.measures import _all_tables, _children, _close_up, _minimal, _pack, _unpack
from oracles import (
    brute_force_tables,
    naive_first_covering_violation,
    naive_minimal_winning,
    naive_set_with_repair,
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
        with pytest.raises(ValidationError, match="bitmask 8 out of range"):
            PAPER_STYLE[1 << 3]

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
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            RealFuzzyMeasure(2, np.array([0.0, np.nan, 0.0, 1.0]))

    @pytest.mark.parametrize("kind", [BinaryFuzzyMeasure, RealFuzzyMeasure])
    def test_values_must_be_one_dimensional(self, kind):
        with pytest.raises(ValidationError, match="1-D"):
            kind(1, np.zeros((2, 2)))

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

    @pytest.mark.parametrize("bit", [2, -1, True, False, 1.0, 0.0], ids=repr)
    def test_bit_is_the_integer_0_or_1(self, bit):
        with pytest.raises(ValidationError, match="bit must be 0 or 1"):
            set_with_repair(maximum_measure(3), 3, bit)

    def test_numpy_integer_bit(self):
        assert set_with_repair(maximum_measure(3), 3, np.int64(0))[3] == 0

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

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("monotone", [True, False], ids=["valid", "non_monotone"])
    def test_matches_oracle_everywhere(self, s, monotone):
        rng = np.random.default_rng(s)
        for _ in range(3):
            if monotone:
                g = sample_random(s, rng.uniform(0.1, 0.9), rng)
            else:  # any bits, ends included: only c and its supersets or subsets change
                g = BinaryFuzzyMeasure(s, (rng.random(1 << s) < 0.5).astype(np.uint8))
            for c in range(1, (1 << s) - 1):
                for bit in (0, 1):
                    expected = naive_set_with_repair(g.values.tolist(), c, bit)
                    assert set_with_repair(g, c, bit).values.tolist() == expected

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_one_flip_neighbourhood_matches_oracle(self, seed, s):
        # every coalition of one table flipped, as a one-flip descent asks:
        # the children come raised first, so argsort(~raised) maps them back
        g = sample_random(s, 0.5, seed)
        t, coalitions = _pack(g.values[:, None]), np.arange(1, (1 << s) - 1)
        raised = g.values[coalitions] == 0  # a losing coalition is raised, a winning one lowered
        got = _unpack(_children(t, np.zeros_like(coalitions), coalitions, raised, t[:, :0], s), s)
        assert got.shape == (1 << s, len(coalitions))
        for column, k in zip(got.T, np.argsort(~raised, kind="stable")):
            c, bit = int(coalitions[k]), int(raised[k])
            assert column.tolist() == naive_set_with_repair(g.values.tolist(), c, bit)


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

    def test_density_must_be_a_real_number(self):
        with pytest.raises(ValidationError, match="density must be a finite real number"):
            sample_random(2, "0.5")


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

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_packed_layout(self, s):
        stack, n = _all_tables(s), 1 << s
        assert stack.dtype == np.uint8 and stack.flags.c_contiguous
        if s <= 4:
            tables = np.array(sorted(brute_force_tables(s), key=bytes), dtype=np.uint8)
            assert np.array_equal(stack, np.packbits(tables.T, axis=0))
        else:  # 2**30 candidates are too many to scan: check what pins the set instead
            tables = np.unpackbits(stack, axis=0, count=n).T
            assert len(tables) == count_all(s)
            assert all(bytes(a) < bytes(b) for a, b in zip(tables, tables[1:]))
            assert (tables[:, 0] == 0).all() and (tables[:, -1] == 1).all()
            subset = np.array([[a & b == a for b in range(n)] for a in range(n)])
            # monotone: no coalition a wins while a superset b of it loses
            assert not (subset & (tables[:, :, None] > tables[:, None, :])).any()
        if s < 3:  # one byte, its low 8 - 2**S bits padding
            assert not (stack & (1 << 8 - n) - 1).any()

    def test_cap_refusal(self):
        with pytest.raises(CapError) as exc:
            next(enumerate_all(6))
        assert "7828352" in str(exc.value)

    def test_cap_is_eager(self):
        # refusal happens at call time, not first iteration
        with pytest.raises(CapError):
            enumerate_all(7)

    def test_cap_refusal_beyond_known_counts(self):
        # no exact count is known past S = 9: C(10, 5) = 252 bounds it
        with pytest.raises(CapError, match=r"more than 2\*\*252"):
            enumerate_all(10)
        with pytest.raises(CapError, match="S=10"):
            count_all(10)

    @pytest.mark.parametrize("source_count", [0, -1, "3", True, 2.0])
    def test_count_all_refuses_what_enumerate_all_refuses(self, source_count):
        with pytest.raises(ValidationError, match="source_count"):
            count_all(source_count)


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

    @given(seed=st.integers(0, 2**31 - 1), cols=st.sampled_from([0, 1, 5]),
           density=st.sampled_from([0.02, 0.2, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_close_up_matches_oracle(self, seed, cols, density):
        rng = np.random.default_rng(seed)
        for s in range(1, 9):  # packed stacks of 1 byte a table up to 32
            tables = (rng.random((1 << s, cols)) < density).astype(np.uint8)
            expected = [naive_upward_closure(column) for column in tables.T.tolist()]
            stack = _pack(tables)
            closed = _close_up(stack, s)
            assert closed is stack  # in place
            assert closed.shape == (-(-(1 << s) // 8), cols)
            assert _unpack(closed, s).T.tolist() == expected
            if s <= 2:  # one byte, its low 8 - 2**S bits padding
                assert not (closed & (1 << 8 - (1 << s)) - 1).any()

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 6), cols=st.sampled_from([0, 1, 5]))
    @settings(max_examples=120, deadline=None)
    def test_minimal_matches_oracle(self, seed, s, cols):
        rng = np.random.default_rng(seed)
        stack = (rng.random((1 << s, cols)) < rng.uniform(0.01, 0.5)).astype(np.uint8)
        stack[0] = 0
        stack = _unpack(_close_up(_pack(stack), s), s)
        minimal = _minimal(stack)
        assert minimal.dtype == np.uint8 and minimal.shape == stack.shape
        for column, table in zip(minimal.T, stack.T):
            assert np.flatnonzero(column).tolist() == naive_minimal_winning(table.tolist())

    def test_close_up_refuses_a_strided_stack(self):
        # closing a copy would silently leave the caller's stack open
        with pytest.raises(ValueError):
            _close_up(np.asfortranarray(_pack(np.zeros((64, 4), dtype=np.uint8))), 6)


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

    def test_both_spellings_rejected(self):
        # neither field may silently win over the other
        with pytest.raises(ValidationError, match="not both"):
            measure_from_dict(
                {"source_count": 2, "values": [0, 1, 1, 1], "minimal_winning": [[1, 2]]}
            )

    def test_antichain_form_of_an_invalid_measure_refused(self):
        # [[1]] would load back as the valid [0, 1, 0, 1]
        with pytest.raises(ValidationError, match="measure is invalid: "):
            measure_to_antichain_dict(BinaryFuzzyMeasure(2, [0, 1, 0, 0]))

    def test_antichain_form_of_a_real_measure_refused(self):
        with pytest.raises(ValidationError, match="only for binary measures"):
            measure_to_antichain_dict(sample_random_real(2, 1))

    @pytest.mark.parametrize(
        "obj, message",
        [({"source_count": 2, "minimal_winning": "12"}, "must be a list of coalitions"),
         ({"source_count": 2}, "needs either values or minimal_winning")],
        ids=["minimal_winning_not_a_list", "neither_field"],
    )
    def test_malformed_form_refused(self, obj, message):
        with pytest.raises(ValidationError, match=message):
            measure_from_dict(obj)

    def test_int_values_parse_binary_float_values_parse_real(self):
        b = measure_from_dict({"source_count": 1, "values": [0, 1]})
        r = measure_from_dict({"source_count": 1, "values": [0.0, 1.0]})
        assert isinstance(b, BinaryFuzzyMeasure)
        assert isinstance(r, RealFuzzyMeasure)

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "measure.json"
        for g in (PAPER_STYLE, sample_random_real(3, 5)):
            save_measure(p, g)
            # the file's bytes are pinned, not only what it reads back as
            assert p.read_text(encoding="utf-8") == json.dumps(measure_to_dict(g), indent=2) + "\n"
            assert load_measure(p) == g
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

    def test_repr_lists_minimal_winning_coalitions(self):
        assert repr(PAPER_STYLE) == "BinaryFuzzyMeasure(S=3, minimal_winning=[(0, 1), (0, 2)])"

    def test_repr_of_an_invalid_table_names_its_first_violation(self):
        # its antichain [(0,)] would close to [0, 1, 0, 1], another table
        shown = repr(BinaryFuzzyMeasure(2, [0, 1, 0, 0]))
        assert shown == (
            "BinaryFuzzyMeasure(S=2, invalid: normalization rule violated at subset 0b11)"
        )

    @pytest.mark.parametrize("kind", [BinaryFuzzyMeasure, RealFuzzyMeasure])
    def test_a_short_table_is_refused_when_built(self, kind):
        # read as a smaller lattice it would give a wrong antichain or IndexError
        with pytest.raises(ValidationError, match=r"^values length 2 != 2\*\*3 = 8$"):
            kind(3, [0, 1])

    @pytest.mark.parametrize("values", [[0, 1], [0, 1, 2]], ids=["short", "non-bit"])
    def test_a_refused_measure_prints_no_structure(self, values):
        # pytest and debuggers print the half-built measure of the refusing frame
        with pytest.raises(ValidationError) as refused:
            BinaryFuzzyMeasure(3, np.array(values))
        tb = refused.value.__traceback__
        while tb.tb_frame.f_code.co_name != "__post_init__":
            tb = tb.tb_next
        assert repr(tb.tb_frame.f_locals["self"]) == "BinaryFuzzyMeasure(S=3, table not stored)"

    def test_real_repr(self):
        assert repr(sample_random_real(4, 0)) == "RealFuzzyMeasure(S=4)"

    @pytest.mark.parametrize("g", [PAPER_STYLE, sample_random_real(4, 0)], ids=["binary", "real"])
    def test_len_is_the_table_length(self, g):
        assert len(g) == 1 << g.source_count

    def test_eq_and_hash(self):
        a = minimum_measure(2)
        b = minimum_measure(2)
        assert a == b and hash(a) == hash(b)
        assert a != maximum_measure(2)
        assert a != minimum_measure(3)

    @pytest.mark.parametrize("call", [
        lambda g: set_with_repair(g, 1, 1),
        minimal_winning_coalitions,
        lambda g: choquet_maxmin([0.2, 0.9, 0.5], g),
    ], ids=["set_with_repair", "minimal_winning_coalitions", "maxmin"])
    def test_a_real_measure_is_refused_where_only_binary_ones_are_defined(self, call):
        # as the antichain form refuses one (see TestSerialization)
        with pytest.raises(ValidationError, match="only for binary measures"):
            call(sample_random_real(3, 0))
