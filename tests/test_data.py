import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmfusion import (
    Bag,
    CandidateSet,
    Dataset,
    SynthSpec,
    ValidationError,
    choquet_batch,
    dataset_from_dict,
    dataset_to_dict,
    from_minimal_coalitions,
    generate_synthetic,
    load_dataset,
    minimal_winning_coalitions,
    objective,
    sample_random,
    save_dataset,
    score,
    spec_from_dict,
    spec_to_dict,
)
from bfmfusion import data as data_module
from test_acceptance import timing_spec

TRUTH3 = from_minimal_coalitions(3, [{0, 1}, {0, 2}])


def small_dataset():
    return Dataset(
        2,
        (
            Bag(0, [np.array([[0.1, 0.2], [0.3, 0.4]])]),
            Bag(1, [np.array([[0.9, 0.8]]), np.array([[0.5, 0.6]])]),
        ),
    )


def spec3(sigma=0.0, seed=11, pos=6, neg=6):
    return SynthSpec(3, pos, neg, (2, 3), (2, 4), sigma, TRUTH3, rng_seed=seed)


class TestModelValidation:
    def test_minimal_valid(self):
        ds = small_dataset()
        assert len(ds.bags) == 2
        assert ds.n_instances == 4
        assert ds.labels().tolist() == [0, 1]

    def test_out_of_range_confidence_names_indices(self):
        with pytest.raises(ValidationError) as exc:
            Dataset(2, (Bag(0, [np.array([[0.1, 1.3]])]),))
        msg = str(exc.value)
        assert "bag 0" in msg and "candidate set 0" in msg and "instance 0" in msg

    def test_empty_candidate_set(self):
        with pytest.raises(ValidationError):
            CandidateSet(np.empty((0, 2)))

    def test_empty_bag(self):
        with pytest.raises(ValidationError):
            Bag(0, [])

    def test_no_bags(self):
        with pytest.raises(ValidationError):
            Dataset(2, ())

    def test_nonbinary_label(self):
        with pytest.raises(ValidationError):
            Bag(2, [np.array([[0.1, 0.2]])])

    @pytest.mark.parametrize("label", [True, False, 1.0, 0.0], ids=repr)
    def test_label_is_the_integer_0_or_1(self, label):
        # as in the loader and instance truth: True == 1 and 1.0 == 1 pass `in`
        with pytest.raises(ValidationError, match="label must be 0 or 1"):
            Bag(label, [np.array([[0.1, 0.2]])])

    def test_numpy_integer_labels_load(self):
        rows = [np.array([[0.1, 0.2]])]
        ds = Dataset(2, (Bag(np.int64(1), rows), Bag(np.uint8(0), rows)))
        assert ds.labels().tolist() == [1, 0]

    def test_candidate_set_length_counts_instances(self):
        assert len(CandidateSet(np.zeros((3, 2)))) == 3
        assert len(CandidateSet([0.5, 0.5])) == 1  # one row lifted to a matrix

    def test_instances_beyond_two_dimensions(self):
        with pytest.raises(ValidationError, match="2-D"):
            CandidateSet(np.zeros((2, 2, 2)))

    def test_source_count_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            Dataset(3, (Bag(0, [np.array([[0.1, 0.2]])]),))
        assert "3" in str(exc.value)

    def test_single_polarity_allowed_but_flagged(self):
        ds = Dataset(2, (Bag(0, [np.array([[0.1, 0.2]])]),))
        assert ds.labels().tolist() == [0]

    def test_truth_shape_must_parallel_bags(self):
        with pytest.raises(ValidationError):
            Dataset(
                2,
                (Bag(0, [np.array([[0.1, 0.2]])]),),
                instance_truth=(((0, 1),),),
            )

    def test_instance_matrix_flatten_order(self):
        ds = small_dataset()
        m = ds.instance_matrix()
        assert m.shape == (4, 2)
        assert m[0].tolist() == [0.1, 0.2]
        assert m[2].tolist() == [0.9, 0.8]
        assert m[3].tolist() == [0.5, 0.6]


def ragged_dataset():
    """Bags of 2, 3 and 1 candidate sets holding 1 to 3 instances each."""
    rng = np.random.default_rng(3)
    shapes = [[2, 1], [1, 3, 2], [3]]
    bags = tuple(Bag(b % 2, [rng.random((n, 2)) for n in sizes]) for b, sizes in enumerate(shapes))
    truth = tuple(tuple(tuple(int(k % 2) for k in range(n)) for n in sizes) for sizes in shapes)
    return Dataset(2, bags, truth)


class TestColumns:
    def test_offsets_and_labels(self):
        ds = ragged_dataset()
        assert ds.set_offsets.tolist() == [0, 2, 3, 4, 7, 9, 12]
        assert ds.bag_offsets.tolist() == [0, 2, 5, 6]
        assert ds.labels().tolist() == [0, 1, 0]
        assert ds.flat_truth().tolist() == [0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0]
        assert ds.n_instances == 12

    def test_candidate_set_leaves_the_callers_array_writable(self):
        X = np.random.default_rng(0).random((3, 2))
        cs = CandidateSet(X)
        X[0, 0] = 1.0
        assert cs.instances[0, 0] == 1.0  # a view: nothing was copied
        with pytest.raises(ValueError):
            cs.instances[0, 0] = 0.0

    def test_columns_are_read_only(self):
        ds = ragged_dataset()
        for array in (ds.instance_matrix(), ds.set_offsets, ds.bag_offsets, ds.labels(),
                      ds.flat_truth()):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_views_loader_and_adapter_agree(self):
        ds = generate_synthetic(spec3(sigma=0.05))
        nested = dataset_to_dict(ds)["instance_truth"]
        for other in (Dataset(ds.source_count, ds.bags, nested),
                      dataset_from_dict(dataset_to_dict(ds))):
            assert np.array_equal(other.instance_matrix(), ds.instance_matrix())
            assert np.array_equal(other.set_offsets, ds.set_offsets)
            assert np.array_equal(other.bag_offsets, ds.bag_offsets)
            assert np.array_equal(other.labels(), ds.labels())
            assert np.array_equal(other.flat_truth(), ds.flat_truth())

    @pytest.mark.parametrize("where", [(0, 1, 0), (1, 1, 2), (1, 2, 1), (2, 0, 2)])
    @pytest.mark.parametrize("value", [1.3, "0.5", None, float("nan")])
    def test_loader_names_bad_instance(self, where, value):
        b, c, i = where
        obj = dataset_to_dict(ragged_dataset())
        obj["bags"][b]["candidate_sets"][c][i][1] = value
        with pytest.raises(ValidationError) as exc:
            dataset_from_dict(obj)
        assert f"bag {b}, candidate set {c}, instance {i}:" in str(exc.value)

    def test_adapter_names_bad_instance(self):
        bags = list(ragged_dataset().bags)
        inst = bags[1].candidate_sets[2].instances.copy()
        inst[1, 0] = -0.1
        bags[1] = Bag(1, bags[1].candidate_sets[:2] + (CandidateSet(inst),))
        with pytest.raises(ValidationError) as exc:
            Dataset(2, bags)
        assert "bag 1, candidate set 2, instance 1:" in str(exc.value)

    @pytest.mark.parametrize("fault", [False, True], ids=["valid", "fault_in_bag_1"])
    def test_tuple_rows_are_not_lists(self, fault):
        # a row is a list: a tuple row is refused even where its values are
        # valid, so a fault in a later bag is never pinned on it
        obj = {"source_count": 2, "bags": [
            {"label": 0, "candidate_sets": [[(0.5, 0.5)]]},
            {"label": 1, "candidate_sets": [[[0.5, 2.0 if fault else 0.5]]]},
        ]}
        with pytest.raises(ValidationError) as exc:
            dataset_from_dict(obj)
        assert str(exc.value) == ("bag 0, candidate set 0, instance 0: expected a list of 2"
                                  " numbers in [0, 1], got (0.5, 0.5)")

    @pytest.mark.parametrize("where, message", [
        ("sets", "bag 0: candidate_sets must be a non-empty list"),
        ("set", "bag 0, candidate set 0: must be a non-empty list"),
        ("row", "bag 0, candidate set 0, instance 0: expected a list of 2 numbers"),
    ])
    def test_a_list_subclass_is_not_a_list(self, where, message):
        # as `_pack` never packs one, the checks refuse it rather than pass it by
        class Sub(list):
            pass

        row = Sub([0.5, 0.5]) if where == "row" else [0.5, 0.5]
        rows = Sub([row]) if where == "set" else [row]
        sets = Sub([rows]) if where == "sets" else [rows]
        with pytest.raises(ValidationError, match=re.escape(message)):
            dataset_from_dict({"source_count": 2, "bags": [{"label": 0, "candidate_sets": sets}]})

    def test_truth_labels_of_numpy_integer_types_load(self):
        truth = [[[np.int64(1), np.uint8(0)]], [[np.int8(1)], [np.int32(0)]]]
        assert Dataset(2, small_dataset().bags, truth).flat_truth().tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("label", [True, 1.0, 2, -1, 2**70, None, np.int64(2)], ids=repr)
    def test_first_bad_truth_label_is_named(self, label):
        obj = dataset_to_dict(small_dataset())
        obj["instance_truth"] = [[[1, label]], [[0], [label]]]
        with pytest.raises(ValidationError) as exc:
            dataset_from_dict(obj)
        assert str(exc.value) == ("instance_truth at bag 0, candidate set 0, instance 1: labels"
                                  f" must be the integer 0 or 1, got {label!r}")

    def test_truth_labels_named_by_set(self):
        obj = dataset_to_dict(ragged_dataset())
        obj["instance_truth"][1][2][0] = 2
        with pytest.raises(ValidationError, match="bag 1, candidate set 2, instance 0"):
            dataset_from_dict(obj)


class TestSerialization:
    def test_dict_round_trip(self):
        ds = small_dataset()
        assert dataset_to_dict(dataset_from_dict(dataset_to_dict(ds))) == dataset_to_dict(ds)

    def test_file_round_trip(self, tmp_path):
        ds = generate_synthetic(spec3(sigma=0.05))
        p = tmp_path / "data.json"
        save_dataset(p, ds)
        back = load_dataset(p)
        assert dataset_to_dict(back) == dataset_to_dict(ds)

    def test_integer_tokens_load_as_their_float_twin(self, tmp_path):
        # another writer may spell a whole-number confidence 0 or 1; clipped
        # noise puts some at both ends here
        doc = dataset_to_dict(generate_synthetic(spec3(sigma=0.3)))
        floats = json.dumps(doc)
        for bag in doc["bags"]:
            bag["candidate_sets"] = [
                [[int(v) if v.is_integer() else v for v in row] for row in rows]
                for rows in bag["candidate_sets"]
            ]
        ints = json.dumps(doc)
        rows = [row for bag in doc["bags"] for rows in bag["candidate_sets"] for row in rows]
        assert {v for row in rows for v in row if type(v) is int} == {0, 1}
        (tmp_path / "floats.json").write_text(floats)
        (tmp_path / "ints.json").write_text(ints)
        assert_same_columns(load_dataset(tmp_path / "ints.json"),
                            load_dataset(tmp_path / "floats.json"))

    def test_minimal_file(self, tmp_path):
        p = tmp_path / "tiny.json"
        p.write_text(
            json.dumps(
                {
                    "source_count": 2,
                    "bags": [
                        {"label": 0, "candidate_sets": [[[0.1, 0.2]]]},
                        {"label": 1, "candidate_sets": [[[0.9, 0.8]]]},
                    ],
                }
            )
        )
        ds = load_dataset(p)
        assert len(ds.bags) == 2
        assert ds.flat_truth() is None

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"source_count": 2,')
        with pytest.raises(ValidationError):
            load_dataset(p)

    def test_ragged_instances(self):
        with pytest.raises(ValidationError):
            dataset_from_dict(
                {
                    "source_count": 2,
                    "bags": [{"label": 0, "candidate_sets": [[[0.1, 0.2], [0.3]]]}],
                }
            )

    def test_out_of_range_file_value_names_instance(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "source_count": 2,
                    "bags": [{"label": 0, "candidate_sets": [[[0.1, 1.3]]]}],
                }
            )
        )
        with pytest.raises(ValidationError) as exc:
            load_dataset(p)
        assert "instance 0" in str(exc.value)

    def test_spec_round_trip(self):
        spec = spec3(sigma=0.1)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_spec_dict_keys_and_values(self):
        # fields in declared order: a spec file written without sorted keys keeps its bytes
        assert json.dumps(spec_to_dict(spec3(sigma=0.1))) == (
            '{"source_count": 3, "n_pos_bags": 6, "n_neg_bags": 6, "sets_per_bag": [2, 3], '
            '"instances_per_set": [2, 4], "noise_sigma": 0.1, "truth_measure": '
            '{"source_count": 3, "values": [0, 0, 0, 1, 0, 1, 0, 1]}, "rng_seed": 11}'
        )


def assert_same_columns(got, want):
    assert got.source_count == want.source_count
    for name in ("instance_matrix", "labels", "flat_truth"):
        x, y = getattr(got, name)(), getattr(want, name)()
        assert (x is None and y is None) or (x.dtype == y.dtype and np.array_equal(x, y))
    assert np.array_equal(got.set_offsets, want.set_offsets)
    assert np.array_equal(got.bag_offsets, want.bag_offsets)


def outcome(load):
    """The dataset `load()` returns, or the message of the ValidationError it raises."""
    try:
        return load()
    except ValidationError as e:
        return str(e)


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert_same_columns(got, want)


def load_both(path, text):
    """`load_dataset` of a file holding `text`, and the naive reading of it:
    `dataset_from_dict` of a plain `json.load`."""
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return outcome(lambda: load_dataset(path)), outcome(lambda: dataset_from_dict(obj))


BAG_SHAPED = {"label": 0, "candidate_sets": [[[0.5, 0.25]]]}
BAG_SHAPED_INTS = {"label": 0, "candidate_sets": [[[0, 1]]]}


@st.composite
def dataset_texts(draw):
    """JSON datasets, some valid, some with a wrong value, width or nesting
    in some bags, with or without instance truth."""
    s = draw(st.integers(1, 3))
    wrong = st.one_of(
        st.floats(0, 1), st.floats(allow_nan=True, allow_infinity=True), st.integers(-1, 2),
        st.booleans(), st.none(), st.just("0.5"), st.just(BAG_SHAPED), st.just(BAG_SHAPED_INTS),
    )
    bags, truth = [], []
    for _ in range(draw(st.integers(1, 4))):
        clean = draw(st.booleans())
        value = st.floats(0, 1) | st.sampled_from([0, 1]) if clean else wrong
        width = st.just(s) if clean else st.sampled_from([s, s, s, s - 1, s + 1])
        row = width.flatmap(lambda w: st.lists(value, min_size=w, max_size=w))
        sets = draw(st.lists(st.lists(row, min_size=1, max_size=3), min_size=1, max_size=3))
        label = draw(st.sampled_from([0, 1]) if clean else st.sampled_from([0, 1, 1.0, True, 2]))
        bags.append({"label": label, "candidate_sets": sets})
        bit = st.sampled_from([0, 1]) if clean else st.sampled_from(
            [0, 1, 2, None, BAG_SHAPED, BAG_SHAPED_INTS])
        truth.append([[draw(bit) for _ in rows] for rows in sets])
    obj = {"source_count": s, "bags": bags}
    if draw(st.booleans()):
        obj["instance_truth"] = truth
    return json.dumps(obj)


class TestLoaderOracle:
    """`load_dataset` packs each bag as it is decoded; the naive reading
    decodes the whole tree first. Both give the same columns or the same
    refusal."""

    @given(text=dataset_texts())
    @settings(max_examples=150, deadline=None)
    def test_random_texts(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("oracle") / "data.json"
        assert_same_outcome(*load_both(path, text))

    @pytest.mark.parametrize("text", [
        # ints, booleans, nulls and strings among the values
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0, 1], [0.5, 1]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[true, 0.5]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[null, 0.5]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[["0.5", 0.5]]]}]}',
        # NaN and Infinity tokens
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.5, 0.5]]]},'
        ' {"label": 1, "candidate_sets": [[[0.5, 0.5], [NaN, 0.5]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[Infinity, 0.5]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.5, -Infinity]]]}]}',
        # ragged rows, the wrong width, and two widths in two bags
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.1, 0.2], [0.3]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.1, 0.2, 0.3]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.1, 0.2]]]},'
        ' {"label": 1, "candidate_sets": [[[0.1, 0.2, 0.3]]]}]}',
        # a bag-shaped object under an unknown key, inside a row, in the
        # truth, and as the whole file
        '{"source_count": 2, "extra": {"label": 0, "candidate_sets": [[[0.5, 0.5]]]},'
        ' "bags": [{"label": 0, "candidate_sets": [[[0.5, 0.5]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets":'
        ' [[[0.1, {"label": 0, "candidate_sets": [[[0.5, 0.25]]]}]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.5, 0.5]]]}],'
        ' "instance_truth": [[[{"label": 0, "candidate_sets": [[[0.5]]]}]]]}',
        '{"label": 0, "candidate_sets": [[[0.5, 0.5]]]}',
        # a bag with a field more, duplicate "bags" keys, source_count last
        '{"source_count": 2, "bags": [{"note": "x", "label": 1, "candidate_sets": [[[0.5, 0.5]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.5, 0.5, 0.5]]]}],'
        ' "bags": [{"label": 1, "candidate_sets": [[[0.5, 0.5]]]}]}',
        '{"bags": [{"label": 0, "candidate_sets": [[[0.5, 0.5]], [[0.1, 0.2], [0.3, 0.4]]]}],'
        ' "instance_truth": [[[1], [0, 1]]], "source_count": 2}',
        # sets and rows that are not lists
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[0.5, 0.5]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": {"a": 1}}]}',
        # int rows beside float rows, and int-valued bag-shaped objects
        # inside a row, as a label and in the truth
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0, 1]]]},'
        ' {"label": 1, "candidate_sets": [[[0.5, 2]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets":'
        ' [[[0.1, {"label": 0, "candidate_sets": [[[0, 1]]]}]]]}]}',
        '{"source_count": 2, "bags": [{"label": {"label": 0, "candidate_sets": [[[0, 1]]]},'
        ' "candidate_sets": [[[0.5, 0.5]]]}]}',
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.5, 0.5]]]}],'
        ' "instance_truth": [[[{"label": 0, "candidate_sets": [[[0, 1]]]}]]]}',
        # an integer too large for a float64
        '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0, 1]]]},'
        ' {"label": 1, "candidate_sets": [[[0.5, 1%s]]]}]}' % ("0" * 400),
    ])
    def test_explicit_cases(self, tmp_path, text):
        got, want = load_both(tmp_path / "data.json", text)
        assert_same_outcome(got, want)

    def test_packed_rows_read_back_as_lists_in_diagnostics(self, tmp_path):
        got, _ = load_both(tmp_path / "data.json", (
            '{"source_count": 2, "bags": [{"label": 0, "candidate_sets":'
            ' [[[0.1, {"label": 0, "candidate_sets": [[[0.5, 0.25]]]}]]]}]}'
        ))
        assert got.endswith("got [0.1, {'label': 0, 'candidate_sets': [[[0.5, 0.25]]]}]")

    @pytest.mark.parametrize("row, shown", [
        ("[0, 2]", "[0, 2]"),
        ('[0.1, {"label": 0, "candidate_sets": [[[0, 1]]]}]',
         "[0.1, {'label': 0, 'candidate_sets': [[[0, 1]]]}]"),
    ])
    def test_int_rows_read_as_written_in_diagnostics(self, tmp_path, row, shown):
        got, _ = load_both(tmp_path / "data.json", (
            '{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.5, 0.5]]]},'
            ' {"label": 1, "candidate_sets": [[[0, 1], %s]]}]}' % row
        ))
        assert got == ("bag 1, candidate set 0, instance 1: expected a list of 2 numbers"
                       f" in [0, 1], got {shown}")

    def test_a_drained_pipe_keeps_the_first_refusal(self, tmp_path):
        # /dev/stdin reads once: the plain reading takes the text the window
        # held and words the refusal, naming the same bag, candidate set and
        # instance as for a file
        text = ('{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.5, 0.5]]]},'
                ' {"label": 1, "candidate_sets": [[[0, 1], [0, 2]]]}]}')
        run = subprocess.run(
            [sys.executable, "-m", "bfmfusion.cli", "train", "--data", "/dev/stdin",
             "--mode", "bfm", "--out", str(tmp_path / "result.json")],
            input=text, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert run.returncode == 1
        assert run.stderr.startswith("error: bag 1, candidate set 0, instance 1: expected a list")
        assert run.stderr.count("\n") == 1
        assert not (tmp_path / "result.json").exists()


VALID = ('{"source_count": 2, "bags": [{"label": 0, "candidate_sets": [[[0.5, 0.25]], [[0.1, 1]]]},'
         ' {"label": 1, "candidate_sets": [[[1.0, 0.75], [0, 0.5e-1]]]}],'
         ' "instance_truth": [[[0], [1]], [[1, 0]]]}')

# every token and delimiter of these straddles a window of a few characters
WINDOW_CASES = {
    "valid": VALID,
    "whitespace": VALID.replace(", ", " ,\n\t").replace(": ", "\r\n:  ") + "\n\n",
    "keys_in_any_order": '{"instance_truth": [[[0]], [[1]]], "bags": [{"label": 0,'
                         ' "candidate_sets": [[[0.5, 0.5]]]}, {"label": 1, "candidate_sets":'
                         ' [[[1, 1]]]}], "source_count": 2}',
    "escaped_keys": VALID.replace('"bags"', '"b\\u0061gs"').replace('"label"', '"l\\u0061bel"'),
    "exponents": VALID.replace("0.25", "2.5E-1").replace('"bags"', '"scale": 12e4, "bags"'),
    "float_source_count": VALID.replace('"source_count": 2', '"source_count": 2e0'),
    "duplicate_bags_last_valid": '{"source_count": 2, "bags": [{"label": 0, "candidate_sets":'
                                 ' [[[0.5, 0.5, 0.5]]]}], "bags": [{"label": 1, "candidate_sets":'
                                 ' [[[0.5, 0.5]]]}, {"label": 0, "candidate_sets":'
                                 ' [[[0.1, 0.2]]]}]}',
    "duplicate_bags_last_refused": '{"source_count": 2, "bags": [{"label": 1, "candidate_sets":'
                                   ' [[[0.5, 0.5]]]}], "bags": [{"label": 0, "candidate_sets":'
                                   ' [[[0.5, 0.5, 0.5]]]}]}',
    "extra_keys": '{"source_count": 2, "note": {"a": [1, 2.5e3, "s", null]}, "bags": [{"note": "x",'
                  ' "label": 1, "candidate_sets": [[[0.5, 0.5]]], "more": [1]}, {"label": 0,'
                  ' "candidate_sets": [[[0.1, 0.2]]]}], "instance_truth": null}',
    "bom": "\ufeff" + VALID,
    "trailing_data": VALID + " x",
    "trailing_object": VALID + "{}",
    "trailing_comma": VALID[:-1] + ", }",
    "nan": VALID.replace("0.75", "NaN"),
    "infinity": VALID.replace("0.75", "-Infinity"),
    "truncated_in_a_bag": VALID[:60],
    "truncated_in_a_number": VALID[:VALID.index("0.25") + 3],
    "truncated_before_the_end": VALID[:-1],
    "pipe_input": '{"source_count": 2,\n "bags": [}',
    "empty_bags": '{"source_count": 2, "bags": []}',
    "bags_not_a_list": '{"source_count": 2, "bags": {"label": 0}}',
    "empty_object": "{}",
    "top_level_list": "[" + VALID + "]",
    "top_level_number": "12",
    "key_not_a_string": '{"source_count": 2, 3: 4}',
    "bad_row": VALID.replace("[0, 0.5e-1]", "[0, 2]"),
    "bad_truth": VALID.replace("[[1, 0]]", "[[1, 2]]"),
    "deep_nesting": '{"source_count": 2, "x": ' + "[" * 5000 + "]" * 5000 + "}",
}


def plain_outcome(path):
    """The plain reading's dataset or refusal: `dataset_from_dict` of `_read_json`."""
    return outcome(lambda: dataset_from_dict(data_module._read_json(path)))


def spy_plain_reading(monkeypatch) -> list:
    """The paths `load_dataset` hands to the plain reading, as it does so."""
    paths, read = [], data_module._read_json

    def plain(path, *args):
        paths.append(path)
        return read(path, *args)

    monkeypatch.setattr(data_module, "_read_json", plain)
    return paths


def load_through_pipe(data: bytes) -> tuple:
    """`load_dataset` of a pipe, which reads once, holding a few KiB of
    `data`; and the pipe's path."""
    read, write = os.pipe()
    try:
        os.write(write, data)
        os.close(write)
        pipe = f"/dev/fd/{read}"
        return outcome(lambda: load_dataset(pipe)), pipe
    finally:
        os.close(read)


class TestWindowReader:
    """`load_dataset` reads through a window of `_CHUNK` characters and
    more; shrunk to a few, it still gives exactly the plain reading's
    columns or refusal, from a file and from a pipe, which reads once, and
    takes the plain reading only to refuse."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_file(self, tmp_path, monkeypatch, case, chunk):
        path = tmp_path / "data.json"
        path.write_text(WINDOW_CASES[case], encoding="utf-8")
        want = plain_outcome(path)
        monkeypatch.setattr(data_module, "_CHUNK", chunk)
        plain = spy_plain_reading(monkeypatch)
        assert_same_outcome(outcome(lambda: load_dataset(path)), want)
        assert plain == ([path] if isinstance(want, str) else [])

    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_pipe(self, tmp_path, monkeypatch, case, chunk):
        path = tmp_path / "data.json"
        path.write_text(WINDOW_CASES[case], encoding="utf-8")
        want = plain_outcome(path)
        monkeypatch.setattr(data_module, "_CHUNK", chunk)
        plain = spy_plain_reading(monkeypatch)
        got, pipe = load_through_pipe(path.read_bytes())
        assert_same_outcome(got.replace(pipe, str(path)) if isinstance(got, str) else got, want)
        assert plain == ([pipe] if isinstance(want, str) else [])

    @pytest.mark.parametrize("at", [0, 40])
    def test_bytes_that_are_not_utf8(self, tmp_path, monkeypatch, at):
        path = tmp_path / "data.json"
        path.write_bytes(VALID.encode()[:at] + b"\xff\xfe" + VALID.encode()[at:])
        want = plain_outcome(path)
        assert "codec can't decode byte 0xff in position %d" % at in want
        monkeypatch.setattr(data_module, "_CHUNK", 3)
        assert outcome(lambda: load_dataset(path)) == want
        got, pipe = load_through_pipe(path.read_bytes())
        assert got == want.replace(str(path), pipe)

    def test_a_pipe_places_a_byte_that_is_not_utf8_in_the_input(self, tmp_path):
        # far past the first block that a text reader decodes: a pipe's
        # refusal names the byte's position in the input, as a file's does
        rows = np.random.default_rng(0).random((12000, 2)).round(6).tolist()
        obj = {"source_count": 2, "bags": [{"label": 0, "candidate_sets": [rows]},
                                           {"label": 1, "candidate_sets": [[[0.5, 0.5]]]}]}
        data = json.dumps(obj).encode()
        data = data[:200_000] + b"\xff" + data[200_001:]
        path = tmp_path / "data.json"
        path.write_bytes(data)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "bfmfusion.cli", "train", "--data", source,
                 "--mode", "bfm", "--out", str(tmp_path / "result.json")],
                input=data, capture_output=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            )
            for source in (str(path), "/dev/stdin")
        ]
        for run in runs:
            assert run.returncode == 1
            assert run.stderr.count(b"\n") == 1 and b"Traceback" not in run.stderr
        assert b"can't decode byte 0xff in position 200000" in runs[0].stderr
        assert runs[1].stderr == runs[0].stderr.replace(str(path).encode(), b"/dev/stdin")
        assert not (tmp_path / "result.json").exists()

    def test_one_long_bag_is_read_in_few_steps(self, tmp_path, monkeypatch):
        # the window at least doubles while an item is open, so a bag of
        # over 30k characters read 4 at a time takes tens of reads, not 8k
        rows = np.random.default_rng(0).random((2000, 2)).round(6).tolist()
        obj = {"source_count": 2, "bags": [{"label": 0, "candidate_sets": [rows]},
                                           {"label": 1, "candidate_sets": [[[0.5, 0.5]]]}]}
        path = tmp_path / "data.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert path.stat().st_size > 30_000
        reads, more = [], data_module._Window.more
        monkeypatch.setattr(data_module, "_CHUNK", 4)
        monkeypatch.setattr(data_module._Window, "more", lambda w: reads.append(1) or more(w))
        assert_same_columns(load_dataset(path), dataset_from_dict(obj))
        assert len(reads) < 100

    def test_a_pipe_that_ends_inside_a_list_is_refused_once(self, tmp_path):
        # the refusal of `json.load`, not a reading that never ends
        run = subprocess.run(
            [sys.executable, "-m", "bfmfusion.cli", "train", "--data", "/dev/stdin",
             "--mode", "bfm", "--out", str(tmp_path / "result.json")],
            input=WINDOW_CASES["pipe_input"], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert run.returncode == 1
        assert run.stderr == ("error: /dev/stdin: not valid JSON: Expecting value:"
                              " line 2 column 11 (char 30)\n")


class TestHandMadePacking:
    """`Dataset(...)` builds the loader's columns from its `CandidateSet`
    arrays, with the loader's row check and diagnostics."""

    def test_columns_equal_the_dict_round_trip(self):
        for ds in (small_dataset(), ragged_dataset()):
            assert_same_columns(ds, dataset_from_dict(dataset_to_dict(ds)))

    def test_one_shot_iterator_of_bags(self):
        ds = ragged_dataset()
        truth = dataset_to_dict(ds)["instance_truth"]
        assert_same_columns(
            Dataset(2, (bag for bag in ds.bags), truth), Dataset(2, tuple(ds.bags), truth)
        )

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 1.5]], "bag 1, candidate set 1, instance 0: expected a list of 2 numbers in"
                       " [0, 1], got [0.5, 1.5]"),
        ([[0.5, float("nan")]], "bag 1, candidate set 1, instance 0: expected a list of 2"
                                " numbers in [0, 1], got [0.5, nan]"),
        ([[0.5, 0.5, 0.5]], "bag 1, candidate set 1, instance 0: expected a list of 2"
                            " numbers in [0, 1], got [0.5, 0.5, 0.5]"),
        ([[0.5]], "bag 1, candidate set 1, instance 0: expected a list of 2 numbers in"
                  " [0, 1], got [0.5]"),
        # bool, string and object values are refused before any cast, which
        # would read them as 1.0, 0.5 and nan
        ([[0.3, 0.4], [True, False]], "bag 1, candidate set 1, instance 1: expected a list"
                                      " of 2 numbers in [0, 1], got [True, False]"),
        ([["0.5", "0.25"]], "bag 1, candidate set 1, instance 0: expected a list of 2"
                            " numbers in [0, 1], got ['0.5', '0.25']"),
        ([[0.5, None]], "bag 1, candidate set 1, instance 0: expected a list of 2 numbers in"
                        " [0, 1], got [0.5, None]"),
    ])
    def test_refusals_keep_their_messages(self, rows, message):
        bags = [Bag(0, [[[0.1, 0.2]]]), Bag(1, [[[0.3, 0.4], [0.5, 0.6]], rows])]
        with pytest.raises(ValidationError) as exc:
            Dataset(2, bags)
        assert str(exc.value) == message
        as_lists = [
            {"label": b.label, "candidate_sets": [cs.instances.tolist() for cs in b.candidate_sets]}
            for b in bags
        ]
        with pytest.raises(ValidationError) as exc:
            dataset_from_dict({"source_count": 2, "bags": as_lists})
        assert str(exc.value) == message


    @pytest.mark.parametrize("rows, message", [
        ([[0.1], [0.1, 0.2]], "bag 0, candidate set 0, instance 0: expected a list of 2 numbers"
                              " in [0, 1], got [0.1]"),
        ([[0.1, 0.2], [0.3, [0.4]], [0.5]], "bag 0, candidate set 0, instance 1: expected a"
                                            " list of 2 numbers in [0, 1], got [0.3, [0.4]]"),
    ])
    def test_ragged_rows_are_refused_at_the_first_bad_row(self, rows, message):
        # numpy reads them as a 1-D array of rows, which stays one row an instance
        with pytest.raises(ValidationError) as exc:
            Dataset(2, [Bag(0, [rows]), Bag(1, [[[0.1, 0.2]]])])
        assert str(exc.value) == message
        as_dict = {"source_count": 2, "bags": [{"label": 0, "candidate_sets": [rows]},
                                               {"label": 1, "candidate_sets": [[[0.1, 0.2]]]}]}
        with pytest.raises(ValidationError) as exc:
            dataset_from_dict(as_dict)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rows", [
        [[True, False]], np.array([[True, False]]), [["0.5", "0.25"]], np.array([["0.5", "0.25"]]),
        [[0.5, None]], np.array([[0.5, {}]], dtype=object),
    ], ids=["bool", "bool_array", "string", "string_array", "none", "object_array"])
    def test_values_that_are_not_numbers_are_refused(self, rows):
        with pytest.raises(ValidationError, match="^bag 0, candidate set 0, instance 0: expected"):
            Dataset(2, [Bag(0, [rows]), Bag(1, [[[0.1, 0.2]]])])

    def test_numbers_of_any_int_and_float_type_are_read(self):
        rows = [[0.5, 1], [np.int64(0), np.float32(0.25)]]
        source_0 = from_minimal_coalitions(2, [[0]])
        for given in (rows, np.array(rows, dtype=object)):
            ds = Dataset(2, [Bag(0, [given]), Bag(1, [[[0.1, 0.2]]])])
            assert ds.instance_matrix()[:2].tolist() == [[0.5, 1.0], [0.0, 0.25]]
            assert choquet_batch(given, source_0).tolist() == [0.5, 0.0]
            assert score([row[1] for row in given], [1, 0]) == score([1.0, 0.25], [1, 0])

    def test_an_int_too_large_for_a_float_is_refused_as_the_loader_refuses_it(self):
        rows = [[0.5, 0.5], [10**400, 0.5]]
        message = ("bag 0, candidate set 0, instance 1: expected a list of 2 numbers in [0, 1],"
                   f" got {[10**400, 0.5]!r:.80}")
        with pytest.raises(ValidationError) as exc:
            Dataset(2, [Bag(0, [rows])])
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            dataset_from_dict({"source_count": 2, "bags": [{"label": 0, "candidate_sets": [rows]}]})
        assert str(exc.value) == message


def hand_dataset(rng, s, shapes, truth):
    """Bags of the candidate-set sizes in `shapes`, random rows, and random
    instance truth if `truth`."""
    bags = tuple(Bag(b % 2, [rng.random((n, s)) for n in sizes]) for b, sizes in enumerate(shapes))
    nested = [[rng.integers(0, 2, n).tolist() for n in sizes] for sizes in shapes]
    return Dataset(s, bags, nested if truth else None)


class TestBlockedWriter:
    @pytest.mark.parametrize("truth", [True, False], ids=["truth", "no_truth"])
    @pytest.mark.parametrize("s", [1, 24])
    def test_bytes_equal_one_dumps_across_blocks(self, tmp_path, monkeypatch, s, truth):
        monkeypatch.setattr(data_module, "_WRITE_BLOCK", 48)
        rng = np.random.default_rng(s)
        shapes = [rng.integers(1, 5, int(rng.integers(1, 4))).tolist() for _ in range(30)]
        ds = hand_dataset(rng, s, shapes, truth)
        rows_of_bags = ds.set_offsets[ds.bag_offsets]
        assert len(data_module._bag_blocks(rows_of_bags, max(1, 48 // s))) > 3
        save_dataset(tmp_path / "data.json", ds)
        expected = json.dumps(dataset_to_dict(ds)) + "\n"
        assert (tmp_path / "data.json").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("truth", [True, False], ids=["truth", "no_truth"])
    @pytest.mark.parametrize("s", [1, 24])
    def test_one_bag(self, tmp_path, s, truth):
        ds = hand_dataset(np.random.default_rng(9), s, [[3, 1]], truth)
        save_dataset(tmp_path / "data.json", ds)
        expected = json.dumps(dataset_to_dict(ds)) + "\n"
        assert (tmp_path / "data.json").read_text(encoding="utf-8") == expected
        assert_same_columns(load_dataset(tmp_path / "data.json"), ds)


# a confidence token 0.0 or 1.0 in a written dataset, its integer part captured
WHOLE_FLOATS = re.compile(r"(?<=[\[ ])([01])\.0(?=[,\]])")


class TestBoundedIO:
    """tracemalloc bounds on the JSON I/O at the size of the `pipeline`
    benchmark's dataset: 60k instances at S=8, a 3.7 MiB matrix in an 8.9
    MiB file. Measured with numpy 2.4 and CPython 3.11: save 0.6 MiB (41
    MiB while the whole tree and text were built), load 15.4 MiB, 4.2
    times the matrix (18.2 MiB while the file's bytes and text were held
    at once, 33 MiB while the whole tree was decoded): the packed bags,
    their concatenation and the truth lists, with a window of the text.
    The same file with its 0.0 and 1.0 tokens written 0 and 1 loads in
    15.4 MiB (18.1 MiB while the text was held, 33.3 MiB while bags
    holding ints were not packed), under the float file's bound of 4.75
    times the matrix, 17.3 MiB."""

    @pytest.fixture(scope="class")
    def dataset(self):
        truth = from_minimal_coalitions(8, [{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 6, 7}])
        return generate_synthetic(SynthSpec(8, 4000, 4000, (2, 3), (2, 4), 0.05, truth, 1))

    def test_save_holds_one_block(self, tmp_path, dataset):
        tracemalloc.start()
        try:
            save_dataset(tmp_path / "data.json", dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_load_holds_the_text_and_the_matrix_in_pieces(self, tmp_path, dataset):
        path = tmp_path / "data.json"
        save_dataset(path, dataset)
        tracemalloc.start()
        try:
            back = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.75 * dataset.instance_matrix().nbytes
        assert_same_columns(back, dataset)

    def test_int_tokens_load_in_the_float_files_bound(self, tmp_path, dataset):
        # another writer's 0 and 1 for 0.0 and 1.0: the same bags, packed as
        # they are decoded
        floats, ints = tmp_path / "floats.json", tmp_path / "ints.json"
        save_dataset(floats, dataset)
        text, count = WHOLE_FLOATS.subn(r"\1", floats.read_text(encoding="utf-8"))
        assert count > 10**4
        ints.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            back = load_dataset(ints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.75 * dataset.instance_matrix().nbytes
        assert_same_columns(back, dataset)


class TestSynthSpecValidation:
    def test_bad_counts(self):
        with pytest.raises(ValidationError):
            SynthSpec(3, 0, 5, (2, 3), (2, 4), 0.0, TRUTH3, 1)

    def test_empty_range(self):
        with pytest.raises(ValidationError):
            SynthSpec(3, 5, 5, (3, 2), (2, 4), 0.0, TRUTH3, 1)

    def test_negative_sigma(self):
        with pytest.raises(ValidationError):
            SynthSpec(3, 5, 5, (2, 3), (2, 4), -0.1, TRUTH3, 1)

    def test_truth_source_count_mismatch(self):
        with pytest.raises(ValidationError):
            SynthSpec(4, 5, 5, (2, 3), (2, 4), 0.0, TRUTH3, 1)

    def test_real_truth_measure(self):
        from bfmfusion import sample_random_real

        with pytest.raises(ValidationError, match="BinaryFuzzyMeasure"):
            SynthSpec(3, 5, 5, (2, 3), (2, 4), 0.0, sample_random_real(3, 1), 1)

    def test_invalid_truth_measure(self):
        from bfmfusion import BinaryFuzzyMeasure

        bad = BinaryFuzzyMeasure(2, np.array([0, 1, 0, 0]))
        with pytest.raises(ValidationError):
            SynthSpec(2, 5, 5, (2, 3), (2, 4), 0.0, bad, 1)

    def test_instance_cap(self):
        from bfmfusion import MAX_SYNTH_INSTANCES, CapError

        # the cap counts the upper ends of both ranges: 10 * 2 instances a bag
        bags = MAX_SYNTH_INSTANCES // 20
        SynthSpec(3, bags // 2, bags - bags // 2, (1, 10), (1, 2), 0.0, TRUTH3, 1)
        with pytest.raises(CapError):
            SynthSpec(3, bags // 2, bags - bags // 2 + 1, (1, 10), (1, 2), 0.0, TRUTH3, 1)
        with pytest.raises(CapError):
            SynthSpec(3, 10**18, 1, (1, 1), (1, 1), 0.0, TRUTH3, 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_pos_bags", 2.5),
            ("n_pos_bags", True),
            ("rng_seed", 1.5),
            ("rng_seed", -1),
            ("noise_sigma", "0.1"),
            ("noise_sigma", 10**400),
            ("sets_per_bag", (1.5, 2)),
            ("source_count", True),
        ],
    )
    def test_mistyped_field_refused(self, field, value):
        with pytest.raises(ValidationError, match=field):
            replace(spec3(), **{field: value})

    def test_type_checked_before_cap(self):
        with pytest.raises(ValidationError, match="noise_sigma"):
            replace(spec3(), n_pos_bags=10**18, noise_sigma="0.1")

    def test_numpy_numbers_stored_as_python_numbers(self):
        spec = replace(spec3(), n_pos_bags=np.int64(4), sets_per_bag=(np.int8(1), np.uint16(2)),
                       noise_sigma=np.float32(0.25))
        assert type(spec.n_pos_bags) is int
        assert all(type(x) is int for x in spec.sets_per_bag)
        assert type(spec.noise_sigma) is float and spec.noise_sigma == 0.25
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


class TestGenerator:
    def test_sigma_zero_truth_objective_is_exactly_zero(self):
        for seed in (0, 1, 2, 3, 17):
            ds = generate_synthetic(spec3(seed=seed))
            assert objective(TRUTH3, ds).total == 0.0

    @given(seed=st.integers(0, 10_000), s=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_sigma_zero_exactness_random_truths(self, seed, s):
        truth = sample_random(s, 0.5, seed)
        spec = SynthSpec(s, 4, 4, (2, 3), (2, 3), 0.0, truth, rng_seed=seed)
        assert objective(truth, generate_synthetic(spec)).total == 0.0

    def test_determinism(self):
        a = generate_synthetic(spec3(sigma=0.05))
        b = generate_synthetic(spec3(sigma=0.05))
        assert dataset_to_dict(a) == dataset_to_dict(b)

    def test_structure_respects_spec(self):
        spec = spec3(sigma=0.05, pos=4, neg=7)
        ds = generate_synthetic(spec)
        labels = [bag.label for bag in ds.bags]
        assert labels.count(0) == 7 and labels.count(1) == 4
        for bag in ds.bags:
            assert 2 <= len(bag.candidate_sets) <= 3
            for cs in bag.candidate_sets:
                assert 2 <= cs.instances.shape[0] <= 4
                assert cs.instances.shape[1] == 3
                assert (cs.instances >= 0).all() and (cs.instances <= 1).all()

    def test_extremal_instances_before_noise(self):
        # noise-free: positives reach fused confidence exactly 1 in some set,
        # negatives stay at exactly 0 everywhere
        ds = generate_synthetic(spec3(seed=5))
        for bag in ds.bags:
            per_set = [choquet_batch(cs.instances, TRUTH3) for cs in bag.candidate_sets]
            if bag.label == 1:
                assert max(ci.max() for ci in per_set) == 1.0
            else:
                assert all((ci == 0.0).all() for ci in per_set)

    def test_truth_labels_parallel_structure(self):
        ds = generate_synthetic(spec3(sigma=0.05))
        assert ds.flat_truth().shape == (ds.n_instances,)
        assert set(ds.flat_truth().tolist()) <= {0, 1}
        obj = dataset_to_dict(ds)
        assert len(obj["instance_truth"]) == len(ds.bags)
        for bag, bag_truth in zip(ds.bags, obj["instance_truth"]):
            assert len(bag_truth) == len(bag.candidate_sets)
            for cs, cs_truth in zip(bag.candidate_sets, bag_truth):
                assert len(cs_truth) == cs.instances.shape[0]

    def test_flat_truth_matches_flatten_order(self):
        ds = generate_synthetic(spec3(sigma=0.05))
        flat = ds.flat_truth()
        assert flat.shape == (ds.n_instances,)
        k = 0
        for bag_truth in dataset_to_dict(ds)["instance_truth"]:
            for cs_truth in bag_truth:
                for v in cs_truth:
                    assert flat[k] == v
                    k += 1
        assert k == ds.n_instances

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negative_sets_share_blockers_of_every_coalition(self, seed):
        truth = sample_random(5, 0.3, seed)
        coalitions = [list(c) for c in minimal_winning_coalitions(truth)]
        ds = generate_synthetic(SynthSpec(5, 6, 30, (1, 4), (1, 5), 0.0, truth, rng_seed=seed))
        for bag in ds.bags:
            if bag.label:
                continue
            for cs in bag.candidate_sets:
                zero = cs.instances == 0.0
                assert (zero == zero[0]).all()  # one blocking set per candidate set
                assert all(zero[0, c].any() for c in coalitions)
                rest = cs.instances[~zero]
                assert ((rest >= 0.55) & (rest < 1.0)).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_planted_target_per_positive_bag(self, seed):
        truth = sample_random(5, 0.3, seed)
        indicators = {
            tuple(float(i in c) for i in range(5)) for c in minimal_winning_coalitions(truth)
        }
        ds = generate_synthetic(SynthSpec(5, 30, 30, (1, 4), (1, 5), 0.0, truth, rng_seed=seed))
        for bag in ds.bags:
            rows = np.concatenate([cs.instances for cs in bag.candidate_sets])
            planted = [row for row in map(tuple, rows.tolist()) if row in indicators]
            assert len(planted) == bag.label

    def test_counts_reach_both_ends_of_their_ranges(self):
        ds = generate_synthetic(SynthSpec(3, 1000, 1000, (2, 5), (1, 4), 0.0, TRUTH3, 3))
        sets_per_bag = np.diff(ds.bag_offsets)
        instances_per_set = np.diff(ds.set_offsets)
        assert set(sets_per_bag.tolist()) == {2, 3, 4, 5}
        assert set(instances_per_set.tolist()) == {1, 2, 3, 4}

    @pytest.mark.parametrize("s", [2, 5, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_truth_is_the_fused_confidence_at_or_above_half(self, s, seed):
        # the generator labels rows by which sources reach 0.5; the fused
        # confidence stays the oracle
        truth = sample_random(s, 0.4, [s, seed])
        ds = generate_synthetic(SynthSpec(s, 20, 20, (1, 4), (1, 5), 0.0, truth, rng_seed=seed))
        expected = choquet_batch(ds.instance_matrix(), truth) >= 0.5
        assert ds.flat_truth().dtype == np.int8
        assert np.array_equal(ds.flat_truth(), expected)
        assert 0 < expected.sum() < ds.n_instances

    def test_noise_moves_values(self):
        clean = generate_synthetic(spec3(seed=9))
        noisy = generate_synthetic(spec3(sigma=0.05, seed=9))
        assert not np.allclose(clean.instance_matrix(), noisy.instance_matrix())
        # labels computed pre-noise: identical across the two
        assert np.array_equal(clean.flat_truth(), noisy.flat_truth())


class TestTimingRecipe:
    """Acceptance test 5's datasets. The digests are those of the data the
    retired `bfmfusion bench` recipe generated, so test 5 times the same work."""

    @pytest.mark.parametrize(
        "s, digest",
        [(6, "946c3d7624de8364"), (8, "f5f2e60bc3f6f93a"), (10, "761e2d4d730096fd"),
         (12, "d8fdf7d8eae961a5")],
    )
    def test_same_data_as_the_bench_recipe(self, s, digest):
        ds = generate_synthetic(timing_spec(s))
        h = hashlib.sha256()
        for column in (ds.instance_matrix(), ds.set_offsets, ds.bag_offsets, ds.labels(),
                       ds.flat_truth()):
            h.update(column.tobytes())
        assert h.hexdigest()[:16] == digest

    def test_small_source_counts_terminate(self):
        # S=2 only has two singleton coalitions; the recipe must not demand 3
        spec = timing_spec(2)
        assert minimal_winning_coalitions(spec.truth_measure) == [(0,), (1,)]

    def test_three_coalitions_when_available(self):
        coalitions = minimal_winning_coalitions(timing_spec(6).truth_measure)
        assert len(coalitions) == 3
        assert all(len(c) == 3 for c in coalitions)
