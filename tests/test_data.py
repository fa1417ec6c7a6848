import json
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
    has_both_polarities,
    load_dataset,
    objective,
    sample_random,
    save_dataset,
    spec_from_dict,
    spec_to_dict,
)

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
        assert has_both_polarities(ds)

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

    def test_source_count_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            Dataset(3, (Bag(0, [np.array([[0.1, 0.2]])]),))
        assert "3" in str(exc.value)

    def test_single_polarity_allowed_but_flagged(self):
        ds = Dataset(2, (Bag(0, [np.array([[0.1, 0.2]])]),))
        assert not has_both_polarities(ds)

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

    def test_noise_moves_values(self):
        clean = generate_synthetic(spec3(seed=9))
        noisy = generate_synthetic(spec3(sigma=0.05, seed=9))
        assert not np.allclose(clean.instance_matrix(), noisy.instance_matrix())
        # labels computed pre-noise: identical across the two
        assert np.array_equal(clean.flat_truth(), noisy.flat_truth())
