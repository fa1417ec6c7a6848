import csv
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfmfusion import (
    Bag,
    BinaryFuzzyMeasure,
    Dataset,
    ValidationError,
    from_minimal_coalitions,
    fuse,
    fuse_naive,
    maximum_measure,
    minimum_measure,
    roc_curve,
    score,
)
from bfmfusion.metrics import (
    NAIVE_MODES,
    FusionMap,
    fusion_rows,
    write_fusion_csv,
    write_roc_csv,
)
from oracles import pair_count_auc


def toy_dataset():
    b0 = Bag(0, [np.array([[0.2, 0.9, 0.5], [0.1, 0.4, 0.35]])])
    b1 = Bag(1, [np.array([[0.8, 0.8, 0.8]]), np.array([[0.35, 0.5, 0.2]])])
    truth = (((0, 0),), ((1,), (1,)))
    return Dataset(3, (b0, b1), truth)


def random_scores_truth(rng, n, quantize=False):
    scores = rng.random(n)
    if quantize:
        scores = np.round(scores, 1)  # forces ties
    truth = rng.integers(0, 2, n)
    return scores, truth


class TestFuse:
    def test_min_degeneracy_is_byte_identical(self):
        ds = toy_dataset()
        fused = fuse(ds, minimum_measure(3))
        assert np.array_equal(fused.scores, ds.instance_matrix().min(axis=1))

    def test_max_degeneracy(self):
        ds = toy_dataset()
        fused = fuse(ds, maximum_measure(3))
        np.testing.assert_allclose(fused.scores, ds.instance_matrix().max(axis=1), atol=1e-12)

    def test_learned_style_measure(self):
        ds = toy_dataset()
        g = from_minimal_coalitions(3, [{0, 1}, {0, 2}])
        fused = fuse(ds, g)
        # first instance is the worked h=(0.2, 0.9, 0.5) case
        assert fused.scores[0] == pytest.approx(0.2, abs=1e-12)

    def test_constant_instances_fuse_to_constant(self):
        ds = Dataset(3, (Bag(0, [np.full((4, 3), 0.25)]), Bag(1, [np.full((2, 3), 0.25)])))
        fused = fuse(ds, from_minimal_coalitions(3, [{1}]))
        np.testing.assert_allclose(fused.scores, 0.25, atol=1e-12)

    def test_provenance_and_shape(self):
        ds = toy_dataset()
        fused = fuse(ds, minimum_measure(3))
        assert len(fused) == ds.n_instances
        assert fused.provenance["mode"] == "choquet"
        assert fused.provenance["measure"]["source_count"] == 3
        with pytest.raises(ValueError):
            fused.scores[0] = 0.0  # read-only

    def test_source_count_mismatch(self):
        with pytest.raises(ValidationError, match="sources"):
            fuse(toy_dataset(), minimum_measure(4))

    def test_non_monotone_measure_refused(self):
        # {0} wins but {0, 1} loses
        bad = BinaryFuzzyMeasure(3, [0, 1, 0, 0, 0, 0, 0, 1])
        with pytest.raises(ValidationError, match="measure is invalid"):
            fuse(toy_dataset(), bad)

    def test_short_table_refused(self):
        with pytest.raises(ValidationError, match="values length"):
            fuse(toy_dataset(), BinaryFuzzyMeasure(3, [0, 1]))


class TestFuseNaive:
    def test_min_matches_minimum_measure_exactly(self):
        ds = toy_dataset()
        assert np.array_equal(
            fuse_naive(ds, "min").scores, fuse(ds, minimum_measure(3)).scores
        )

    def test_max_matches_maximum_measure(self):
        ds = toy_dataset()
        np.testing.assert_allclose(
            fuse_naive(ds, "max").scores, fuse(ds, maximum_measure(3)).scores, atol=1e-12
        )

    def test_mean_hand_value(self):
        fused = fuse_naive(toy_dataset(), "mean")
        assert fused.scores[0] == pytest.approx((0.2 + 0.9 + 0.5) / 3, abs=1e-12)

    def test_modes_are_closed(self):
        assert set(NAIVE_MODES) == {"min", "max", "mean"}
        with pytest.raises(ValidationError, match="naive mode"):
            fuse_naive(toy_dataset(), "median")

    def test_provenance_mode(self):
        for mode in NAIVE_MODES:
            assert fuse_naive(toy_dataset(), mode).provenance == {"mode": mode}


class TestRocAuc:
    def test_hand_case(self):
        # 4 pos/neg pairs, 3 ordered correctly, no ties
        report = score(np.array([0.1, 0.4, 0.35, 0.8]), [0, 0, 1, 1])
        assert report.auc == pytest.approx(0.75, abs=1e-12)

    def test_perfect_detector(self):
        report = score(np.array([0.0, 0.0, 1.0, 1.0]), [0, 0, 1, 1])
        assert report.auc == 1.0
        assert report.rmse == 0.0
        assert math.isinf(report.psnr) and report.psnr > 0

    def test_constant_scores_are_chance(self):
        report = score(np.full(6, 0.4), [0, 1, 0, 1, 0, 1])
        assert report.auc == pytest.approx(0.5, abs=1e-12)

    def test_curve_anchors_and_monotonicity(self):
        rng = np.random.default_rng(3)
        scores, truth = random_scores_truth(rng, 50, quantize=True)
        truth[0], truth[1] = 0, 1
        fpr, tpr = roc_curve(scores, truth)
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        assert (np.diff(fpr) >= 0).all()
        assert (np.diff(tpr) >= 0).all()

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 200), ties=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_pair_counting_oracle(self, seed, n, ties):
        rng = np.random.default_rng(seed)
        scores, truth = random_scores_truth(rng, n, quantize=ties)
        assume(truth.min() != truth.max())
        report = score(scores, truth)
        assert report.auc == pytest.approx(pair_count_auc(scores, truth), abs=1e-12)

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 80))
    @settings(max_examples=100, deadline=None)
    def test_increasing_transform_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        scores, truth = random_scores_truth(rng, n, quantize=True)
        assume(truth.min() != truth.max())
        transformed = 0.1 + 0.5 * scores**3  # strictly increasing on [0, 1]
        assert score(transformed, truth).auc == pytest.approx(
            score(scores, truth).auc, abs=1e-12
        )

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 80))
    @settings(max_examples=100, deadline=None)
    def test_label_flip_complement(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(n) / n  # distinct, so no tie credit
        truth = rng.integers(0, 2, n)
        assume(truth.min() != truth.max())
        total = score(scores, truth).auc + score(scores, 1 - truth).auc
        assert total == pytest.approx(1.0, abs=1e-12)


class TestRmsePsnr:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 100))
    @settings(max_examples=100, deadline=None)
    def test_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        scores, truth = random_scores_truth(rng, n)
        report = score(scores, truth)
        assume(report.rmse > 0)
        assert report.psnr == pytest.approx(-20.0 * math.log10(report.rmse), abs=1e-10)

    def test_reference_value(self):
        # one instance, truth 0, score 0.3615 -> rmse exactly 0.3615
        report = score(np.array([0.3615]), [0])
        assert report.rmse == pytest.approx(0.3615, abs=1e-15)
        assert report.psnr == pytest.approx(8.838, abs=5e-3)

    def test_zero_rmse_sentinel(self):
        report = score(np.array([0.0, 1.0]), [0, 1])
        assert report.rmse == 0.0
        assert report.psnr == math.inf


class TestScoreInputs:
    def test_accepts_fusion_map(self):
        ds = toy_dataset()
        fused = fuse_naive(ds, "min")
        by_map = score(fused, ds.flat_truth())
        by_array = score(fused.scores, ds.flat_truth())
        assert by_map == by_array

    def test_single_class_truth(self):
        report = score(np.array([0.2, 0.8]), [1, 1])
        assert report.auc is None
        assert "class 1" in report.auc_error
        assert report.roc_points == ()
        assert report.rmse == pytest.approx(math.sqrt((0.8**2 + 0.2**2) / 2), abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="aligned"):
            score(np.array([0.1, 0.2]), [0])
        with pytest.raises(ValidationError, match="aligned"):
            score(np.array([[0.1], [0.2]]), [0, 1])

    def test_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            score(np.array([]), [])

    def test_nonbinary_truth(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            score(np.array([0.1, 0.2]), [0, 2])


class TestWriters:
    def test_fusion_csv_with_truth(self, tmp_path):
        ds = toy_dataset()
        fused = fuse_naive(ds, "min")
        path = tmp_path / "fusion.csv"
        write_fusion_csv(path, ds, fused)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["bag", "candidate_set", "instance", "score", "truth"]
        assert len(rows) == ds.n_instances + 1
        assert rows[1][:3] == ["0", "0", "0"]
        assert float(rows[1][3]) == pytest.approx(0.2, abs=1e-12)
        assert rows[1][4] == "0"

    def test_fusion_csv_without_truth(self, tmp_path):
        ds = Dataset(3, toy_dataset().bags)
        fused = fuse_naive(ds, "max")
        path = tmp_path / "fusion.csv"
        write_fusion_csv(path, ds, fused)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["bag", "candidate_set", "instance", "score"]

    def test_roc_csv(self, tmp_path):
        report = score(np.array([0.1, 0.4, 0.35, 0.8]), [0, 0, 1, 1])
        path = tmp_path / "roc.csv"
        write_roc_csv(path, report)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["false_positive_rate", "true_positive_rate"]
        assert len(rows) == len(report.roc_points) + 1
        assert [float(v) for v in rows[1]] == [0.0, 0.0]

    def test_score_json_with_infinite_psnr(self):
        report = score(np.array([0.0, 1.0]), [0, 1])
        # strict JSON: no inf literal, and the curve stays out of it
        payload = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["psnr"] is None
        assert payload["psnr_is_infinite"] is True
        assert "roc_points" not in payload

    def test_score_json_finite(self):
        report = score(np.array([0.1, 0.9]), [0, 1])
        payload = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["psnr"] == pytest.approx(report.psnr)
        assert payload["psnr_is_infinite"] is False
        assert payload["auc_error"] is None

    def test_fusion_rows_length_check(self):
        ds = toy_dataset()
        short = FusionMap(np.array([0.1]), {"mode": "min"})
        with pytest.raises(ValidationError, match="scores"):
            list(fusion_rows(ds, short))

    def test_fusion_rows_follow_the_bags(self):
        rng = np.random.default_rng(4)
        shapes = [[2, 1], [1, 3, 2], [3]]
        bags = [Bag(b % 2, [rng.random((n, 2)) for n in sizes]) for b, sizes in enumerate(shapes)]
        ds = Dataset(2, bags)
        fmap = fuse_naive(ds, "max")
        expected = [
            (b, c, i, float(h.max()))
            for b, bag in enumerate(ds.bags)
            for c, cs in enumerate(bag.candidate_sets)
            for i, h in enumerate(cs.instances)
        ]
        assert list(fusion_rows(ds, fmap)) == expected
