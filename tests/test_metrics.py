import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfmfusion import (
    Bag,
    BinaryFuzzyMeasure,
    Dataset,
    ValidationError,
    choquet_maxmin,
    from_minimal_coalitions,
    fuse,
    fuse_naive,
    maximum_measure,
    minimum_measure,
    roc_curve,
    score,
)
import bfmfusion.metrics
from bfmfusion.choquet import _blocks
from bfmfusion.metrics import (
    NAIVE_MODES,
    FusionMap,
    ScoreReport,
    write_fusion_csv,
    write_roc_csv,
)
from oracles import naive_fusion_csv, naive_roc_csv, pair_count_auc


def toy_dataset():
    b0 = Bag(0, [np.array([[0.2, 0.9, 0.5], [0.1, 0.4, 0.35]])])
    b1 = Bag(1, [np.array([[0.8, 0.8, 0.8]]), np.array([[0.35, 0.5, 0.2]])])
    truth = (((0, 0),), ((1,), (1,)))
    return Dataset(3, (b0, b1), truth)


def dataset_of(rng, n, with_truth=True):
    """A 3-source dataset of exactly n instances, in sets of 1-3 rows and bags
    of 1-3 sets, with random instance truth when asked."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 4)), n - sum(sizes)))
    per_bag = []
    while sum(per_bag) < len(sizes):
        per_bag.append(min(int(rng.integers(1, 4)), len(sizes) - sum(per_bag)))
    nested, k = [], 0
    for m in per_bag:
        nested.append(sizes[k:k + m])
        k += m
    bags = [Bag(b % 2, [rng.random((size, 3)) for size in bag]) for b, bag in enumerate(nested)]
    truth = [[rng.integers(0, 2, size).tolist() for size in bag] for bag in nested]
    return Dataset(3, bags, truth if with_truth else None)


def small_blocks(monkeypatch, rows):
    """Make the writers' blocks `rows` rows long; returns the list of the
    block counts each call of `_blocks` made."""
    counts = []

    def blocks(n, per_item):
        out = _blocks(n, per_item, budget=rows * per_item)
        counts.append(len(out))
        return out

    monkeypatch.setattr(bfmfusion.metrics, "_blocks", blocks)
    return counts


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

    def test_fusion_map_leaves_the_callers_array_writable(self):
        s = np.array([0.1, 0.2])
        fused = FusionMap(s, {"mode": "min"})
        s[0] = 0.5
        assert fused.scores[0] == 0.5  # a view: nothing was copied
        with pytest.raises(ValueError):
            fused.scores[0] = 0.0

    def test_binary_fusion_is_maxmin_exactly(self):
        # levels spread across several binades, where a sum would round
        rng = np.random.default_rng(6)
        ds = Dataset(3, (Bag(0, [rng.random((20, 3)) ** 4]), Bag(1, [rng.random((20, 3)) ** 4])))
        g = from_minimal_coalitions(3, [{0, 1}, {2}])
        expected = [choquet_maxmin(h, g) for h in ds.instance_matrix()]
        assert [float(v) for v in fuse(ds, g).scores] == expected

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

    @pytest.mark.parametrize("tied", [[np.inf, np.inf, 0.5], [0.5, -np.inf, -np.inf]])
    def test_tied_infinite_scores_are_refused(self, tied):
        truth = np.array([1, 0, 1])
        # tied finite scores make one step
        assert roc_curve(np.array([0.9, 0.9, 0.5]), truth)[1].tolist() == [0.0, 0.5, 1.0]
        # np.diff of tied infinities is NaN, which would split them into two steps
        with pytest.raises(ValidationError, match=f"scores must be finite, got {tied[1]}"):
            roc_curve(np.array(tied), truth)

    @pytest.mark.parametrize("at", [0, 2])
    def test_nan_scores_are_refused(self, at):
        # NaN would otherwise sort first, as the highest threshold
        scores = np.array([0.2, 0.7, 0.4])
        scores[at] = np.nan
        with pytest.raises(ValidationError, match="scores must be finite, got nan"):
            roc_curve(scores, np.array([0, 1, 1]))

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_lists_and_tuples_are_read_as_score_reads_them(self, kind):
        scores, truth = [0.9, 0.5, 0.5, 0.1], [1, 0, 1, 0]
        expected = roc_curve(np.array(scores), np.array(truth))
        report = score(kind(scores), kind(truth))
        for args in [
            (kind(scores), kind(truth)),
            (np.array(scores), kind(truth)),
            (kind(scores), np.array(truth)),
        ]:
            for got, kept, want in zip(roc_curve(*args), (report.fpr, report.tpr), expected):
                assert got.dtype == np.float64
                assert np.array_equal(got, want) and np.array_equal(kept, want)

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_a_list_holding_inf_is_refused(self, kind):
        with pytest.raises(ValidationError, match="scores must be finite, got inf"):
            roc_curve(kind([0.5, np.inf, 0.2]), kind([1, 0, 1]))

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
        assert report.fpr.size == report.tpr.size == 0
        assert report.rmse == pytest.approx(math.sqrt((0.8**2 + 0.2**2) / 2), abs=1e-15)

    @pytest.mark.parametrize("only", [0, 1])
    def test_single_class_truth_has_an_empty_curve(self, only):
        report = score(np.array([0.2, 0.8, 0.5]), np.full(3, only, dtype=np.int8))
        for curve in (report.fpr, report.tpr):
            assert curve.dtype == np.float64 and curve.shape == (0,)
        assert report.auc_error == f"AUC undefined: truth contains only class {only}"

    def test_the_curve_is_roc_curves_arrays_read_only(self):
        rng = np.random.default_rng(7)
        scores, truth = rng.random(300).round(2), rng.integers(0, 2, 300)
        report = score(scores, truth)
        for kept, expected in zip((report.fpr, report.tpr), roc_curve(scores, truth)):
            assert kept.dtype == np.float64 and np.array_equal(kept, expected)
            with pytest.raises(ValueError):
                kept[0] = 0.5

    def test_a_report_leaves_the_callers_curve_writable(self):
        fpr, tpr = np.array([0.0, 1.0]), np.array([0.0, 1.0])
        report = ScoreReport(0.5, 0.5, 6.0, fpr, tpr)
        fpr[0] = 0.25
        assert report.fpr[0] == 0.25  # a view: nothing was copied
        with pytest.raises(ValueError):
            report.tpr[0] = 0.5

    def test_equality_covers_the_curve(self):
        report = score(np.array([0.1, 0.4, 0.35, 0.8]), [0, 0, 1, 1])
        twin = replace(report, fpr=report.fpr.copy(), tpr=report.tpr.copy())
        assert twin == report
        tpr = report.tpr.copy()
        tpr[1] = 0.25  # another curve, every other field the same
        assert replace(report, tpr=tpr) != report
        assert replace(report, fpr=report.fpr[:-1], tpr=report.tpr[:-1]) != report
        assert replace(report, auc_error="x") != report
        assert report != report.to_json_dict()

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="aligned"):
            score(np.array([0.1, 0.2]), [0])
        with pytest.raises(ValidationError, match="aligned"):
            score(np.array([[0.1], [0.2]]), [0, 1])

    def test_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            score(np.array([]), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores(self, bad):
        # NaN would otherwise read as AUC 0 and an "infinite" PSNR
        with pytest.raises(ValidationError, match="finite"):
            score([bad, 0.5], [1, 0])

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
        assert len(rows) == len(report.fpr) + 1 == len(report.tpr) + 1
        assert [float(v) for v in rows[1]] == [0.0, 0.0]

    def test_score_json_with_infinite_psnr(self):
        report = score(np.array([0.0, 1.0]), [0, 1])
        # strict JSON: no inf literal, and the curve stays out of it
        payload = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["psnr"] is None
        assert payload["psnr_is_infinite"] is True
        assert not {"fpr", "tpr"} & payload.keys()

    def test_score_json_finite(self):
        report = score(np.array([0.1, 0.9]), [0, 1])
        payload = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["psnr"] == pytest.approx(report.psnr)
        assert payload["psnr_is_infinite"] is False
        assert payload["auc_error"] is None

    def test_fusion_csv_refuses_a_short_map(self, tmp_path):
        ds = toy_dataset()
        short = FusionMap(np.array([0.1]), {"mode": "min"})
        with pytest.raises(ValidationError, match="1 scores, dataset has 4 instances"):
            write_fusion_csv(tmp_path / "fusion.csv", ds, short)

    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("mode", ["choquet", *NAIVE_MODES])
    def test_fusion_csv_matches_the_naive_writer(self, tmp_path, with_truth, mode):
        ds = dataset_of(np.random.default_rng(11), 300, with_truth)
        fmap = (
            fuse(ds, from_minimal_coalitions(3, [{0, 1}, {2}])) if mode == "choquet"
            else fuse_naive(ds, mode)
        )
        write_fusion_csv(tmp_path / "fast.csv", ds, fmap)
        naive_fusion_csv(tmp_path / "naive.csv", ds, fmap.scores)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()

    @pytest.mark.parametrize("n", [3 * 4 - 1, 3 * 4, 3 * 4 + 1])
    @pytest.mark.parametrize("with_truth", [True, False])
    def test_fusion_csv_across_block_edges(self, tmp_path, monkeypatch, n, with_truth):
        counts = small_blocks(monkeypatch, 4)
        ds = dataset_of(np.random.default_rng(n), n, with_truth)
        fmap = fuse_naive(ds, "mean")
        write_fusion_csv(tmp_path / "fast.csv", ds, fmap)
        naive_fusion_csv(tmp_path / "naive.csv", ds, fmap.scores)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()
        assert counts == [-(-n // 4)]

    @pytest.mark.parametrize("ties", [False, True])
    def test_roc_csv_matches_the_naive_writer(self, tmp_path, ties):
        rng = np.random.default_rng(12)
        scores, truth = random_scores_truth(rng, 2000, quantize=ties)
        report = score(scores ** 5, truth)  # levels across many binades
        write_roc_csv(tmp_path / "fast.csv", report)
        naive_roc_csv(tmp_path / "naive.csv", *roc_curve(scores ** 5, truth))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()

    @pytest.mark.parametrize("only", [0, 1])
    def test_roc_csv_of_single_class_truth_is_the_header(self, tmp_path, only):
        report = score(np.array([0.2, 0.8, 0.5]), [only] * 3)
        write_roc_csv(tmp_path / "fast.csv", report)
        naive_roc_csv(tmp_path / "naive.csv", [], [])
        expected = b"false_positive_rate,true_positive_rate\r\n"
        assert (tmp_path / "fast.csv").read_bytes() == expected
        assert (tmp_path / "naive.csv").read_bytes() == expected

    @pytest.mark.parametrize("n", [3 * 4 - 1, 3 * 4, 3 * 4 + 1])
    def test_roc_csv_across_block_edges(self, tmp_path, monkeypatch, n):
        counts = small_blocks(monkeypatch, 4)
        # n - 1 distinct scores, one each side of a class: a curve of n points
        scores = np.arange(n - 1) / (n - 1)
        report = score(scores, np.arange(n - 1) % 2)
        assert len(report.fpr) == n
        write_roc_csv(tmp_path / "fast.csv", report)
        naive_roc_csv(tmp_path / "naive.csv", report.fpr, report.tpr)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()
        assert counts == [-(-n // 4)]

    def test_fusion_csv_follows_the_bags(self, tmp_path):
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
        write_fusion_csv(tmp_path / "fusion.csv", ds, fmap)
        rows = list(csv.reader((tmp_path / "fusion.csv").read_text().splitlines()))[1:]
        assert [(int(b), int(c), int(i), float(v)) for b, c, i, v in rows] == expected
