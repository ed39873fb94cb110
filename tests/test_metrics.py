import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshcount.density import DensityMap
from meshcount.errors import EmptyInput, ShapeMismatch, TooSmall, ZeroGroundTruth
from meshcount.geometry import Point2, Polygon
from meshcount.metrics import (
    CountPair,
    MatchResult,
    ScoredDetection,
    agreement_filtered_counts,
    box_matcher,
    dataset_pr_curve_and_ap,
    game,
    hungarian,
    mae,
    mare,
    match_boxes,
    match_points,
    mean_ap,
    mean_ap_iou_sweep,
    mse,
    point_matcher,
    pr_curve_and_ap,
    precision_recall_f1,
    rmse,
    ssim,
)

GATE = 1.25


def pairs(*vals):
    return [CountPair(gt=g, pred=p) for g, p in vals]


class TestCountMetrics:
    def test_mae(self):
        assert mae(pairs((5, 5))) == 0.0
        assert mae(pairs((5, 3), (5, 7))) == 2.0
        assert mae(pairs((0, 10))) == 10.0

    def test_mse_rmse(self):
        assert mse(pairs((5, 5))) == 0.0
        assert mse(pairs((5, 3), (5, 7))) == 4.0
        assert rmse(pairs((5, 3), (5, 7))) == 2.0

    def test_rmse_squared_is_mse(self):
        rng = np.random.default_rng(0)
        ps = pairs(*[(float(g), float(p)) for g, p in rng.uniform(0, 50, (20, 2))])
        assert rmse(ps) ** 2 == pytest.approx(mse(ps), rel=1e-12)

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ps = pairs(*[(float(g), float(p)) for g, p in rng.uniform(0, 50, (10, 2))])
            assert rmse(ps) >= mae(ps) - 1e-12

    def test_mare(self):
        assert mare(pairs((10, 9))) == pytest.approx(0.1)
        assert mare(pairs((4, 4), (9, 9))) == 0.0
        with pytest.raises(ZeroGroundTruth):
            mare(pairs((0, 3)))

    def test_empty_inputs(self):
        for fn in (mae, mse, rmse, mare):
            with pytest.raises(EmptyInput):
                fn([])


class TestGame:
    def test_level_zero_equals_mae_exactly(self):
        rng = np.random.default_rng(2)
        preds = [DensityMap(rng.uniform(0, 1, (13, 17))) for _ in range(5)]
        gts = [DensityMap(rng.uniform(0, 1, (13, 17))) for _ in range(5)]
        counts = pairs(
            *[(float(g.values.sum()), float(p.values.sum())) for p, g in zip(preds, gts)]
        )
        assert game(preds, gts, 0) == mae(counts)

    def test_mislocated_quadrants(self):
        gt = np.zeros((8, 8))
        gt[0:4, 0:4] = 0.25  # four objects, all top-left
        pred = np.zeros((8, 8))
        pred[0:4, 4:8] = 0.25  # same mass, all top-right
        g = [DensityMap(gt)]
        p = [DensityMap(pred)]
        assert game(p, g, 0) == pytest.approx(0.0, abs=1e-12)
        assert game(p, g, 1) == pytest.approx(8.0, abs=1e-9)

    def test_identical_maps_zero_for_all_levels(self):
        rng = np.random.default_rng(3)
        m = [DensityMap(rng.uniform(0, 1, (9, 11)))]
        for level in range(4):
            assert game(m, m, level) == 0.0

    def test_monotone_in_level(self):
        rng = np.random.default_rng(4)
        preds = [DensityMap(rng.uniform(0, 1, (16, 16))) for _ in range(3)]
        gts = [DensityMap(rng.uniform(0, 1, (16, 16))) for _ in range(3)]
        vals = [game(preds, gts, level) for level in range(4)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            game([DensityMap.zeros(4, 4)], [DensityMap.zeros(4, 5)], 1)


def ssim_oracle(a, b):
    """Direct sliding-window evaluation with explicit loops."""
    h, w = a.shape
    win, sig = 11, 1.5
    weights = np.zeros((win, win))
    for i in range(win):
        for j in range(win):
            weights[i, j] = math.exp(-((i - 5) ** 2 + (j - 5) ** 2) / (2 * sig**2))
    weights /= weights.sum()
    rng_val = max(a.max(), b.max()) - min(a.min(), b.min())
    if rng_val == 0:
        rng_val = 1.0
    c1, c2 = (0.01 * rng_val) ** 2, (0.03 * rng_val) ** 2
    vals = []
    for r in range(h - win + 1):
        for c in range(w - win + 1):
            xa = a[r : r + win, c : c + win]
            xb = b[r : r + win, c : c + win]
            mu_a = (weights * xa).sum()
            mu_b = (weights * xb).sum()
            va = (weights * xa * xa).sum() - mu_a * mu_a
            vb = (weights * xb * xb).sum() - mu_b * mu_b
            cov = (weights * xa * xb).sum() - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (va + vb + c2))
            )
    return float(np.mean(vals))


class TestSsim:
    def test_identical_maps(self):
        rng = np.random.default_rng(5)
        m = DensityMap(rng.uniform(0, 3, (20, 20)))
        assert ssim(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_dissimilar_below_one(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, (16, 16))
        b = a.max() - a + 0.5
        assert ssim(DensityMap(a), DensityMap(b)) < 1.0

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 2, (18, 15))
        b = rng.uniform(0, 2, (18, 15))
        assert ssim(DensityMap(a), DensityMap(b)) == pytest.approx(
            ssim_oracle(a, b), abs=1e-9
        )

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        a = DensityMap(rng.uniform(0, 1, (14, 14)))
        b = DensityMap(rng.uniform(0, 1, (14, 14)))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            ssim(DensityMap.zeros(8, 20), DensityMap.zeros(8, 20))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ssim(DensityMap.zeros(12, 12), DensityMap.zeros(12, 13))


def det_box(x0, y0, x1, y1, score, cls=0):
    return ScoredDetection(Polygon.box(x0, y0, x1, y1), score, cls)


def det_point(x, y, score, cls=0):
    return ScoredDetection(Point2(x, y), score, cls)


class TestMatchBoxes:
    def test_exact_duplicates_all_tp(self):
        gts = [Polygon.box(0, 0, 2, 2), Polygon.box(5, 5, 8, 7)]
        preds = [det_box(0, 0, 2, 2, 0.9), det_box(5, 5, 8, 7, 0.8)]
        m = match_boxes(preds, gts, 0.5)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)

    def test_no_overlap(self):
        gts = [Polygon.box(0, 0, 1, 1)]
        preds = [det_box(5, 5, 6, 6, 0.9), det_box(8, 8, 9, 9, 0.7)]
        m = match_boxes(preds, gts, 0.5)
        assert (m.tp, m.fp, m.fn) == (0, 2, 1)

    def test_two_preds_one_gt_higher_score_wins(self):
        gt = [Polygon.box(0, 0, 4, 4)]
        strong = det_box(0, 0, 4, 4, 0.9)
        weak = det_box(0.5, 0, 4.5, 4, 0.6)
        for ordering in ([strong, weak], [weak, strong]):
            m = match_boxes(ordering, gt, 0.3)
            assert (m.tp, m.fp, m.fn) == (1, 1, 0)
            winner = ordering.index(strong)
            assert m.pairs[0][0] == winner

    def test_invariants(self):
        gts = [Polygon.box(0, 0, 2, 2), Polygon.box(3, 3, 5, 5), Polygon.box(7, 0, 9, 2)]
        preds = [det_box(0, 0, 2, 2, 0.8), det_box(3.2, 3, 5.2, 5, 0.7), det_box(20, 20, 21, 21, 0.6)]
        m = match_boxes(preds, gts, 0.5)
        assert m.tp + m.fp == len(preds)
        assert m.tp + m.fn == len(gts)
        assert m.tp == len(m.pairs)


def bruteforce_point_match(pred_pts, gt_pts, radius):
    """Minimum assignment by exhaustive enumeration, gating included.

    Minimizes (number of gated pairs, real cost) lexicographically, which is
    what an infinite gating cost means.
    """
    np_, ng = len(pred_pts), len(gt_pts)
    k = min(np_, ng)
    best = None
    for gt_subset in itertools.permutations(range(ng), k):
        for pred_subset in itertools.combinations(range(np_), k):
            gated = 0
            cost = 0.0
            for i, j in zip(pred_subset, gt_subset):
                d = math.dist(pred_pts[i], gt_pts[j])
                if d > GATE * radius:
                    gated += 1
                else:
                    cost += d
            key = (gated, cost)
            if best is None or key < best:
                best = key
    return best


class TestMatchPoints:
    def test_identical_points_all_tp_cost_zero(self):
        gts = [Point2(1, 1), Point2(5, 5), Point2(9, 2)]
        preds = [det_point(1, 1, 0.9), det_point(5, 5, 0.8), det_point(9, 2, 0.7)]
        m = match_points(preds, gts, radius=2.0)
        assert (m.tp, m.fp, m.fn) == (3, 0, 0)
        assert all(c == 0.0 for _, _, c in m.pairs)

    def test_crossing_beats_greedy(self):
        # greedy would pair pred0 with gt1 (dist 1) forcing pred1 to gt0 (dist 9)
        gts = [Point2(0, 0), Point2(4, 0)]
        preds = [det_point(3, 0, 0.9), det_point(5, 0, 0.8)]
        m = match_points(preds, gts, radius=8.0)
        total = sum(c for _, _, c in m.pairs)
        greedy_total = 1.0 + 5.0
        assert m.tp == 2
        assert total <= greedy_total
        gated, best_cost = bruteforce_point_match([(3, 0), (5, 0)], [(0, 0), (4, 0)], 8.0)
        assert gated == 0
        assert total == pytest.approx(best_cost)

    def test_all_beyond_gate(self):
        gts = [Point2(0, 0), Point2(1, 0)]
        preds = [det_point(50, 50, 0.9), det_point(60, 60, 0.8)]
        m = match_points(preds, gts, radius=1.0)
        assert (m.tp, m.fp, m.fn) == (0, 2, 2)

    def test_matches_bruteforce_on_small_instances(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            np_ = int(rng.integers(1, 7))
            ng = int(rng.integers(1, 7))
            pred_pts = [tuple(p) for p in rng.uniform(0, 10, (np_, 2))]
            gt_pts = [tuple(p) for p in rng.uniform(0, 10, (ng, 2))]
            radius = float(rng.uniform(0.5, 4.0))
            m = match_points(
                [det_point(x, y, 0.5) for x, y in pred_pts],
                [Point2(x, y) for x, y in gt_pts],
                radius,
            )
            total = sum(c for _, _, c in m.pairs)
            n_gated = min(np_, ng) - m.tp
            assert (n_gated, pytest.approx(total)) == bruteforce_point_match(
                pred_pts, gt_pts, radius
            )


class TestPrecisionRecallF1:
    def test_hand_case(self):
        m = MatchResult(tp=8, fp=2, fn=2, pairs=tuple((i, i, 0.0) for i in range(8)))
        assert precision_recall_f1(m) == pytest.approx((0.8, 0.8, 0.8))

    def test_all_empty_zero_convention(self):
        assert precision_recall_f1(MatchResult(0, 0, 0, ())) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        m = MatchResult(tp=4, fp=0, fn=0, pairs=tuple((i, i, 0.0) for i in range(4)))
        assert precision_recall_f1(m) == (1.0, 1.0, 1.0)


def ap_oracle(preds, gts, matcher):
    """Independent AP: enumerate thresholds, then integrate the envelope."""
    points = []
    for t in sorted({p.score for p in preds}, reverse=True):
        kept = [p for p in preds if p.score >= t]
        m = matcher(kept, gts)
        prec = m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
        rec = m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
        points.append((rec, prec))
    ap = 0.0
    prev = 0.0
    for r in sorted({r for r, _ in points if r > 0}):
        ap += (r - prev) * max(p for rr, p in points if rr >= r)
        prev = r
    return ap


class TestAveragePrecision:
    def test_single_perfect_prediction(self):
        gts = [Polygon.box(0, 0, 2, 2)]
        _, ap = pr_curve_and_ap([det_box(0, 0, 2, 2, 0.9)], gts, box_matcher(0.5))
        assert ap == 1.0

    def test_all_wrong(self):
        gts = [Polygon.box(0, 0, 2, 2)]
        preds = [det_box(10, 10, 12, 12, 0.9), det_box(20, 20, 22, 22, 0.4)]
        _, ap = pr_curve_and_ap(preds, gts, box_matcher(0.5))
        assert ap == 0.0

    def test_five_prediction_hand_case_matches_oracle(self):
        gts = [Polygon.box(0, 0, 2, 2), Polygon.box(4, 4, 6, 6), Polygon.box(8, 0, 10, 2)]
        preds = [
            det_box(0, 0, 2, 2, 0.95),        # hit
            det_box(12, 12, 14, 14, 0.9),     # miss
            det_box(4, 4, 6, 6, 0.7),         # hit
            det_box(8.4, 0, 10.4, 2, 0.6),    # hit (partial overlap)
            det_box(20, 0, 22, 2, 0.3),       # miss
        ]
        curve, ap = pr_curve_and_ap(preds, gts, box_matcher(0.5))
        assert ap == pytest.approx(ap_oracle(preds, gts, box_matcher(0.5)), abs=1e-12)
        assert len(curve) == 5

    def test_invariant_under_monotone_score_transform(self):
        gts = [Point2(0, 0), Point2(5, 5), Point2(9, 9)]
        preds = [det_point(0, 0, 0.9), det_point(5.2, 5, 0.5), det_point(20, 20, 0.45)]
        _, ap1 = pr_curve_and_ap(preds, gts, point_matcher(1.0))
        squashed = [
            ScoredDetection(p.shape, p.score**3, p.class_id) for p in preds
        ]
        _, ap2 = pr_curve_and_ap(squashed, gts, point_matcher(1.0))
        assert ap1 == pytest.approx(ap2, abs=1e-12)


def pooled_oracle(groups, matcher):
    """Threshold enumeration: match every image again at every distinct score."""
    thresholds = sorted({p.score for preds, _ in groups for p in preds}, reverse=True)
    curve = []
    counts = (0, 0, sum(len(gts) for _, gts in groups))
    for t in thresholds:
        ms = [matcher([p for p in preds if p.score >= t], gts) for preds, gts in groups]
        counts = tp, fp, fn = tuple(sum(getattr(m, k) for m in ms) for k in ("tp", "fp", "fn"))
        curve.append((tp / (tp + fn) if tp + fn else 0.0, tp / (tp + fp) if tp + fp else 0.0))
    ap = 0.0
    prev = 0.0
    for r in sorted({r for r, _ in curve if r > 0}):
        ap += (r - prev) * max(p for rr, p in curve if rr >= r)
        prev = r
    return curve, ap, counts


SCORES = st.sampled_from([0.25, 0.5, 0.75, 1.0])  # few values, so scores tie
COORD = st.integers(0, 24).map(lambda v: v / 2.0)


@st.composite
def detection_groups(draw, mode):
    """Per-image (preds, gts) on a coarse grid: overlaps, ties and empty images."""
    def shape(x, y):
        if mode == "point":
            return Point2(x, y)
        return Polygon.box(x, y, x + draw(st.integers(1, 4)), y + draw(st.integers(1, 4)))

    groups = []
    for _ in range(draw(st.integers(1, 4))):
        gts = [shape(draw(COORD), draw(COORD)) for _ in range(draw(st.integers(0, 5)))]
        preds = [
            ScoredDetection(shape(draw(COORD), draw(COORD)), draw(SCORES))
            for _ in range(draw(st.integers(0, 6)))
        ]
        groups.append((preds, gts))
    return groups


class TestDatasetAp:
    @settings(max_examples=150, deadline=None)
    @given(detection_groups("box"), st.sampled_from([0.1, 0.3, 0.5]))
    def test_boxes_equal_threshold_enumeration(self, groups, t):
        got = dataset_pr_curve_and_ap(groups, box_matcher(t))
        assert got == pooled_oracle(groups, box_matcher(t))

    @settings(max_examples=150, deadline=None)
    @given(detection_groups("point"), st.sampled_from([0.5, 1.0, 2.0]))
    def test_points_equal_threshold_enumeration(self, groups, radius):
        got = dataset_pr_curve_and_ap(groups, point_matcher(radius))
        assert got == pooled_oracle(groups, point_matcher(radius))

    @settings(max_examples=150, deadline=None)
    @given(detection_groups("point"), st.sampled_from([0.5, 1.0, 2.0]))
    def test_point_prefix_hits_equal_hungarian(self, groups, radius):
        for preds, gts in groups:
            ranked = sorted(preds, key=lambda p: -p.score)
            hits = point_matcher(radius).hits(ranked, gts)
            for k in range(len(ranked) + 1):
                assert sum(hits[:k]) == match_points(ranked[:k], gts, radius).tp

    def test_single_image_call_is_pr_curve_and_ap(self):
        gts = [Polygon.box(0, 0, 2, 2), Polygon.box(4, 4, 6, 6)]
        preds = [det_box(0, 0, 2, 2, 0.9), det_box(9, 9, 11, 11, 0.9), det_box(4, 4, 6, 6, 0.2)]
        curve, ap, counts = dataset_pr_curve_and_ap([(preds, gts)], box_matcher(0.5))
        assert pr_curve_and_ap(preds, gts, box_matcher(0.5)) == (curve, ap)
        assert counts == (2, 1, 0)

    def test_tied_scores_rank_by_index(self):
        # whichever of the tied boxes goes first decides whether both match
        gts = [Polygon.box(0, 0, 4, 4), Polygon.box(2, 0, 6, 4)]
        a, b = det_box(0, 0, 4, 4, 0.5), det_box(-1, 0, 3, 4, 0.5)
        for preds, want in (([a, b], [(0.5, 0.5)]), ([b, a], [(1.0, 1.0)])):
            curve, _, _ = dataset_pr_curve_and_ap([(preds, gts)], box_matcher(0.3))
            assert curve == want == pooled_oracle([(preds, gts)], box_matcher(0.3))[0]

    def test_long_augmenting_path_needs_no_recursion(self):
        # prediction i sits between truths i - 1 and i; the lowest-scored one
        # reaches only truth 0, so its augmenting path crosses every pair
        n = 2000
        gts = [Point2(float(i), 0.0) for i in range(n)]
        preds = [det_point(i - 0.5, 0.0, 1.0 - i / (2 * n)) for i in range(1, n)]
        preds.append(det_point(-0.5, 0.0, 0.1))
        hits = point_matcher(0.5).hits(preds, gts)
        assert hits == [True] * n


class TestMeanAp:
    def test_identity_and_mean(self):
        assert mean_ap([0.7]) == 0.7
        assert mean_ap([1.0, 0.0]) == 0.5
        with pytest.raises(EmptyInput):
            mean_ap([])

    def test_sweep_over_identical_thresholds(self):
        gts = {0: [Polygon.box(0, 0, 2, 2)]}
        preds = [det_box(0, 0, 2, 2, 0.9)]
        single = mean_ap_iou_sweep(preds, gts, [0.5])
        repeated = mean_ap_iou_sweep(preds, gts, [0.5, 0.5, 0.5])
        assert single == repeated


class TestAgreementFiltering:
    def test_min_agreement_one_includes_everything(self):
        cp = agreement_filtered_counts([0.9, 0.2], [1, 3, 7], k=7, min_agreement=1)
        assert cp.gt == 3.0

    def test_above_k_rejected(self):
        with pytest.raises(ValueError):
            agreement_filtered_counts([], [1, 2], k=7, min_agreement=8)

    def test_matches_bruteforce_filter(self):
        rng = np.random.default_rng(10)
        agreements = [int(a) for a in rng.integers(0, 8, 40)]
        scores = [float(s) for s in rng.uniform(0, 1, 25)]
        for min_a in (1, 4, 5, 7):
            cp = agreement_filtered_counts(
                scores, agreements, k=7, min_agreement=min_a, score_threshold=0.5
            )
            assert cp.gt == sum(1 for a in agreements if a >= min_a)
            assert cp.pred == sum(1 for s in scores if s >= 0.5)


class TestHungarianCore:
    def test_matches_permutation_minimum_square(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            cost = rng.uniform(0, 10, (n, n))
            assignment = hungarian(cost)
            total = sum(cost[r, c] for r, c in enumerate(assignment))
            best = min(
                sum(cost[r, perm[r]] for r in range(n))
                for perm in itertools.permutations(range(n))
            )
            assert total == pytest.approx(best, abs=1e-9)

    def test_rectangular(self):
        cost = np.array([[5.0, 1.0, 3.0], [2.0, 4.0, 6.0]])
        assignment = hungarian(cost)
        assert sorted(assignment) == sorted(set(assignment))  # distinct columns
        total = sum(cost[r, c] for r, c in enumerate(assignment))
        assert total == pytest.approx(3.0)
