"""Counting and detection evaluation: MAE/MSE/RMSE/MARE, GAME, SSIM,
box and point matching, precision/recall, AP, and agreement filtering."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .density import DensityMap
from .errors import EmptyInput, ShapeMismatch, TooSmall, ZeroGroundTruth
from .geometry import Point2, Polygon, _pairwise_distances, iou as polygon_iou

HUNGARIAN_SENTINEL = 1e18  # stands in for an infinite gating cost
GATE_FACTOR = 1.25  # matches farther than this times the radius never pair


@dataclass(frozen=True)
class CountPair:
    gt: float
    pred: float

    def __post_init__(self):
        if not (math.isfinite(self.gt) and math.isfinite(self.pred)):
            raise ValueError("counts must be finite")
        if self.gt < 0 or self.pred < 0:
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class ScoredDetection:
    """A detection: polygon or point geometry plus a confidence score."""

    shape: object  # Polygon or Point2
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not isinstance(self.shape, (Polygon, Point2)):
            raise ValueError("shape must be a Polygon or Point2")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")
        if self.class_id < 0:
            raise ValueError("class_id must be >= 0")


class MatchCounts(NamedTuple):
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int
    pairs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.tp != len(self.pairs):
            raise ValueError("tp must equal the number of matched pairs")


# -- count metrics -------------------------------------------------------------


def _require_pairs(pairs):
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no count pairs")
    return pairs


def mae(pairs) -> float:
    pairs = _require_pairs(pairs)
    return float(np.mean([abs(p.gt - p.pred) for p in pairs]))


def mse(pairs) -> float:
    pairs = _require_pairs(pairs)
    return float(np.mean([(p.gt - p.pred) ** 2 for p in pairs]))


def rmse(pairs) -> float:
    return math.sqrt(mse(pairs))


def mare(pairs) -> float:
    """Mean absolute relative error; undefined when any ground truth is 0."""
    pairs = _require_pairs(pairs)
    if any(p.gt == 0 for p in pairs):
        raise ZeroGroundTruth("MARE divides by the ground-truth count")
    return float(np.mean([abs(p.gt - p.pred) / p.gt for p in pairs]))


def _game_region(pred: np.ndarray, gt: np.ndarray, level: int) -> float:
    if level == 0:
        return abs(float(pred.sum()) - float(gt.sum()))
    h2 = (pred.shape[0] + 1) // 2  # odd dimensions: first half gets the extra row
    w2 = (pred.shape[1] + 1) // 2
    total = 0.0
    for rs, cs in ((slice(0, h2), slice(0, w2)), (slice(0, h2), slice(w2, None)),
                   (slice(h2, None), slice(0, w2)), (slice(h2, None), slice(w2, None))):
        total += _game_region(pred[rs, cs], gt[rs, cs], level - 1)
    return total


def game(pred_maps, gt_maps, level: int) -> float:
    """Grid Average Mean absolute Error over 4^level sub-regions per image.

    At level 0 this reduces exactly to the MAE of the integrated counts.
    """
    pred_maps, gt_maps = list(pred_maps), list(gt_maps)
    if not pred_maps:
        raise EmptyInput("no maps")
    if len(pred_maps) != len(gt_maps):
        raise ShapeMismatch("prediction and ground-truth lists differ in length")
    if level < 0:
        raise ValueError("level must be >= 0")
    per_image = []
    for p, g in zip(pred_maps, gt_maps):
        if p.values.shape != g.values.shape:
            raise ShapeMismatch(f"{p.values.shape} vs {g.values.shape}")
        per_image.append(_game_region(p.values, g.values, level))
    return float(np.mean(per_image))


# -- SSIM ----------------------------------------------------------------------

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5


def _ssim_kernel() -> np.ndarray:
    """The normalised 1-D Gaussian; its outer product is the 2-D window."""
    half = _SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1, dtype=float) ** 2 / (2.0 * _SSIM_SIGMA**2))
    return g / g.sum()


def _windowed_mean(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean of every full window: one pass per axis."""
    rows = np.lib.stride_tricks.sliding_window_view(x, _SSIM_WINDOW, axis=0) @ g
    return np.lib.stride_tricks.sliding_window_view(rows, _SSIM_WINDOW, axis=1) @ g


def ssim(a: DensityMap, b: DensityMap) -> float:
    """Mean local structural similarity with an 11x11 Gaussian window.

    The dynamic range is taken from the data (max minus min over both maps,
    1 when the maps are constant), since density maps are not 8-bit images.
    """
    if a.values.shape != b.values.shape:
        raise ShapeMismatch(f"{a.values.shape} vs {b.values.shape}")
    if min(a.values.shape) < _SSIM_WINDOW:
        raise TooSmall(f"maps must be at least {_SSIM_WINDOW} pixels per side")
    x, y = a.values, b.values
    rng = float(max(x.max(), y.max()) - min(x.min(), y.min()))
    if rng == 0.0:
        rng = 1.0
    c1 = (0.01 * rng) ** 2
    c2 = (0.03 * rng) ** 2
    g = _ssim_kernel()
    mu_x = _windowed_mean(x, g)
    mu_y = _windowed_mean(y, g)
    var_x = _windowed_mean(x * x, g) - mu_x * mu_x
    var_y = _windowed_mean(y * y, g) - mu_y * mu_y
    cov = _windowed_mean(x * y, g) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


# -- matching ------------------------------------------------------------------


def match_boxes(preds, gts, iou_threshold: float) -> MatchResult:
    """Greedy matching in descending score order against unmatched truths.

    Each prediction claims the free ground truth of highest IoU when that
    IoU reaches the threshold; everything left over is FP or FN. Pairs carry
    the winning IoU.
    """
    preds, gts = list(preds), list(gts)
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must lie in (0, 1]")
    if not all(isinstance(d.shape, Polygon) for d in preds):
        raise ValueError("box matching needs Polygon prediction shapes")
    if not all(isinstance(g, Polygon) for g in gts):
        raise ValueError("box matching needs Polygon ground-truth shapes")
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    free = [True] * len(gts)
    pairs = []
    for i in order:
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gts):
            if not free[j]:
                continue
            v = polygon_iou(preds[i].shape, g)
            if v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0 and best_iou >= iou_threshold:
            free[best_j] = False
            pairs.append((i, best_j, best_iou))
    tp = len(pairs)
    return MatchResult(tp=tp, fp=len(preds) - tp, fn=len(gts) - tp, pairs=tuple(pairs))


def hungarian(cost: np.ndarray):
    """Minimum-cost assignment of rows to columns (rows <= columns).

    Shortest-augmenting-path formulation with row/column potentials,
    O(rows^2 cols). Returns a list mapping each row to its column.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError("need rows <= columns; transpose the cost matrix")
    job = [-1] * (n_cols + 1)  # job[c] = row assigned to column c; last is virtual
    pot_row = [0.0] * n_rows
    pot_col = [0.0] * (n_cols + 1)
    for r in range(n_rows):
        col = n_cols
        job[col] = r
        min_to = [math.inf] * n_cols
        prev_col = [-1] * n_cols
        in_tree = [False] * (n_cols + 1)
        while job[col] != -1:
            in_tree[col] = True
            cur = job[col]
            delta = math.inf
            nxt = -1
            for c in range(n_cols):
                if in_tree[c]:
                    continue
                reduced = cost[cur, c] - pot_row[cur] - pot_col[c]
                if reduced < min_to[c]:
                    min_to[c] = reduced
                    prev_col[c] = col
                if min_to[c] < delta:
                    delta = min_to[c]
                    nxt = c
            for c in range(n_cols + 1):
                if in_tree[c]:
                    pot_row[job[c]] += delta
                    pot_col[c] -= delta
                elif c < n_cols:
                    min_to[c] -= delta
            col = nxt
        while col != n_cols:  # augment along the alternating path
            job[col] = job[prev_col[col]]
            col = prev_col[col]
    assignment = [-1] * n_rows
    for c in range(n_cols):
        if job[c] != -1:
            assignment[job[c]] = c
    return assignment


def _gated_distances(preds, gts, radius: float):
    """Prediction-to-truth distances and the gate mask (True: never pairs)."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not all(isinstance(d.shape, Point2) for d in preds):
        raise ValueError("point matching needs Point2 prediction shapes")
    if not all(isinstance(q, Point2) for q in gts):
        raise ValueError("point matching needs Point2 ground-truth shapes")
    p = np.array([[d.shape.x, d.shape.y] for d in preds]).reshape(-1, 2)
    g = np.array([[q.x, q.y] for q in gts]).reshape(-1, 2)
    dist = _pairwise_distances(p, g)  # an overflowing distance is +inf: never pairs
    return dist, dist > GATE_FACTOR * radius


def match_points(preds, gts, radius: float) -> MatchResult:
    """Hungarian point matching under Euclidean cost with distance gating.

    Pairs farther apart than 1.25 times ``radius`` get a huge sentinel cost
    and are rejected after the assignment, so they never count as matches.
    Pairs carry the Euclidean distance.
    """
    preds, gts = list(preds), list(gts)
    dist, gated = _gated_distances(preds, gts, radius)
    np_, ng = dist.shape
    if np_ == 0 or ng == 0:
        return MatchResult(tp=0, fp=np_, fn=ng, pairs=())
    # gated pairs get a cost that dominates every possible real-cost sum,
    # capped at the 1e18 sentinel; float64 keeps the arithmetic exact at
    # desk scale so optimality among equally gated assignments survives
    finite = dist[~gated]
    big = (float(finite.max()) if finite.size else 1.0) * (min(np_, ng) + 1) + 1.0
    cost = np.where(gated, min(big, HUNGARIAN_SENTINEL), dist)
    transposed = np_ > ng
    assignment = hungarian(cost.T if transposed else cost)
    pairs = []
    for r, c in enumerate(assignment):
        if c < 0:
            continue
        i, j = (c, r) if transposed else (r, c)
        if not gated[i, j]:
            pairs.append((i, j, float(dist[i, j])))
    pairs.sort()
    tp = len(pairs)
    return MatchResult(tp=tp, fp=np_ - tp, fn=ng - tp, pairs=tuple(pairs))


def precision_recall_f1(m):
    """Precision, recall and F1 of a MatchResult or MatchCounts; 0/0 := 0."""
    precision = m.tp / (m.tp + m.fp) if (m.tp + m.fp) > 0 else 0.0
    recall = m.tp / (m.tp + m.fn) if (m.tp + m.fn) > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1


# -- PR curve and AP -----------------------------------------------------------


@dataclass(frozen=True)
class BoxMatcher:
    """Greedy box matching at one IoU threshold, callable as (preds, gts)."""

    iou_threshold: float

    def __call__(self, preds, gts) -> MatchResult:
        return match_boxes(preds, gts, self.iou_threshold)

    def hits(self, ranked, gts) -> list:
        """Hit flag per prediction of ``ranked``, from one greedy pass.

        Greedy decisions on a prefix of the ranking never depend on the rest.
        """
        matched = {i for i, _, _ in self(ranked, gts).pairs}
        return [i in matched for i in range(len(ranked))]


@dataclass(frozen=True)
class PointMatcher:
    """Gated Hungarian point matching at one radius, callable as (preds, gts)."""

    radius: float

    def __call__(self, preds, gts) -> MatchResult:
        return match_points(preds, gts, self.radius)

    def hits(self, ranked, gts) -> list:
        """Hit flag per prediction of ``ranked``, from one matching pass.

        Each prediction in turn grows a maximum matching of the gate graph by
        an augmenting path (Kuhn), so the flags up to rank k sum to the
        maximum for the first k. A gated pair costs more than any sum of real
        costs, so that maximum is the ``match_points`` count on the prefix.
        """
        _, gated = _gated_distances(ranked, gts, self.radius)
        near = [np.flatnonzero(row).tolist() for row in ~gated]
        owner, mate = [-1] * len(gts), [-1] * len(ranked)  # the matching, seen from each side

        def augment(root: int) -> bool:  # breadth-first: long paths need no recursion
            via = {}  # truth -> the prediction the search reached it from
            queue = [root]
            for u in queue:
                for j in near[u]:
                    if j in via:
                        continue
                    via[j] = u
                    if owner[j] < 0:
                        while j >= 0:  # flip the path back to the root
                            u = via[j]
                            owner[j], mate[u], j = u, j, mate[u]
                        return True
                    queue.append(owner[j])
            return False

        return [augment(root) for root in range(len(ranked))]


box_matcher = BoxMatcher
point_matcher = PointMatcher


def dataset_pr_curve_and_ap(groups, matcher):
    """Pooled precision-recall curve, right-envelope AP and final counts.

    ``groups`` holds one (preds, gts) pair per image. Each image is matched
    once, on its predictions ranked by (-score, index); a score threshold
    keeps a prefix of every ranking, so the curve sums the hit flags up to
    each distinct score (descending). AP sums, over the unique recall steps,
    the recall increment times the best precision at that recall or beyond.
    Returns (curve, ap, ``MatchCounts`` at the lowest threshold).
    """
    scored, n_gts = [], 0  # (score, hit) of every prediction; truth count
    for preds, gts in groups:
        ranked, gts = sorted(preds, key=lambda p: -p.score), list(gts)  # stable: ties by index
        scored += zip([p.score for p in ranked], matcher.hits(ranked, gts))
        n_gts += len(gts)
    scored.sort(key=lambda sh: -sh[0])
    curve, tp = [], 0
    for k, (score, hit) in enumerate(scored):
        tp += hit
        if k + 1 == len(scored) or scored[k + 1][0] != score:
            curve.append((tp / n_gts if n_gts else 0.0, tp / (k + 1)))
    envelope = list(itertools.accumulate((p for _, p in reversed(curve)), max))[::-1]
    ap = prev_r = 0.0
    for (r, _), best_p in zip(curve, envelope):
        if r > prev_r:  # recall never falls along the curve
            ap, prev_r = ap + (r - prev_r) * best_p, r
    return curve, ap, MatchCounts(tp, len(scored) - tp, n_gts - tp)


def pr_curve_and_ap(preds, gts, matcher):
    """The curve and AP of ``dataset_pr_curve_and_ap`` for one image."""
    return dataset_pr_curve_and_ap([(preds, gts)], matcher)[:2]


def mean_ap(per_class_ap) -> float:
    values = list(per_class_ap)
    if not values:
        raise EmptyInput("no per-class AP values")
    return float(np.mean(values))


def mean_ap_iou_sweep(preds, gts_by_class, iou_thresholds=None) -> float:
    """mAP averaged over classes, then over an IoU threshold sweep.

    ``gts_by_class`` maps class_id to a list of ground-truth polygons;
    the default sweep is 0.5 to 0.95 in steps of 0.05.
    """
    if iou_thresholds is None:
        iou_thresholds = [0.5 + 0.05 * i for i in range(10)]
    iou_thresholds = list(iou_thresholds)
    if not iou_thresholds:
        raise EmptyInput("no IoU thresholds")
    per_threshold = [
        mean_ap(
            pr_curve_and_ap([p for p in preds if p.class_id == cls], gts, box_matcher(t))[1]
            for cls, gts in sorted(gts_by_class.items())
        )
        for t in iou_thresholds
    ]
    return float(np.mean(per_threshold))


# -- multi-rater agreement filtering --------------------------------------------


def agreement_filtered_counts(
    pred_scores,
    gt_agreements,
    k: int,
    min_agreement: int,
    score_threshold: float = 0.0,
) -> CountPair:
    """One image's count pair after filtering by rater agreement.

    Ground truth keeps objects at least ``min_agreement`` of ``k`` raters
    marked; predictions keep scores at or above ``score_threshold``.
    """
    if not 1 <= min_agreement <= k:
        raise ValueError(f"min_agreement must lie in [1, {k}]")
    for a in gt_agreements:
        if not 0 <= a <= k:
            raise ValueError(f"agreement {a} outside [0, {k}]")
    gt = sum(1 for a in gt_agreements if a >= min_agreement)
    pred = sum(1 for s in pred_scores if s >= score_threshold)
    return CountPair(gt=float(gt), pred=float(pred))
