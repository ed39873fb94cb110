"""Decentralized multi-camera counting protocol as a deterministic simulation.

Smart cameras form a graph with one sink, and the protocol runs in phases.
Neighbors calibrate once: each pair matches features and fits a homography
with RANSAC, both ways. Then, in every frame, each camera counts locally,
neighbors judge each other's masks on their own image plane, and the sink
sums the local counts and subtracts the duplicates. The simulator calls
these phases directly in a fixed order. Naive summation and overlap
masking are included as baselines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CalibrationFailed, NoConsensus, PointAtInfinity
from .geometry import Homography, Polygon, RansacParams, iou, project_polygon, ransac_homography
from .matching import default_max_dist, distance_filter, ratio_match, to_correspondences

AGGREGATIONS = ("min", "max", "mean")


@dataclass(frozen=True)
class Detection:
    """One localized object: a mask polygon, a confidence, and (for
    synthetic scenes) the identity label that oracles key on."""

    polygon: Polygon
    score: float = 1.0
    vehicle_id: int | None = None


@dataclass
class NodeSpec:
    node_id: int
    neighbors: tuple
    width: int
    height: int
    features: list = field(default_factory=list)
    frames: dict = field(default_factory=dict)  # frame_id -> list[Detection]

    def __post_init__(self):
        self.neighbors = tuple(sorted(set(self.neighbors)))  # a repeated id names one pair
        if self.node_id in self.neighbors:
            raise ValueError(f"node {self.node_id} lists itself as a neighbor")
        if self.width < 1 or self.height < 1:
            raise ValueError("image shape must be positive")


@dataclass
class GroundTruth:
    global_counts: dict = field(default_factory=dict)  # frame_id -> int
    homographies: dict = field(default_factory=dict)  # (src, dst) -> Homography


@dataclass
class Scenario:
    nodes: list
    frames: list
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        by_id = {n.node_id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            raise ValueError("node ids must be unique")
        for n in self.nodes:
            for j in n.neighbors:
                if j not in by_id:
                    raise ValueError(f"node {n.node_id} names unknown neighbor {j}")
                if n.node_id not in by_id[j].neighbors:
                    raise ValueError(
                        f"asymmetric neighbor lists between {n.node_id} and {j}"
                    )
        self.nodes = sorted(self.nodes, key=lambda n: n.node_id)  # checked as given, kept by id
        self._by_id = by_id

    def node(self, node_id) -> NodeSpec:
        return self._by_id[node_id]

    def neighbor_pairs(self):
        """Unordered overlapping pairs (i, j) with i < j, in sorted order, each once."""
        return [(n.node_id, j) for n in self.nodes for j in n.neighbors if n.node_id < j]


@dataclass(frozen=True)
class ProtocolConfig:
    tau: float = 0.2  # IoU above this marks a duplicate
    aggregation: str = "mean"
    ransac: RansacParams = field(default_factory=RansacParams)
    ratio: float = 0.75
    max_dist: float | None = None  # None: twice the median match distance

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


# -- protocol operations -------------------------------------------------------


def _pairwise_homography(features_src, features_dst, ratio, max_dist, ransac: RansacParams):
    """Ratio test, distance filter (below ``max_dist``, by default twice the
    median match distance, or exactly 0 when that median is 0), RANSAC;
    returns (H, correspondences, inlier mask) or raises NoConsensus."""
    if not (features_src and features_dst):
        raise NoConsensus("no features on one side")
    matches = ratio_match(features_src, features_dst, ratio)
    if matches:
        if max_dist is not None:
            matches = distance_filter(matches, max_dist)
        elif (cutoff := default_max_dist(matches)) > 0:
            matches = distance_filter(matches, cutoff)
        else:  # a zero median: at least half the matches are exact, keep those
            matches = [m for m in matches if m.dist == 0]
    if len(matches) < 4:
        raise NoConsensus(f"only {len(matches)} filtered matches")
    corrs = to_correspondences(features_src, features_dst, matches)
    h, mask = ransac_homography(corrs, ransac)
    return h, corrs, mask


@dataclass(frozen=True)
class MuOutcome:
    mu: int
    skipped_projections: int  # masks whose projection degenerated
    matches: tuple = ()  # (index in masks_j, index in masks_i) per duplicate, in j order


def compute_mu_outcome(masks_i, masks_j, h_ji: Homography, tau: float, image_shape) -> MuOutcome:
    """Duplicates among ``masks_j`` as seen from node i.

    Each mask from j is projected onto plane i; when its centroid lands
    inside the image and some mask of i overlaps it with IoU above tau, it
    was already counted by i, and the first such mask of i, in index order,
    is its match. Masks whose projection fails (one meeting the vanishing
    line of ``h_ji``, or a degenerate image) are skipped and tallied.
    Only masks of i whose bounding box overlaps the projection's on both
    axes reach the exact IoU; any other pair has IoU 0, which tau > 0 never
    passes.
    """
    width, height = image_shape
    skipped = 0
    candidates = []  # (index in masks_j, projection)
    for index, det in enumerate(masks_j):
        try:
            projected = project_polygon(h_ji, det.polygon)
        except (PointAtInfinity, ValueError):
            skipped += 1
            continue
        c = projected.centroid
        if 0.0 <= c.x < width and 0.0 <= c.y < height:
            candidates.append((index, projected))
    mine = [m.polygon for m in masks_i]
    a = np.array([p.bounds() for _, p in candidates]).reshape(-1, 1, 4)
    b = np.array([p.bounds() for p in mine]).reshape(1, -1, 4)
    # iou's own early-out, for every (candidate, mask of i) pair at once
    near = ((np.minimum(a[..., 2], b[..., 2]) > np.maximum(a[..., 0], b[..., 0]))
            & (np.minimum(a[..., 3], b[..., 3]) > np.maximum(a[..., 1], b[..., 1])))
    matches = []
    for (index, projected), row in zip(candidates, near):
        for k in np.flatnonzero(row).tolist():
            if iou(projected, mine[k]) > tau:
                matches.append((index, k))
                break
    return MuOutcome(mu=len(matches), skipped_projections=skipped, matches=tuple(matches))


def aggregate(mu_ij: float, mu_ji: float, mode: str = "mean") -> float:
    """Combine the two directional duplicate estimates of one pair."""
    if mode == "min":
        return float(min(mu_ij, mu_ji))
    if mode == "max":
        return float(max(mu_ij, mu_ji))
    if mode == "mean":
        return (mu_ij + mu_ji) / 2.0
    raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


def global_count(etas, aggregated) -> float:
    """The sink's fusion: sum of local counts minus aggregated duplicates."""
    return float(sum(etas) - sum(aggregated))


def naive_count(etas) -> int:
    """Baseline N: sum every local count, ignoring overlaps."""
    return int(sum(etas))


def masking_count(scenario: Scenario, homographies, frame_id) -> int:
    """Baseline M: drop detections inside overlaps owned by a smaller id.

    A node discards its own detections whose centroid maps back, through
    the inverse of H from a smaller-id neighbor, into that neighbor's closed
    ``width`` x ``height`` image; survivors are summed. This is membership in
    the neighbor's true image even where that image is unbounded; a centroid
    that maps back to infinity stays.
    """
    total = 0
    for node in scenario.nodes:
        dets = node.frames.get(frame_id, [])
        if not dets:
            continue
        centroids = np.array([[c.x, c.y, 1.0] for c in (d.polygon.centroid for d in dets)])
        masked = np.zeros(len(dets), dtype=bool)
        for j in node.neighbors:
            h_ji = homographies.get((j, node.node_id))
            if j >= node.node_id or h_ji is None:
                continue
            other = scenario.node(j)
            x, y, w = (centroids @ np.linalg.inv(h_ji.matrix).T).T
            with np.errstate(divide="ignore", invalid="ignore"):  # w = 0: not masked
                x, y = x / w, y / w
            masked |= (0.0 <= x) & (x <= other.width) & (0.0 <= y) & (y <= other.height)
        total += int((~masked).sum())
    return total


# -- the simulator -----------------------------------------------------------------


class Simulator:
    """The protocol's phases as direct calls, in a fixed order.

    ``initialize`` calibrates every neighbor pair once. Each ``run_frame``
    takes every node's local count, judges each overlapping pair's masks
    both ways, and fuses the counts as the sink does.
    """

    def __init__(self, scenario: Scenario, config: ProtocolConfig | None = None):
        self.scenario = scenario
        self.config = config or ProtocolConfig()
        self.homographies = None  # (j, i) -> H mapping plane j to plane i, once calibrated

    def initialize(self):
        """Calibrate each node against each neighbor from the pair's features.

        Senders go in id order, each to its sorted neighbors; the first pair
        without consensus raises CalibrationFailed(receiver, sender).
        """
        homographies = {}
        settings = (self.config.ratio, self.config.max_dist, self.config.ransac)
        for sender in self.scenario.nodes:
            for j in sender.neighbors:
                receiver = self.scenario.node(j)
                try:
                    h, _, _ = _pairwise_homography(sender.features, receiver.features, *settings)
                except NoConsensus as exc:
                    raise CalibrationFailed(j, sender.node_id, str(exc)) from exc
                homographies[(sender.node_id, j)] = h
        self.homographies = homographies
        return homographies

    def run_frame(self, frame_id):
        """One compute round; returns the frame's report row and diagnostics
        entry, both in their final JSON-ready form."""
        if self.homographies is None:
            raise RuntimeError("initialize() must run before compute rounds")
        detections = {n.node_id: n.frames.get(frame_id, []) for n in self.scenario.nodes}
        pairs = []
        for i, j in self.scenario.neighbor_pairs():
            ni, nj = self.scenario.node(i), self.scenario.node(j)
            # ij: masks of i judged on plane j; ji: masks of j judged on plane i
            ij = compute_mu_outcome(detections[j], detections[i], self.homographies[(i, j)],
                                    self.config.tau, (nj.width, nj.height))
            ji = compute_mu_outcome(detections[i], detections[j], self.homographies[(j, i)],
                                    self.config.tau, (ni.width, ni.height))
            pairs.append(
                {
                    "pair": (i, j),
                    "mu_ij": ij.mu,
                    "mu_ji": ji.mu,
                    "aggregated": aggregate(ij.mu, ji.mu, self.config.aggregation),
                    "skipped_projections": ji.skipped_projections + ij.skipped_projections,
                }
            )
        etas = {node_id: len(dets) for node_id, dets in detections.items()}
        naive = naive_count(etas.values())
        masking = masking_count(self.scenario, self.homographies, frame_id)
        ours = global_count(etas.values(), [p["aggregated"] for p in pairs])
        truth = self.scenario.ground_truth
        gt = None if truth is None else truth.global_counts.get(frame_id)
        row = {
            "frame_id": frame_id,
            "naive": naive,
            "masking": masking,
            "ours_raw": ours,
            "ours_rounded": round(ours),  # banker's rounding
            "gt": gt,
            "err_n": None if gt is None else naive - gt,
            "err_m": None if gt is None else masking - gt,
            "err_o": None if gt is None else ours - gt,
        }
        diagnostics = {
            "frame_id": frame_id,
            # string keys, so the JSON twin sorts them as text (sort_keys)
            "etas": {str(node_id): eta for node_id, eta in etas.items()},
            "pairs": pairs,
            "triple_overlap_candidates": self._triple_overlap_candidates(frame_id),
        }
        return row, diagnostics

    def _triple_overlap_candidates(self, frame_id) -> int | None:
        """Identity-labeled vehicles seen by three or more nodes, where the
        pairwise subtraction of the fusion formula over-subtracts. None when
        detections carry no identity labels."""
        seen = {}
        for node in self.scenario.nodes:
            for det in node.frames.get(frame_id, []):
                if det.vehicle_id is not None:
                    seen.setdefault(det.vehicle_id, set()).add(node.node_id)
        if not seen:
            return None
        return sum(1 for nodes in seen.values() if len(nodes) >= 3)


@dataclass
class Report:
    """Per-frame counts and errors for the three methods, plus a summary
    shaped like the four column groups of the multi-camera comparison."""

    frames: list = field(default_factory=list)  # rows as dicts
    summary: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)  # per-frame pair stats

    ROW_FIELDS = (
        "frame_id",
        "naive",
        "masking",
        "ours_raw",
        "ours_rounded",
        "gt",
        "err_n",
        "err_m",
        "err_o",
    )


def _summarize(rows) -> dict:
    summary = {}
    with_gt = [r for r in rows if r["gt"] is not None]
    for method, err_key in (("naive", "err_n"), ("masking", "err_m"), ("ours", "err_o")):
        errs = [r[err_key] for r in with_gt]
        if not errs:
            summary[method] = None
            continue
        relative = [abs(e) / r["gt"] * 100.0 for e, r in zip(errs, with_gt) if r["gt"] > 0]
        summary[method] = {
            "error": float(np.mean(errs)),
            "absolute_error": float(np.mean(np.abs(errs))),
            "squared_error": float(np.mean(np.square(errs))),
            "relative_error_pct": float(np.mean(relative)) if relative else None,
        }
    return summary


def run_scenario(scenario: Scenario, config: ProtocolConfig | None = None) -> Report:
    """Full pipeline: calibrate once, then fuse every frame.

    Report rows carry naive/masking/ours counts and signed errors against
    the ground truth when the scenario provides one.
    """
    config = config or ProtocolConfig()
    sim = Simulator(scenario, config)
    sim.initialize()
    results = [sim.run_frame(frame_id) for frame_id in scenario.frames]
    rows = [row for row, _ in results]
    return Report(
        frames=rows,
        summary=_summarize(rows),
        config=asdict(config),
        diagnostics=[diagnostics for _, diagnostics in results],
    )
