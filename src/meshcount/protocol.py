"""Decentralized multi-camera counting protocol as a deterministic simulation.

Smart cameras form a graph with one sink. The sink phases the protocol:
an initialization round calibrates every neighbor pair with feature
matching plus RANSAC, and each compute round has every node report its
local count and exchange masks so duplicate detections in overlapping
views are subtracted once at the sink. Naive summation and overlap
masking are included as baselines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CalibrationFailed, NoConsensus, PointAtInfinity
from .geometry import (
    Homography,
    Polygon,
    RansacParams,
    _project_array,
    iou,
    points_in_polygon,
    project_polygon,
    ransac_homography,
)
from .matching import default_max_dist, distance_filter, ratio_match, to_correspondences

SINK = "S"

INIT_SIGNAL = "InitSignal"
FEATURE_SHARE = "FeatureShare"
COMPUTE_SIGNAL = "ComputeSignal"
MASK_SHARE = "MaskShare"
ETA_REPORT = "EtaReport"
MU_REPORT = "MuReport"

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
        self.neighbors = tuple(sorted(self.neighbors))
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
        ids = [n.node_id for n in self.nodes]
        if len(ids) != len(set(ids)):
            raise ValueError("node ids must be unique")
        by_id = {n.node_id: n for n in self.nodes}
        for n in self.nodes:
            for j in n.neighbors:
                if j not in by_id:
                    raise ValueError(f"node {n.node_id} names unknown neighbor {j}")
                if n.node_id not in by_id[j].neighbors:
                    raise ValueError(
                        f"asymmetric neighbor lists between {n.node_id} and {j}"
                    )

    def node(self, node_id) -> NodeSpec:
        return next(n for n in self.nodes if n.node_id == node_id)

    def neighbor_pairs(self):
        """Unordered overlapping pairs (i, j) with i < j, sorted, each once even
        when a neighbor list repeats an id."""
        return sorted({(n.node_id, j) for n in self.nodes for j in n.neighbors if n.node_id < j})


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


@dataclass(frozen=True)
class Message:
    kind: str
    src: object
    dst: object
    payload: object = None


@dataclass
class NodeState:
    node_id: int
    homographies: dict = field(default_factory=dict)  # neighbor -> H mapping them to us
    last_masks: list = field(default_factory=list)
    eta: int = 0


# -- protocol operations -------------------------------------------------------


def _pairwise_homography(features_src, features_dst, config: ProtocolConfig):
    """Ratio test, distance filter (default: below twice the median match
    distance, or exactly 0 when that median is 0), RANSAC; returns
    (H, correspondences, inlier mask) or raises NoConsensus."""
    if not (features_src and features_dst):
        raise NoConsensus("no features on one side")
    matches = ratio_match(features_src, features_dst, config.ratio)
    if matches:
        if config.max_dist is not None:
            matches = distance_filter(matches, config.max_dist)
        elif (cutoff := default_max_dist(matches)) > 0:
            matches = distance_filter(matches, cutoff)
        else:  # a zero median: at least half the matches are exact, keep those
            matches = [m for m in matches if m.dist == 0]
    if len(matches) < 4:
        raise NoConsensus(f"only {len(matches)} filtered matches")
    corrs = to_correspondences(features_src, features_dst, matches)
    h, mask = ransac_homography(corrs, config.ransac)
    return h, corrs, mask


def init_phase(scenario: Scenario, config: ProtocolConfig):
    """Run the initialization round; returns {(j, i): H mapping plane j to i}.

    The sink signals every node; nodes swap feature sets with each neighbor
    and estimate both directions independently. Raises CalibrationFailed
    when a pair cannot reach a four-inlier consensus.
    """
    sim = Simulator(scenario, config)
    sim.initialize()
    return dict(sim.homographies)


def local_count(state: NodeState, detections):
    """Count detections locally and emit the eta report plus mask shares."""
    detections = list(detections)
    state.eta = len(detections)
    state.last_masks = detections
    messages = [Message(ETA_REPORT, state.node_id, SINK, state.eta)]
    for j in sorted(state.homographies):
        messages.append(Message(MASK_SHARE, state.node_id, j, detections))
    return state.eta, messages


@dataclass(frozen=True)
class MuOutcome:
    mu: int
    skipped_projections: int  # masks whose projection degenerated


def compute_mu_outcome(masks_i, masks_j, h_ji: Homography, tau: float, image_shape) -> MuOutcome:
    """Duplicates among ``masks_j`` as seen from node i.

    Each mask from j is projected onto plane i; when its centroid lands
    inside the image and some mask of i overlaps it with IoU above tau, it
    was already counted by i. Degenerate projections are skipped and tallied.
    Only masks of i whose bounding box overlaps the projection's on both
    axes reach the exact IoU; any other pair has IoU 0, which tau > 0 never
    passes.
    """
    width, height = image_shape
    skipped = 0
    candidates = []
    for det in masks_j:
        try:
            projected = project_polygon(h_ji, det.polygon)
        except (PointAtInfinity, ValueError):
            skipped += 1
            continue
        c = projected.centroid
        if 0.0 <= c.x < width and 0.0 <= c.y < height:
            candidates.append(projected)
    mine = [m.polygon for m in masks_i]
    a = np.array([p.bounds() for p in candidates]).reshape(-1, 1, 4)
    b = np.array([p.bounds() for p in mine]).reshape(1, -1, 4)
    # iou's own early-out, for every (candidate, mask of i) pair at once
    near = ((np.minimum(a[..., 2], b[..., 2]) > np.maximum(a[..., 0], b[..., 0]))
            & (np.minimum(a[..., 3], b[..., 3]) > np.maximum(a[..., 1], b[..., 1])))
    mu = sum(
        any(iou(projected, mine[k]) > tau for k in np.flatnonzero(row).tolist())
        for projected, row in zip(candidates, near)
    )
    return MuOutcome(mu=mu, skipped_projections=skipped)


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

    A node discards its own detections whose centroid falls inside the
    projection of any smaller-id neighbor's image boundary; survivors are
    summed. A degenerate boundary projection leaves that overlap unmasked.
    """
    total = 0
    for node in scenario.nodes:
        dets = node.frames.get(frame_id, [])
        if not dets:
            continue
        centroids = np.array([[c.x, c.y] for c in (d.polygon.centroid for d in dets)])
        masked = np.zeros(len(dets), dtype=bool)
        for j in node.neighbors:
            h_ji = homographies.get((j, node.node_id))
            if j >= node.node_id or h_ji is None:
                continue
            other = scenario.node(j)
            corners = Polygon.box(0.0, 0.0, other.width, other.height).vertices
            try:
                region = _project_array(h_ji.matrix, corners)
            except PointAtInfinity:
                continue
            masked |= points_in_polygon(centroids, region)
        total += int((~masked).sum())
    return total


# -- the event-driven simulator --------------------------------------------------


class Simulator:
    """Single event loop with reliable per-link FIFO delivery.

    Node handlers are pure state transitions (state, message) ->
    (state, outgoing messages); the sink drives phases and fuses reports.
    """

    def __init__(self, scenario: Scenario, config: ProtocolConfig | None = None):
        self.scenario = scenario
        self.config = config or ProtocolConfig()
        self.states = {n.node_id: NodeState(n.node_id) for n in scenario.nodes}
        self.homographies = {}  # (j, i) -> H mapping plane j to plane i
        self._queue = deque()
        self._initialized = False

    # message handling ------------------------------------------------------

    def _dispatch(self, msg: Message):
        if msg.dst == SINK:
            self._sink_handle(msg)
            return
        node = self.scenario.node(msg.dst)
        state = self.states[msg.dst]
        if msg.kind == INIT_SIGNAL:
            for j in node.neighbors:
                self._queue.append(Message(FEATURE_SHARE, node.node_id, j, node.features))
        elif msg.kind == FEATURE_SHARE:
            try:
                h, _, _ = _pairwise_homography(msg.payload, node.features, self.config)
            except NoConsensus as exc:
                raise CalibrationFailed(node.node_id, msg.src, str(exc)) from exc
            state.homographies[msg.src] = h
            self.homographies[(msg.src, node.node_id)] = h
        elif msg.kind == COMPUTE_SIGNAL:
            detections = node.frames.get(msg.payload, [])
            _, outgoing = local_count(state, detections)
            self._queue.extend(outgoing)
        elif msg.kind == MASK_SHARE:
            outcome = compute_mu_outcome(
                state.last_masks,
                msg.payload,
                state.homographies[msg.src],
                self.config.tau,
                (node.width, node.height),
            )
            self._queue.append(
                Message(MU_REPORT, node.node_id, SINK, (msg.src, outcome))
            )
        else:
            raise ValueError(f"unexpected message kind {msg.kind}")

    def _sink_handle(self, msg: Message):
        if msg.kind == ETA_REPORT:
            self._etas[msg.src] = msg.payload
        elif msg.kind == MU_REPORT:
            src_of_masks, outcome = msg.payload
            self._mus[(src_of_masks, msg.src)] = outcome
        else:
            raise ValueError(f"unexpected sink message kind {msg.kind}")

    def _drain(self):
        while self._queue:
            self._dispatch(self._queue.popleft())

    # phases ------------------------------------------------------------------

    def initialize(self):
        """Sink broadcast, feature exchange, pairwise calibration."""
        for node in sorted(self.scenario.nodes, key=lambda n: n.node_id):
            self._queue.append(Message(INIT_SIGNAL, SINK, node.node_id))
        self._drain()
        self._initialized = True
        return self.homographies

    def run_frame(self, frame_id):
        """One compute round; returns the frame's report row and diagnostics
        entry, both in their final JSON-ready form."""
        if not self._initialized:
            raise RuntimeError("initialize() must run before compute rounds")
        self._etas = {}
        self._mus = {}  # (j, i) -> MuOutcome for masks of j judged by i
        for node in sorted(self.scenario.nodes, key=lambda n: n.node_id):
            self._queue.append(Message(COMPUTE_SIGNAL, SINK, node.node_id, frame_id))
        self._drain()

        pairs = []
        for i, j in self.scenario.neighbor_pairs():
            ij, ji = self._mus[(i, j)], self._mus[(j, i)]  # ji: masks of j judged on plane i
            pairs.append(
                {
                    "pair": (i, j),
                    "mu_ij": ij.mu,
                    "mu_ji": ji.mu,
                    "aggregated": aggregate(ij.mu, ji.mu, self.config.aggregation),
                    "skipped_projections": ji.skipped_projections + ij.skipped_projections,
                }
            )
        etas = [self._etas[n.node_id] for n in self.scenario.nodes]
        naive = naive_count(etas)
        masking = masking_count(self.scenario, self.homographies, frame_id)
        ours = global_count(etas, [p["aggregated"] for p in pairs])
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
            "etas": {str(node_id): eta for node_id, eta in self._etas.items()},
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
