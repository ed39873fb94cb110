"""The simulate report against an oracle that rebuilds it the long way.

``ref_report_doc`` recomputes every frame from the public protocol
functions into a per-frame record, copies it into a report row and a
diagnostics entry, and reshapes those for JSON entry by entry, as the
report was built before each frame's row and entry were made once in their
final form. The JSON twin that ``simulate`` writes must equal its bytes.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from meshcount import io
from meshcount.cli import main
from meshcount.geometry import Point2, Polygon
from meshcount.matching import Feature
from meshcount.protocol import (
    Detection,
    NodeSpec,
    ProtocolConfig,
    Scenario,
    _summarize,
    aggregate,
    compute_mu_outcome,
    global_count,
    init_phase,
    masking_count,
    naive_count,
)


@dataclass
class RefFrameResult:
    frame_id: object
    etas: dict
    naive: int
    masking: int
    ours_raw: float
    ours_rounded: int
    pair_stats: list
    triple_overlap_candidates: int | None


def ref_frame_result(scenario, config, homographies, frame_id) -> RefFrameResult:
    masks = {n.node_id: n.frames.get(frame_id, []) for n in scenario.nodes}
    etas = {n.node_id: len(masks[n.node_id]) for n in scenario.nodes}
    pair_stats = []
    for i, j in scenario.neighbor_pairs():
        node_i, node_j = scenario.node(i), scenario.node(j)
        on_i = compute_mu_outcome(  # masks of j judged on plane i
            masks[i], masks[j], homographies[(j, i)], config.tau, (node_i.width, node_i.height)
        )
        on_j = compute_mu_outcome(
            masks[j], masks[i], homographies[(i, j)], config.tau, (node_j.width, node_j.height)
        )
        pair_stats.append(
            {
                "pair": (i, j),
                "mu_ij": on_j.mu,
                "mu_ji": on_i.mu,
                "aggregated": aggregate(on_j.mu, on_i.mu, config.aggregation),
                "skipped_projections": on_i.skipped_projections + on_j.skipped_projections,
            }
        )
    ours = global_count(list(etas.values()), [p["aggregated"] for p in pair_stats])
    seen = {}
    for node_id, dets in masks.items():
        for det in dets:
            if det.vehicle_id is not None:
                seen.setdefault(det.vehicle_id, set()).add(node_id)
    return RefFrameResult(
        frame_id=frame_id,
        etas=etas,
        naive=naive_count(etas.values()),
        masking=masking_count(scenario, homographies, frame_id),
        ours_raw=ours,
        ours_rounded=round(ours),
        pair_stats=pair_stats,
        triple_overlap_candidates=sum(len(s) >= 3 for s in seen.values()) if seen else None,
    )


def ref_report_doc(scenario, config) -> bytes:
    """The JSON twin's bytes: record -> row and entry -> JSON document."""
    homographies = init_phase(scenario, config)
    rows, diagnostics = [], []
    for frame_id in scenario.frames:
        result = ref_frame_result(scenario, config, homographies, frame_id)
        gt = None
        if scenario.ground_truth is not None:
            gt = scenario.ground_truth.global_counts.get(frame_id)
        rows.append(
            {
                "frame_id": frame_id,
                "naive": result.naive,
                "masking": result.masking,
                "ours_raw": result.ours_raw,
                "ours_rounded": result.ours_rounded,
                "gt": gt,
                "err_n": None if gt is None else result.naive - gt,
                "err_m": None if gt is None else result.masking - gt,
                "err_o": None if gt is None else result.ours_raw - gt,
            }
        )
        diagnostics.append(
            {
                "frame_id": frame_id,
                "etas": result.etas,
                "pairs": result.pair_stats,
                "triple_overlap_candidates": result.triple_overlap_candidates,
            }
        )
    doc = {
        "frames": rows,
        "summary": _summarize(rows),
        "config": {
            "tau": config.tau,
            "aggregation": config.aggregation,
            "ratio": config.ratio,
            "max_dist": config.max_dist,
            "ransac": {
                "max_iterations": config.ransac.max_iterations,
                "inlier_threshold": config.ransac.inlier_threshold,
                "confidence": config.ransac.confidence,
                "seed": config.ransac.seed,
            },
        },
        "diagnostics": [
            {
                "frame_id": d["frame_id"],
                "etas": {str(k): v for k, v in d["etas"].items()},
                "pairs": [
                    {"pair": list(p["pair"])}
                    | {k: p[k] for k in ("mu_ij", "mu_ji", "aggregated", "skipped_projections")}
                    for p in d["pairs"]
                ],
                "triple_overlap_candidates": d["triple_overlap_candidates"],
            }
            for d in diagnostics
        ],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def gen_scene(tmp_path, *args):
    scene = tmp_path / "scene.json"
    assert main(["gen-scene", *map(str, args), "--out", str(scene)]) == 0
    return scene


def simulate_twin(tmp_path, scene, agg) -> bytes:
    out = tmp_path / "report.csv"
    assert main(["simulate", "--scenario", str(scene), "--agg", agg, "--out", str(out)]) == 0
    return out.with_suffix(".json").read_bytes()


class TestReportOracle:
    def test_twelve_cameras(self, tmp_path):
        scene = gen_scene(tmp_path, "--cameras", 12, "--vehicles", 36, "--overlap", 0.3,
                          "--jitter", 1.0, "--spurious", 0.05, "--frames", 2, "--seed", 4)
        twin = simulate_twin(tmp_path, scene, "mean")
        doc = json.loads(twin)
        assert list(doc["diagnostics"][0]["etas"])[:4] == ["0", "1", "10", "11"]
        assert twin == ref_report_doc(io.read_scenario_json(scene), ProtocolConfig())

    def test_min_aggregation(self, tmp_path):
        scene = gen_scene(tmp_path, "--cameras", 3, "--vehicles", 18, "--overlap", 0.4,
                          "--drop", 0.1, "--jitter", 2.0, "--frames", 3, "--seed", 7)
        twin = simulate_twin(tmp_path, scene, "min")
        config = ProtocolConfig(aggregation="min")
        assert twin == ref_report_doc(io.read_scenario_json(scene), config)

    @pytest.mark.parametrize("agg", ["max", "mean"])
    def test_no_ground_truth(self, tmp_path, agg):
        scene = gen_scene(tmp_path, "--cameras", 2, "--vehicles", 10, "--overlap", 0.5,
                          "--spurious", 0.1, "--frames", 2, "--seed", 2)
        doc = json.loads(scene.read_text())
        del doc["ground_truth"]
        scene.write_text(json.dumps(doc))
        twin = simulate_twin(tmp_path, scene, agg)
        report = json.loads(twin)
        assert all(row["gt"] is None and row["err_o"] is None for row in report["frames"])
        assert report["summary"] == {"naive": None, "masking": None, "ours": None}
        assert twin == ref_report_doc(io.read_scenario_json(scene), ProtocolConfig(aggregation=agg))

    def test_projections_that_cross_the_vanishing_line(self, tmp_path):
        scene = tmp_path / "scene.json"
        io.write_scenario_json(scene, vanishing_line_scenario())
        twin = simulate_twin(tmp_path, scene, "mean")
        (pair,) = json.loads(twin)["diagnostics"][0]["pairs"]
        # one mask of node 1 and two of node 0 straddle the other plane's vanishing line
        assert pair == {"pair": [0, 1], "mu_ij": 1, "mu_ji": 1, "aggregated": 1.0,
                        "skipped_projections": 3}
        assert twin == ref_report_doc(io.read_scenario_json(scene), ProtocolConfig())


def vanishing_line_scenario():
    """Two 400 x 100 cameras related by a projective map whose vanishing line
    crosses both images: x = 200 on plane 1 and x = 100 on plane 0."""
    h_10 = np.array([[-0.5, 0.0, 300.0], [0.0, 1.0, 0.0], [-1.0 / 200.0, 0.0, 1.0]])
    rng = np.random.default_rng(5)
    feats = {0: [], 1: []}
    for x in (10.0, 60.0, 110.0, 150.0, 250.0, 300.0, 350.0, 390.0):
        for y in (10.0, 50.0, 90.0):
            u, v, w = h_10 @ (x, y, 1.0)
            desc = rng.normal(0, 1, 16)
            feats[1].append(Feature(Point2(x, y), desc + rng.normal(0, 0.03, 16)))
            feats[0].append(Feature(Point2(u / w, v / w), desc + rng.normal(0, 0.03, 16)))

    def boxes(*corners):
        return [Detection(Polygon.box(*c)) for c in corners]

    # (20, 20, 40, 40) on plane 1 lands near (322, 22, 350, 48) on plane 0
    frames0 = {"f0": boxes((90, 20, 110, 40), (95, 50, 105, 70), (322, 22, 350, 48))}
    frames1 = {"f0": boxes((190, 20, 210, 40), (20, 20, 40, 40))}
    nodes = [
        NodeSpec(0, (1,), 400, 100, feats[0], frames0),
        NodeSpec(1, (0,), 400, 100, feats[1], frames1),
    ]
    return Scenario(nodes=nodes, frames=["f0"])
