import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshcount import protocol, synth
from meshcount.errors import CalibrationFailed, InfeasibleOverlap, PointAtInfinity
from meshcount.geometry import (
    Correspondence,
    Homography,
    Point2,
    Polygon,
    iou,
    project_point,
    project_polygon,
    symmetric_transfer_error,
)
from meshcount.matching import Feature
from meshcount.protocol import (
    Detection,
    GroundTruth,
    MuOutcome,
    NodeSpec,
    ProtocolConfig,
    Scenario,
    Simulator,
    aggregate,
    compute_mu_outcome,
    global_count,
    masking_count,
    naive_count,
    run_scenario,
)
from meshcount.synth import SyntheticSceneSpec, generate_scene


def box_detection(x0, y0, x1, y1, vid=None):
    return Detection(Polygon.box(x0, y0, x1, y1), score=1.0, vehicle_id=vid)


def translation(dx, dy=0.0):
    return Homography([[1, 0, dx], [0, 1, dy], [0, 0, 1]])


class TestComputeMu:
    def test_identity_identical_sets(self):
        masks = [box_detection(10 * i, 0, 10 * i + 8, 6) for i in range(4)]
        mu = compute_mu_outcome(masks, masks, Homography.identity(), 0.2, (100, 50)).mu
        assert mu == 4

    def test_disjoint_fields_of_view(self):
        masks_i = [box_detection(5, 5, 15, 12)]
        masks_j = [box_detection(500, 5, 510, 12)]  # projects far outside
        mu = compute_mu_outcome(masks_i, masks_j, Homography.identity(), 0.2, (100, 50)).mu
        assert mu == 0

    def test_shared_plus_exclusive_under_known_warp(self):
        # plane j is plane i shifted by +200 px: H_{j,i} adds 200
        h_ji = translation(200.0)
        shared_world = [(210.0, 10.0), (250.0, 30.0), (300.0, 60.0)]
        exclusive_j = [(30.0, 10.0), (90.0, 55.0)]  # project to x<200+.. outside i? no:
        # exclusive in j live at small x so their projection lands below x=200+…
        masks_i = [
            box_detection(x, y, x + 20, y + 10, vid=k)
            for k, (x, y) in enumerate(shared_world)
        ]
        masks_j = [
            box_detection(x - 200.0, y, x - 200.0 + 20, y + 10, vid=k)
            for k, (x, y) in enumerate(shared_world)
        ] + [box_detection(x, y, x + 20, y + 10, vid=100 + k) for k, (x, y) in enumerate(exclusive_j)]
        # identity oracle: exactly the labeled-shared vehicles should count
        shared_ids = {m.vehicle_id for m in masks_i} & {m.vehicle_id for m in masks_j}
        out = compute_mu_outcome(masks_i, masks_j, h_ji, 0.2, (400, 100))
        assert out.mu == len(shared_ids) == 3
        assert out.skipped_projections == 0

    def test_a_duplicate_matches_the_first_overlapping_mask_of_i(self):
        masks_i = [box_detection(60, 10, 80, 20), box_detection(10, 10, 30, 20),
                   box_detection(12, 10, 32, 20)]
        masks_j = [box_detection(40, 40, 50, 45), box_detection(11, 10, 31, 20)]
        out = compute_mu_outcome(masks_i, masks_j, Homography.identity(), 0.2, (100, 60))
        assert out.matches == ((1, 1),)
        assert out.mu == len(out.matches) == 1

    def test_exclusive_masks_projecting_inside_do_not_count(self):
        masks_i = [box_detection(10, 10, 30, 20, vid=0)]
        masks_j = [box_detection(60, 40, 80, 50, vid=1)]  # inside, but disjoint
        assert compute_mu_outcome(masks_i, masks_j, Homography.identity(), 0.2, (100, 60)).mu == 0


# -- reference oracle: the all-pairs duplicate search -------------------------------


def ref_compute_mu_outcome(masks_i, masks_j, h_ji, tau, image_shape):
    """compute_mu_outcome as it was before bounding boxes pruned the IoU pairs,
    with each duplicate matched to the first mask of i whose IoU exceeds tau."""
    width, height = image_shape
    mu = 0
    skipped = 0
    matches = []
    for index, det in enumerate(masks_j):
        try:
            projected = project_polygon(h_ji, det.polygon)
        except (PointAtInfinity, ValueError):
            skipped += 1
            continue
        c = projected.centroid
        if not (0.0 <= c.x < width and 0.0 <= c.y < height):
            continue
        overlapping = [k for k, mine in enumerate(masks_i) if iou(projected, mine.polygon) > tau]
        if overlapping:
            mu += 1
            matches.append((index, overlapping[0]))
    return MuOutcome(mu=mu, skipped_projections=skipped, matches=tuple(matches))


def random_rectangle(rng):
    """A rotated rectangle somewhere on a 120 x 100 plane."""
    w, h = rng.uniform(4.0, 30.0, 2) / 2.0
    a = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    corners = np.array([[-w, -h], [w, -h], [w, h], [-w, h]])
    return Polygon(corners @ rot.T + rng.uniform((0.0, 0.0), (120.0, 100.0)))


def mu_case(seed, projective, n_i, n_j, n_dup):
    """Masks of i, masks of j and H_ji. The first ``n_dup`` masks of i also
    appear in j, mapped back through H and shifted a little, so some pairs
    are duplicates. Projective H have vanishing lines that can cross the
    masks, so some projections fail."""
    rng = np.random.default_rng(seed)
    m = np.eye(3)
    m[:2, :2] += rng.uniform(-0.3, 0.3, (2, 2))
    m[:2, 2] = rng.uniform(-40.0, 40.0, 2)
    if projective:
        m[2, :2] = rng.uniform(-0.02, 0.02, 2)
    h = Homography(m)
    masks_i = [Detection(random_rectangle(rng)) for _ in range(n_i)]
    masks_j = [Detection(random_rectangle(rng)) for _ in range(n_j)]
    for det in masks_i[:n_dup]:
        try:
            back = project_polygon(h.inverse(), det.polygon)
        except (PointAtInfinity, ValueError):
            continue
        masks_j.insert(int(rng.integers(len(masks_j) + 1)),
                       Detection(Polygon(back.vertices + rng.normal(0.0, 2.0, 2))))
    return masks_i, masks_j, h


class TestPrunedDuplicateSearch:
    TAUS = (0.05, 0.2, 0.5, 0.9)

    def test_matches_all_pairs_on_seeded_cases(self):
        mu = skipped = 0
        for seed in range(120):
            masks_i, masks_j, h = mu_case(seed, seed % 2 == 1, 6, 6, 4)
            tau = self.TAUS[seed % 4]
            out = compute_mu_outcome(masks_i, masks_j, h, tau, (100, 80))
            assert out == ref_compute_mu_outcome(masks_i, masks_j, h, tau, (100, 80))
            mu += out.mu
            skipped += out.skipped_projections
        # the cases reach duplicates and failed projections alike
        assert mu > 0 and skipped > 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 8), st.integers(0, 8),
           st.integers(0, 8), st.sampled_from(TAUS))
    def test_matches_all_pairs_property(self, seed, projective, n_i, n_j, n_dup, tau):
        masks_i, masks_j, h = mu_case(seed, projective, n_i, n_j, n_dup)
        out = compute_mu_outcome(masks_i, masks_j, h, tau, (100, 80))
        assert out == ref_compute_mu_outcome(masks_i, masks_j, h, tau, (100, 80))

    def test_projected_sliver_is_skipped(self):
        # a one-ulp edge collapses to a repeated vertex once shifted by 40
        a = (3.453, 2.166)
        sliver = Detection(Polygon([a, np.nextafter(a, 10.0), (1.199, 1.691)]))
        out = compute_mu_outcome([], [sliver, box_detection(10, 10, 30, 20)],
                                 translation(40.0, 40.0), 0.2, (100, 60))
        assert out == MuOutcome(mu=0, skipped_projections=1)

    def test_vertex_on_the_vanishing_line_is_skipped(self):
        # w = 1 - x / 64 is exactly 0 at x = 64
        h = Homography([[1, 0, 0], [0, 1, 0], [-1 / 64, 0, 1]])
        masks_i = [box_detection(10, 10, 30, 20)]
        masks_j = [box_detection(50, 10, 64, 20), box_detection(10, 10, 30, 20)]
        out = compute_mu_outcome(masks_i, masks_j, h, 0.2, (100, 60))
        assert out == ref_compute_mu_outcome(masks_i, masks_j, h, 0.2, (100, 60))
        assert out.skipped_projections == 1


class TestAggregate:
    def test_modes(self):
        assert aggregate(3, 3, "mean") == 3.0
        assert aggregate(2, 4, "mean") == 3.0
        assert aggregate(2, 4, "min") == 2.0
        assert aggregate(2, 4, "max") == 4.0

    def test_mean_may_be_fractional(self):
        assert aggregate(2, 3, "mean") == 2.5


class TestGlobalCount:
    def test_two_nodes_shared_two(self):
        assert global_count([3, 3], [2.0]) == 4.0

    def test_no_overlaps(self):
        assert global_count([4, 2, 5], []) == 11.0

    def test_single_node(self):
        assert global_count([7], []) == 7.0


class TestNaiveCount:
    def test_overcounts_duplicates(self):
        assert naive_count([3, 3]) == 6

    def test_single_and_empty(self):
        assert naive_count([9]) == 9
        assert naive_count([]) == 0


def two_node_scenario(det0, det1, width=400, height=100, shift=200.0, gt=None):
    """Two cameras over a strip world; camera 1 sees the world shifted left."""
    rng = np.random.default_rng(99)
    n_land = 120
    world = np.column_stack([rng.uniform(0, width + shift, n_land), rng.uniform(0, height, n_land)])
    desc = rng.normal(0, 1, (n_land, 16))
    feats = {0: [], 1: []}
    for k in range(n_land):
        x, y = world[k]
        if 0 <= x < width:
            feats[0].append(Feature(Point2(float(x), float(y)), desc[k] + rng.normal(0, 0.03, 16)))
        if 0 <= x - shift < width:
            feats[1].append(
                Feature(Point2(float(x - shift), float(y)), desc[k] + rng.normal(0, 0.03, 16))
            )
    nodes = [
        NodeSpec(0, (1,), width, height, feats[0], {"f0": det0}),
        NodeSpec(1, (0,), width, height, feats[1], {"f0": det1}),
    ]
    truth = GroundTruth(
        global_counts={} if gt is None else {"f0": gt},
        homographies={(1, 0): translation(shift), (0, 1): translation(-shift)},
    )
    return Scenario(nodes=nodes, frames=["f0"], ground_truth=truth)


class TestInitPhase:
    def test_recovers_translation_within_one_pixel(self):
        scenario = two_node_scenario([], [])
        homs = Simulator(scenario, ProtocolConfig()).initialize()
        truth = scenario.ground_truth.homographies
        for key in ((1, 0), (0, 1)):
            grid = [
                Correspondence(Point2(x, y), Point2(0, 0))
                for x in (0.0, 100.0, 300.0)
                for y in (0.0, 50.0, 99.0)
            ]
            # transfer error of the estimate measured against the true map
            pts = [(c.src.x, c.src.y) for c in grid]
            t = truth[key].matrix
            mapped = [
                ((t[0, 0] * x + t[0, 1] * y + t[0, 2]) / (t[2, 0] * x + t[2, 1] * y + t[2, 2]),
                 (t[1, 0] * x + t[1, 1] * y + t[1, 2]) / (t[2, 0] * x + t[2, 1] * y + t[2, 2]))
                for x, y in pts
            ]
            corrs = [
                Correspondence(Point2(x, y), Point2(u, v))
                for (x, y), (u, v) in zip(pts, mapped)
            ]
            err = symmetric_transfer_error(homs[key], corrs)
            assert float(np.max(err)) < 1.0

    def test_node_without_neighbors(self):
        node = NodeSpec(0, (), 64, 64, [], {"f0": []})
        scenario = Scenario(nodes=[node], frames=["f0"])
        assert Simulator(scenario, ProtocolConfig()).initialize() == {}

    def test_insufficient_matches_fails_calibration(self):
        rng = np.random.default_rng(1)
        # unrelated descriptors: the ratio test keeps nearly nothing
        f0 = [Feature(Point2(float(i), 1.0), rng.normal(0, 1, 8)) for i in range(30)]
        f1 = [Feature(Point2(float(i), 2.0), rng.normal(0, 1, 8)) for i in range(30)]
        nodes = [
            NodeSpec(0, (1,), 64, 64, f0, {"f0": []}),
            NodeSpec(1, (0,), 64, 64, f1, {"f0": []}),
        ]
        scenario = Scenario(nodes=nodes, frames=["f0"])
        with pytest.raises(CalibrationFailed):
            Simulator(scenario, ProtocolConfig()).initialize()

    def test_compute_round_needs_calibration_first(self):
        node = NodeSpec(0, (), 64, 64, [], {"f0": []})
        sim = Simulator(Scenario(nodes=[node], frames=["f0"]), ProtocolConfig())
        with pytest.raises(RuntimeError, match="initialize"):
            sim.run_frame("f0")


class TestMaskingCount:
    def test_fully_overlapping_views_keep_one_side(self):
        dets = [box_detection(20 * i + 2, 10, 20 * i + 18, 20, vid=i) for i in range(3)]
        scenario = two_node_scenario(dets, dets, shift=0.0)
        homs = {(0, 1): Homography.identity(), (1, 0): Homography.identity()}
        # node 0 keeps everything, node 1 discards its whole view
        assert masking_count(scenario, homs, "f0") == 3

    def test_disjoint_views_equal_naive(self):
        d0 = [box_detection(10, 10, 30, 20)]
        d1 = [box_detection(50, 40, 70, 50)]
        nodes = [
            NodeSpec(0, (), 100, 60, [], {"f0": d0}),
            NodeSpec(1, (), 100, 60, [], {"f0": d1}),
        ]
        scenario = Scenario(nodes=nodes, frames=["f0"])
        assert masking_count(scenario, {}, "f0") == naive_count([1, 1]) == 2

    def test_partial_overlap_hand_enumeration(self):
        # world strip of 600 px, shift 200: overlap is world x in [200, 400)
        # world vehicles: 150 (only cam0), 300 (shared), 520 (only cam1)
        world = [(150.0, 30.0), (300.0, 50.0), (520.0, 30.0)]
        det0 = [
            box_detection(x - 10, y - 5, x + 10, y + 5, vid=k)
            for k, (x, y) in enumerate(world)
            if 0 <= x < 400
        ]
        det1 = [
            box_detection(x - 200 - 10, y - 5, x - 200 + 10, y + 5, vid=k)
            for k, (x, y) in enumerate(world)
            if 0 <= x - 200 < 400
        ]
        scenario = two_node_scenario(det0, det1, gt=3)
        homs = scenario.ground_truth.homographies
        # node 0 owns the overlap; node 1 discards its copy of vehicle 1
        assert masking_count(scenario, homs, "f0") == 3

    def test_boundary_through_infinity_still_masks_the_overlap(self):
        dets = [box_detection(20 * i + 2, 10, 20 * i + 18, 20, vid=i) for i in range(3)]
        scenario = two_node_scenario(dets, dets, shift=0.0)
        width = scenario.node(0).width
        # w = 1 - x / width vanishes at node 0's right image corners, so node 0's
        # image on plane 1 is unbounded; node 1's centroids map back to about
        # (9.76, 14.6), (27.9, 14.0) and (44.4, 13.3), inside node 0's image
        vanishing = Homography([[1, 0, 0], [0, 1, 0], [-1.0 / width, 0, 1]])
        homs = {(0, 1): vanishing, (1, 0): Homography.identity()}
        assert masking_count(scenario, homs, "f0") == 3

    def test_matches_per_detection_oracle(self):
        for seed, warp in enumerate(("translation", "affine", "projective")):
            spec = SyntheticSceneSpec(
                n_cameras=3, n_vehicles=30, overlap=0.4, warp=warp, jitter_px=2.0,
                spurious_rate=0.05, n_frames=2, seed=seed,
            )
            scenario = generate_scene(spec)
            homs = scenario.ground_truth.homographies
            for frame_id in scenario.frames:
                expected = 0
                for node in scenario.nodes:
                    regions = [
                        project_polygon(
                            homs[(j, node.node_id)],
                            Polygon.box(0, 0, scenario.node(j).width, scenario.node(j).height),
                        )
                        for j in node.neighbors
                        if j < node.node_id
                    ]
                    for det in node.frames[frame_id]:
                        c = det.polygon.centroid
                        expected += not any(r.contains(np.array([c.x, c.y])) for r in regions)
                assert masking_count(scenario, homs, frame_id) == expected

    def test_matches_back_projection_oracle_across_the_vanishing_line(self):
        straddling = masked = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            scenario = Scenario(
                nodes=[
                    NodeSpec(k, tuple(j for j in range(3) if j != k), 120, 100, [],
                             {"f0": [Detection(random_rectangle(rng)) for _ in range(8)]})
                    for k in range(3)
                ],
                frames=["f0"],
            )
            homs = {}
            for j, i in ((0, 1), (0, 2), (1, 2)):
                m = np.eye(3)
                m[:2, :2] += rng.uniform(-0.3, 0.3, (2, 2))
                m[:2, 2] = rng.uniform(-40.0, 40.0, 2)
                m[2, :2] = rng.uniform(-0.02, 0.02, 2)  # vanishing lines cross the images
                homs[(j, i)] = Homography(m)
                w = np.array([[0, 0, 1], [120, 0, 1], [120, 100, 1], [0, 100, 1]]) @ m[2]
                straddling += bool((w > 0).any() and (w < 0).any())
            expected = ref_masking_count(scenario, homs, "f0")
            assert masking_count(scenario, homs, "f0") == expected
            masked += 24 - expected
        # many boundaries cross the line, and many centroids are masked
        assert straddling > 60 and masked > 300


def ref_masking_count(scenario, homographies, frame_id):
    """Per centroid: map it back onto each smaller-id neighbor's plane and test
    it against that neighbor's closed image rectangle; a centroid that maps
    back to infinity stays unmasked."""
    total = 0
    for node in scenario.nodes:
        for det in node.frames.get(frame_id, []):
            c = det.polygon.centroid
            inside = False
            for j in node.neighbors:
                h = homographies.get((j, node.node_id))
                if j >= node.node_id or h is None:
                    continue
                try:
                    back = project_point(h.inverse(), c)
                except PointAtInfinity:
                    continue
                other = scenario.node(j)
                inside |= 0.0 <= back.x <= other.width and 0.0 <= back.y <= other.height
            total += not inside
    return total


class TestRunScenario:
    def test_two_camera_noise_free_exact(self):
        spec = SyntheticSceneSpec(
            n_cameras=2, n_vehicles=10, overlap=0.5, warp="translation", n_frames=2, seed=3
        )
        scenario = generate_scene(spec)
        report = run_scenario(scenario, ProtocolConfig())
        for row in report.frames:
            assert row["err_o"] == pytest.approx(0.0, abs=1e-9)

    def test_naive_minus_ours_is_total_aggregated_mu(self):
        spec = SyntheticSceneSpec(
            n_cameras=3, n_vehicles=18, overlap=0.4, warp="affine", n_frames=2, seed=5
        )
        report = run_scenario(generate_scene(spec), ProtocolConfig())
        for row, diag in zip(report.frames, report.diagnostics):
            total_mu = sum(p["aggregated"] for p in diag["pairs"])
            assert row["naive"] - row["ours_raw"] == pytest.approx(total_mu)

    def test_empty_frames(self):
        node = NodeSpec(0, (), 32, 32, [], {})
        report = run_scenario(Scenario(nodes=[node], frames=[]), ProtocolConfig())
        assert report.frames == []

    def test_deterministic(self):
        spec = SyntheticSceneSpec(
            n_cameras=2,
            n_vehicles=8,
            overlap=0.4,
            warp="projective",
            drop_rate=0.05,
            jitter_px=2.0,
            spurious_rate=0.05,
            n_frames=2,
            seed=11,
        )
        r1 = run_scenario(generate_scene(spec), ProtocolConfig())
        r2 = run_scenario(generate_scene(spec), ProtocolConfig())
        assert r1.frames == r2.frames
        assert r1.diagnostics == r2.diagnostics

    def test_relabeling_invariance(self):
        det0 = [box_detection(210 + 22 * i, 20, 230 + 22 * i, 32, vid=i) for i in range(4)]
        det1 = [box_detection(10 + 22 * i, 20, 30 + 22 * i, 32, vid=i) for i in range(4)]
        s_a = two_node_scenario(det0, det1, gt=4)
        report_a = run_scenario(s_a, ProtocolConfig())

        # same world, ids swapped (node 1 <-> node 0)
        rng_feats = {n.node_id: n.features for n in s_a.nodes}
        nodes_b = [
            NodeSpec(1, (0,), 400, 100, rng_feats[0], {"f0": det0}),
            NodeSpec(0, (1,), 400, 100, rng_feats[1], {"f0": det1}),
        ]
        s_b = Scenario(nodes=nodes_b, frames=["f0"], ground_truth=s_a.ground_truth)
        report_b = run_scenario(s_b, ProtocolConfig())
        assert report_a.frames[0]["ours_raw"] == report_b.frames[0]["ours_raw"]
        assert report_a.frames[0]["naive"] == report_b.frames[0]["naive"]

    def test_repeated_neighbor_id_counts_the_pair_once(self):
        det0 = [box_detection(210 + 22 * i, 20, 230 + 22 * i, 32, vid=i) for i in range(4)]
        det1 = [box_detection(10 + 22 * i, 20, 30 + 22 * i, 32, vid=i) for i in range(4)]
        plain = two_node_scenario(det0, det1, gt=4)
        n0, n1 = plain.nodes
        repeated = Scenario(
            nodes=[replace(n0, neighbors=(1, 1)), n1],
            frames=plain.frames,
            ground_truth=plain.ground_truth,
        )
        report = run_scenario(repeated, ProtocolConfig())
        assert [p["pair"] for p in report.diagnostics[0]["pairs"]] == [(0, 1)]
        assert report.frames[0]["ours_raw"] == pytest.approx(4.0)
        assert report.frames == run_scenario(plain, ProtocolConfig()).frames

    def test_repeated_neighbor_ids_calibrate_each_directed_pair_once(self, monkeypatch):
        spec = SyntheticSceneSpec(n_cameras=3, n_vehicles=12, overlap=0.4, n_frames=2, seed=3)
        plain = generate_scene(spec)
        n0, n1, n2 = plain.nodes
        repeated = Scenario(
            nodes=[replace(n0, neighbors=(1, 1)), replace(n1, neighbors=(0, 2, 0, 2)), n2],
            frames=plain.frames,
            ground_truth=plain.ground_truth,
        )
        calls = []
        real = protocol._pairwise_homography

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(protocol, "_pairwise_homography", counted)
        report = run_scenario(repeated, ProtocolConfig())
        assert len(calls) == 4  # 0 -> 1, 1 -> 0, 1 -> 2, 2 -> 1
        assert [n.neighbors for n in repeated.nodes] == [(1,), (0, 2), (1,)]
        expected = run_scenario(plain, ProtocolConfig())
        assert report.frames == expected.frames
        assert report.diagnostics == expected.diagnostics

    def test_summary_mirrors_rows(self):
        spec = SyntheticSceneSpec(n_cameras=2, n_vehicles=10, overlap=0.5, n_frames=3, seed=7)
        report = run_scenario(generate_scene(spec), ProtocolConfig())
        errs = [r["err_n"] for r in report.frames]
        assert report.summary["naive"]["absolute_error"] == pytest.approx(
            float(np.mean(np.abs(errs)))
        )


def relabeled(scenario, perm):
    """``scenario`` with camera ``i`` renamed ``perm[i]``."""
    nodes = [replace(n, node_id=perm[n.node_id], neighbors=[perm[j] for j in n.neighbors])
             for n in scenario.nodes]
    return Scenario(nodes=nodes, frames=scenario.frames, ground_truth=scenario.ground_truth)


class TestRelabeling:
    # masking is left out: its smaller-id ownership rule reads the ids by design
    @settings(max_examples=15, deadline=None)
    @given(st.data(), st.integers(2, 5), st.sampled_from(synth.WARP_FAMILIES),
           st.integers(0, 2**16))
    def test_naive_and_ours_ignore_camera_ids(self, data, n, warp, seed):
        spec = SyntheticSceneSpec(n_cameras=n, n_vehicles=20, overlap=0.5, warp=warp,
                                  drop_rate=0.05, jitter_px=2.0, spurious_rate=0.05,
                                  n_frames=2, seed=seed)
        scenario = generate_scene(spec)
        runs = []
        for scene in (scenario, relabeled(scenario, data.draw(st.permutations(range(n))))):
            homographies = Simulator(scene).initialize()  # no aggregation reaches calibration
            for agg in protocol.AGGREGATIONS:
                sim = Simulator(scene, ProtocolConfig(aggregation=agg))
                sim.homographies = homographies
                rows = [sim.run_frame(f)[0] for f in scene.frames]
                runs.append([(r["naive"], r["ours_raw"].hex()) for r in rows])
        assert runs[:3] == runs[3:]


class TestScenarioValidation:
    def test_asymmetric_neighbors_rejected(self):
        n0 = NodeSpec(0, (1,), 32, 32, [], {})
        n1 = NodeSpec(1, (), 32, 32, [], {})
        with pytest.raises(ValueError, match="0 and 1"):
            Scenario(nodes=[n0, n1], frames=[])

    def test_duplicate_ids_rejected(self):
        n0 = NodeSpec(0, (), 32, 32, [], {})
        with pytest.raises(ValueError):
            Scenario(nodes=[n0, NodeSpec(0, (), 32, 32, [], {})], frames=[])

    def test_nodes_kept_in_id_order_and_looked_up_by_id(self):
        n0, n1, n2 = (NodeSpec(i, (), 32, 32, [], {}) for i in range(3))
        scenario = Scenario(nodes=[n2, n0, n1], frames=[])
        assert [n.node_id for n in scenario.nodes] == [0, 1, 2]
        assert scenario.node(2) is n2
        with pytest.raises(KeyError):
            scenario.node(3)

    def test_self_neighbor_rejected(self):
        with pytest.raises(ValueError):
            NodeSpec(0, (0,), 32, 32, [], {})


# -- reference oracles: the generator's per-vehicle loops ------------------------------


def ref_detectable_views(placed, warps, origins, image_height, image_shape):
    """synth._detectable_views with the scalar test over every blocker."""
    owners = []
    centers = np.array([c for c, _ in placed]) if placed else np.zeros((0, 2))
    cam_pos = [np.array([x0 - synth._CAMERA_SETBACK, image_height / 2.0]) for x0 in origins]
    for vid in range(len(placed)):
        views = []
        for cam in range(len(warps)):
            inside, _, _ = synth._visible(warps[cam], centers[vid], image_shape)
            if not inside:
                continue
            ray = centers[vid] - cam_pos[cam]
            dv = float(np.hypot(*ray))
            occluded = False
            for uid in range(len(placed)):
                if uid == vid:
                    continue
                rel = centers[uid] - cam_pos[cam]
                du = float(rel @ ray) / dv
                if not (0.0 < du < dv and dv - du < synth._OCCLUSION_REACH):
                    continue
                perp = abs(float(rel[0] * ray[1] - rel[1] * ray[0])) / dv
                if perp < synth._OCCLUSION_HALF_WIDTH:
                    occluded = True
                    break
            if not occluded:
                views.append(cam)
        owners.append(views)
    return owners


def ref_place_vehicles(spec, world_w, h, warps, rng):
    """synth._place_vehicles with the separation tested one placed center at a time."""
    placed = []
    attempts = 0
    budget = 20_000 + 4_000 * spec.n_vehicles
    while len(placed) < spec.n_vehicles:
        attempts += 1
        if attempts > budget:
            raise InfeasibleOverlap("could not place the vehicles")
        center = np.array([rng.uniform(0, world_w), rng.uniform(0, h)])
        length = rng.uniform(24, 32)
        width = rng.uniform(12, 16)
        inside_somewhere = False
        borderline = False
        for m in warps:
            inside, border, _ = synth._visible(m, center, spec.image_shape)
            inside_somewhere = inside_somewhere or inside
            borderline = borderline or border
        if not inside_somewhere or borderline:
            continue
        if any(np.hypot(center[0] - c[0], center[1] - c[1]) < synth._MIN_SEPARATION
               for c, _ in placed):
            continue
        dx, dy = length / 2.0, width / 2.0
        corners = center + np.array([[-dx, -dy], [dx, -dy], [dx, dy], [-dx, dy]])
        placed.append((center, corners))
    return placed


def ref_landmark_features(m, land_pts, land_desc, shape, rng):
    """synth._landmark_features with one noise draw per kept landmark."""
    w, h = shape
    img = synth._world_to_image(m, land_pts)
    features = []
    for k in range(len(land_pts)):
        x, y = img[k]
        if 0.0 <= x < w and 0.0 <= y < h:
            features.append(
                Feature(
                    Point2(float(x), float(y)),
                    land_desc[k] + rng.normal(0.0, synth._DESCRIPTOR_NOISE, synth._DESCRIPTOR_DIM),
                )
            )
    return features


def patch_reference_generator(monkeypatch):
    """Run generate_scene on the reference loops.

    The references keep the old (center, corners) entries and their own
    per-camera `_visible` loops. The adapters give each entry the image x
    that the drop weight reads, projected afresh as the generator once did.
    """
    scene = {}

    def place(spec, world_w, h, warps, rng):
        scene.update(warps=warps, shape=spec.image_shape)
        return [
            (center, corners, [synth._world_to_image(m, center[None, :])[0, 0] for m in warps], None)
            for center, corners in ref_place_vehicles(spec, world_w, h, warps, rng)
        ]

    def detectable(placed, origins, image_height):
        old_entries = [(center, corners) for center, corners, _, _ in placed]
        return ref_detectable_views(old_entries, scene["warps"], origins, image_height, scene["shape"])

    monkeypatch.setattr(synth, "_place_vehicles", place)
    monkeypatch.setattr(synth, "_detectable_views", detectable)
    monkeypatch.setattr(synth, "_landmark_features", ref_landmark_features)


def scene_facts(scenario):
    """Every generated value of a scenario, floats as their bytes."""
    nodes = [
        (
            [(f.keypoint.x, f.keypoint.y, f.descriptor.tobytes()) for f in n.features],
            {fid: [(d.polygon.vertices.tobytes(), d.score, d.vehicle_id) for d in dets]
             for fid, dets in n.frames.items()},
        )
        for n in scenario.nodes
    ]
    truth = scenario.ground_truth
    homs = {k: h.matrix.tobytes() for k, h in truth.homographies.items()}
    return nodes, truth.global_counts, homs


class TestSynthGenerator:
    @pytest.mark.parametrize("spec", [
        SyntheticSceneSpec(n_cameras=3, n_vehicles=60, overlap=0.5, drop_rate=0.05,
                           jitter_px=2.0, spurious_rate=0.05, n_frames=2, seed=3),
        SyntheticSceneSpec(n_cameras=2, n_vehicles=16, overlap=0.5, warp="projective", seed=6),
        SyntheticSceneSpec(n_cameras=4, n_vehicles=20, overlap=0.3, warp="affine",
                           jitter_px=1.0, spurious_rate=0.1, n_frames=2, seed=11),
    ])
    def test_matches_the_per_vehicle_loops(self, spec, monkeypatch):
        scene = generate_scene(spec)
        patch_reference_generator(monkeypatch)
        assert scene_facts(scene) == scene_facts(generate_scene(spec))

    def test_noise_free_truth_matches_detectable_vehicles(self):
        # truth counts vehicles detectable somewhere; occlusion can hide a few
        spec = SyntheticSceneSpec(n_cameras=3, n_vehicles=15, overlap=0.3, n_frames=2, seed=2)
        scenario = generate_scene(spec)
        for frame_id in scenario.frames:
            ids = {
                d.vehicle_id
                for n in scenario.nodes
                for d in n.frames[frame_id]
                if d.vehicle_id is not None
            }
            truth = scenario.ground_truth.global_counts[frame_id]
            assert truth == len(ids)
            assert truth <= 15

    def test_zero_overlap_means_no_neighbors_and_naive_equals_truth(self):
        spec = SyntheticSceneSpec(n_cameras=3, n_vehicles=12, overlap=0.0, n_frames=1, seed=4)
        scenario = generate_scene(spec)
        assert all(n.neighbors == () for n in scenario.nodes)
        report = run_scenario(scenario, ProtocolConfig())
        assert report.frames[0]["err_n"] == 0

    def test_infeasible_overlap(self):
        with pytest.raises(InfeasibleOverlap):
            generate_scene(SyntheticSceneSpec(n_cameras=3, overlap=0.6))

    def test_deterministic_given_seed(self):
        spec = SyntheticSceneSpec(n_cameras=2, n_vehicles=6, overlap=0.4, seed=9)
        s1 = generate_scene(spec)
        s2 = generate_scene(spec)
        assert s1.ground_truth.global_counts == s2.ground_truth.global_counts
        for n1, n2 in zip(s1.nodes, s2.nodes):
            for f in s1.frames:
                p1 = [d.polygon.vertices.tolist() for d in n1.frames[f]]
                p2 = [d.polygon.vertices.tolist() for d in n2.frames[f]]
                assert p1 == p2

    def test_true_homographies_map_between_planes(self):
        spec = SyntheticSceneSpec(n_cameras=2, n_vehicles=16, overlap=0.5, warp="projective", seed=6)
        scenario = generate_scene(spec)
        truth = scenario.ground_truth.homographies
        det0 = {d.vehicle_id: d for d in scenario.nodes[0].frames["frame-000"]}
        det1 = {d.vehicle_id: d for d in scenario.nodes[1].frames["frame-000"]}
        shared = set(det0) & set(det1)
        assert shared  # overlap 0.5 should share something
        from meshcount.geometry import project_polygon

        for vid in shared:
            projected = project_polygon(truth[(1, 0)], det1[vid].polygon)
            assert np.allclose(projected.vertices, det0[vid].polygon.vertices, atol=1e-6)
