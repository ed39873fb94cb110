import json
import math
import warnings

import numpy as np
import pytest

from meshcount import io
from meshcount.cli import main
from meshcount.geometry import Correspondence, Homography, Point2, Polygon
from meshcount.matching import Feature
from meshcount.protocol import ProtocolConfig, Simulator
from meshcount.rescoring import AgreementSample


def make_feature_files(tmp_path, rng, shift=150.0, n=80):
    world = np.column_stack([rng.uniform(0, 500, n), rng.uniform(0, 200, n)])
    desc = rng.normal(0, 1, (n, 8))
    fa, fb = [], []
    for k in range(n):
        x, y = world[k]
        fa.append(Feature(Point2(float(x), float(y)), desc[k] + rng.normal(0, 0.02, 8)))
        fb.append(
            Feature(Point2(float(x + shift), float(y)), desc[k] + rng.normal(0, 0.02, 8))
        )
    io.write_features_csv(tmp_path / "a.csv", fa)
    io.write_features_csv(tmp_path / "b.csv", fb)
    return tmp_path / "a.csv", tmp_path / "b.csv"


class TestCalibrate:
    def test_features_to_homography(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        fa, fb = make_feature_files(tmp_path, rng)
        out = tmp_path / "h.json"
        rc = main(["calibrate", "--features-a", str(fa), "--features-b", str(fb),
                   "--out", str(out)])
        assert rc == 0
        h = io.read_homography_json(out)
        expected = Homography([[1, 0, 150], [0, 1, 0], [0, 0, 1]])
        assert np.allclose(h.matrix, expected.matrix, atol=1e-3)

    def test_missing_inputs_exit_one(self, tmp_path):
        rc = main(["calibrate", "--out", str(tmp_path / "h.json")])
        assert rc == 1

    def test_missing_required_flag_exits_one(self):
        assert main(["calibrate"]) == 1

    def test_unparseable_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        rc = main(["calibrate", "--correspondences", str(bad), "--out", str(tmp_path / "h.json")])
        assert rc == 1

    def test_no_matches_is_no_consensus(self, tmp_path, capsys):
        # every A-feature is equally near both B-features, so the ratio test keeps none
        (tmp_path / "a.csv").write_text("x,y,d0,d1\n1.0,2.0,0.0,0.0\n5.0,6.0,0.0,0.0\n")
        (tmp_path / "b.csv").write_text("x,y,d0,d1\n1.0,2.0,1.0,0.0\n5.0,6.0,-1.0,0.0\n")
        rc = main(["calibrate", "--features-a", str(tmp_path / "a.csv"),
                   "--features-b", str(tmp_path / "b.csv"), "--out", str(tmp_path / "h.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "only 0 filtered matches" in err
        assert not (tmp_path / "h.json").exists()

    def test_feature_file_against_itself_is_the_identity(self, tmp_path, capsys):
        # every kept match has distance 0, so the default cutoff (twice the median) is 0
        assert main(["gen-scene", "--cameras", "2", "--seed", "1", "--frames", "1",
                     "--out", str(tmp_path / "scene.json")]) == 0
        feats = str(tmp_path / "scene_features_0.csv")
        out = tmp_path / "h.json"
        rc = main(["calibrate", "--features-a", feats, "--features-b", feats, "--out", str(out)])
        assert rc == 0
        assert np.allclose(io.read_homography_json(out).matrix, np.eye(3), rtol=0, atol=1e-9)
        capsys.readouterr()
        rc = main(["calibrate", "--features-a", feats, "--features-b", feats,
                   "--max-dist", "0", "--out", str(tmp_path / "h0.json")])
        assert rc == 1
        assert "max_dist must be > 0" in capsys.readouterr().err

    def test_empty_feature_file_is_no_consensus(self, tmp_path, capsys):
        fa, _ = make_feature_files(tmp_path, np.random.default_rng(0))
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y,d0,d1\n")
        for pair in ([fa, empty], [empty, fa]):
            rc = main(["calibrate", "--features-a", str(pair[0]), "--features-b", str(pair[1]),
                       "--out", str(tmp_path / "h.json")])
            assert rc == 2
            assert "no features on one side" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()

    def test_features_give_the_simulator_calibration(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        assert main(["gen-scene", "--cameras", "3", "--vehicles", "12", "--warp", "projective",
                     "--seed", "6", "--out", str(scene)]) == 0
        truth = Simulator(io.read_scenario_json(scene), ProtocolConfig(ratio=0.7)).initialize()
        for src, dst in [(0, 1), (2, 1)]:
            out = tmp_path / f"h{src}{dst}.json"
            rc = main(["calibrate", "--features-a", str(tmp_path / f"scene_features_{src}.csv"),
                       "--features-b", str(tmp_path / f"scene_features_{dst}.csv"),
                       "--ratio", "0.7", "--out", str(out)])
            assert rc == 0
            assert np.array_equal(io.read_homography_json(out).matrix, truth[(src, dst)].matrix)


class TestMalformedCalibrationInputs:
    """A bad feature or correspondence cell is a ParseError (exit 1) that
    names its position, never a traceback."""

    def run(self, capsys, argv, where):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert where in err
        return err

    @pytest.mark.parametrize(
        "row, where",
        [
            pytest.param("3.0,nan,0.1,0.2", "line 3, column 2", id="nan-keypoint"),
            pytest.param("inf,1.0,0.1,0.2", "line 3, column 1", id="inf-keypoint"),
            pytest.param("3.0,1.0,0.1,-inf", "line 3, column 4", id="inf-descriptor"),
            pytest.param("3.0,1.0,x,nan", "line 3, column 3", id="non-numeric-first"),
        ],
    )
    def test_bad_feature_cell(self, tmp_path, capsys, row, where):
        good = tmp_path / "a.csv"
        good.write_text("x,y,d0,d1\n1.0,2.0,0.5,0.5\n2.0,3.0,0.1,0.9\n")
        bad = tmp_path / "b.csv"
        bad.write_text(f"x,y,d0,d1\n1.0,2.0,0.5,0.5\n{row}\n")
        self.run(capsys, ["calibrate", "--features-a", str(good), "--features-b", str(bad),
                          "--out", str(tmp_path / "h.json")], where)

    @pytest.mark.parametrize(
        "row, where",
        [
            pytest.param("1.0,2.0,nan,4.0", "line 3, column 3", id="nan"),
            pytest.param("1.0,2.0,3.0,inf", "line 3, column 4", id="inf"),
            pytest.param("1.0,?,3.0,4.0", "line 3, column 2", id="non-numeric"),
        ],
    )
    def test_bad_correspondence_cell(self, tmp_path, capsys, row, where):
        path = tmp_path / "c.csv"
        path.write_text(f"src_x,src_y,dst_x,dst_y\n0.0,0.0,1.0,1.0\n{row}\n")
        self.run(capsys, ["calibrate", "--correspondences", str(path),
                          "--out", str(tmp_path / "h.json")], where)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "case, where",
        [
            # past 1e100 the squares of ratio matching overflow ...
            pytest.param("descriptors", "line 2, column 3", id="descriptors"),
            # ... and so do the products of the collinearity test of a 4-point sample
            pytest.param("keypoints", "line 2, column 1", id="matching-keypoints"),
            pytest.param("correspondences", "line 2, column 1", id="correspondences"),
        ],
    )
    def test_cell_past_1e100(self, tmp_path, capsys, case, where):
        rng = np.random.default_rng(0)
        big = rng.uniform(1.0, 2.0, (10, 2)) * 1e200
        if case == "correspondences":
            pairs = zip(big.tolist(), (1.5 * big + 1e199).tolist())
            io.write_correspondences_csv(
                tmp_path / "c.csv", [Correspondence(Point2(*a), Point2(*b)) for a, b in pairs]
            )
            argv = ["calibrate", "--correspondences", str(tmp_path / "c.csv")]
        else:
            if case == "descriptors":
                kp_a = kp_b = rng.uniform(0.0, 100.0, (10, 2))
                desc_a, desc_b = rng.uniform(-1e200, 1e200, (2, 10, 8))
            else:
                kp_a, kp_b = big, 1.5 * big + 1e199
                desc_a = desc_b = rng.uniform(0.0, 1.0, (10, 8))
            for name, kp, desc in (("a", kp_a, desc_a), ("b", kp_b, desc_b)):
                feats = [Feature(Point2(*k), d) for k, d in zip(kp.tolist(), desc)]
                io.write_features_csv(tmp_path / f"{name}.csv", feats)
            argv = ["calibrate", "--features-a", str(tmp_path / "a.csv"),
                    "--features-b", str(tmp_path / "b.csv")]
        err = self.run(capsys, argv + ["--out", str(tmp_path / "h.json")], where)
        assert "expected a number within [-1e100, 1e100]" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cells_within_1e100_end_without_a_warning(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        kp = rng.uniform(-1e100, 1e100, (3, 10, 2))
        desc = rng.uniform(-1e100, 1e100, (2, 10, 8))
        files = {"a": (kp[0], desc[0]), "b": (kp[1], desc[1]), "c": (kp[2], desc[0])}
        for name, (points, descs) in files.items():
            feats = [Feature(Point2(*k), d) for k, d in zip(points.tolist(), descs)]
            io.write_features_csv(tmp_path / f"{name}.csv", feats)
        cells = rng.uniform(-1e100, 1e100, (10, 4)).tolist()
        corrs = [Correspondence(Point2(a, b), Point2(c, d)) for a, b, c, d in cells]
        io.write_correspondences_csv(tmp_path / "corr.csv", corrs)
        for inputs in (["--features-a", "a.csv", "--features-b", "b.csv"],
                       ["--features-a", "a.csv", "--features-b", "c.csv"],  # same descriptors
                       ["--correspondences", "corr.csv"]):
            argv = [arg if arg.startswith("--") else str(tmp_path / arg) for arg in inputs]
            rc = main(["calibrate", *argv, "--out", str(tmp_path / "h.json")])
            err = capsys.readouterr().err
            assert rc == 2, err
            assert "Traceback" not in err


class TestScenePipeline:
    def test_gen_scene_then_simulate(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        rc = main(["gen-scene", "--cameras", "2", "--vehicles", "10", "--overlap", "0.5",
                   "--frames", "2", "--seed", "5", "--out", str(scene)])
        assert rc == 0
        report = tmp_path / "report.csv"
        rc = main(["simulate", "--scenario", str(scene), "--tau", "0.2", "--agg", "mean",
                   "--out", str(report)])
        assert rc == 0
        text = report.read_text()
        assert text.splitlines()[0] == "frame_id,naive,masking,ours_raw,ours_rounded,gt,err_n,err_m,err_o"
        twin = json.loads(report.with_suffix(".json").read_text())
        assert "summary" in twin and "diagnostics" in twin
        # noise-free scenario: protocol error must be zero on every frame
        for row in twin["frames"]:
            assert abs(row["err_o"]) < 1e-9

    def test_simulate_deterministic_bytes(self, tmp_path):
        scene = tmp_path / "scene.json"
        main(["gen-scene", "--cameras", "3", "--vehicles", "12", "--overlap", "0.4",
              "--drop", "0.05", "--jitter", "2.0", "--spurious", "0.05",
              "--frames", "2", "--seed", "9", "--out", str(scene)])
        r1 = tmp_path / "r1.csv"
        r2 = tmp_path / "r2.csv"
        for out in (r1, r2):
            rc = main(["simulate", "--scenario", str(scene), "--seed", "3", "--out", str(out)])
            assert rc == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert r1.with_suffix(".json").read_bytes() == r2.with_suffix(".json").read_bytes()

    def test_gen_scene_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        d1.mkdir(), d2.mkdir()
        args = ["--cameras", "2", "--vehicles", "8", "--overlap", "0.3", "--seed", "7"]
        assert main(["gen-scene", *args, "--out", str(d1 / "scene.json")]) == 0
        assert main(["gen-scene", *args, "--out", str(d2 / "scene.json")]) == 0
        assert (d1 / "scene.json").read_bytes() == (d2 / "scene.json").read_bytes()
        assert (d1 / "scene_features_0.csv").read_bytes() == (d2 / "scene_features_0.csv").read_bytes()

    def test_node_without_features_fails_its_pair(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        assert main(["gen-scene", "--cameras", "2", "--seed", "1", "--frames", "1",
                     "--out", str(scene)]) == 0
        feats = tmp_path / "scene_features_1.csv"
        feats.write_text(feats.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        rc = main(["simulate", "--scenario", str(scene), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "calibration failed for pair (1, 0): no features on one side" in err
        assert not (tmp_path / "r.csv").exists()

    def test_first_failing_pair_in_sender_order_is_named(self, tmp_path, capsys):
        # senders calibrate in id order, each to its sorted neighbors: 0 -> 1, 1 -> 0, then
        # 1 -> 2 is the first pair where node 2, which has no features, receives
        scene = tmp_path / "scene.json"
        assert main(["gen-scene", "--cameras", "4", "--seed", "1", "--frames", "1",
                     "--out", str(scene)]) == 0
        doc = json.loads(scene.read_text())
        del doc["nodes"][2]["features_file"]
        scene.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["simulate", "--scenario", str(scene), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "calibration failed for pair (2, 1): no features on one side" in err

    def test_infeasible_overlap_exits_two(self, tmp_path):
        rc = main(["gen-scene", "--cameras", "4", "--overlap", "0.8",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2


GOOD_DETECTION = {"polygon": [0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 4.0], "score": 1.0}


class TestMalformedScenario:
    """Every malformed frame or detection entry is a ParseError (exit 1)
    naming the node, frame and detection index, never a traceback."""

    def run_simulate(self, tmp_path, capsys, frames):
        doc = {
            "nodes": [{"id": 0, "neighbors": [], "width": 32, "height": 32, "frames": frames}],
            "frames": ["f0"],
        }
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(scene), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "detection, reason",
        [
            pytest.param({"score": 1.0}, "list of 3 or more x,y pairs", id="missing-key"),
            pytest.param({"polygon": 5}, "list of 3 or more x,y pairs", id="not-a-list"),
            pytest.param(
                {"polygon": [0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0]}, "list of 3 or more x,y pairs",
                id="odd-count",
            ),
            pytest.param(
                {"polygon": [0.0, 0.0, 4.0, 4.0]}, "list of 3 or more x,y pairs", id="two-vertices"
            ),
            pytest.param(
                {"polygon": [0.0, 0.0, "4", 0.0, 4.0, 4.0]}, "numeric polygon coordinates",
                id="non-numeric",
            ),
            pytest.param(
                {"polygon": [0.0, 0.0, 4.0, 4.0, 4.0, 0.0, 0.0, 2.0]}, "self-intersecting",
                id="bow-tie",
            ),
            pytest.param({"polygon": [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]}, "zero area", id="collinear"),
            pytest.param({"polygon": [0.0, 0.0, 1e200, 0.0, 0.0, 1e200]}, "within [-1e100, 1e100]",
                         id="huge"),
            # np.dot gives this sliver an area of 2.2e-16; its centroid's sum is exactly 0
            pytest.param({"polygon": [0.4654651523800791, 0.8850662076476481] * 2
                          + [2.2814616647878854, 2.189733470562865]}, "zero area", id="sliver"),
            pytest.param(
                {"polygon": GOOD_DETECTION["polygon"], "score": "high"}, "and score", id="bad-score"
            ),
            pytest.param(
                {"polygon": GOOD_DETECTION["polygon"], "vehicle_id": [3]}, "integer vehicle_id",
                id="bad-vehicle-id",
            ),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_detection(self, tmp_path, capsys, detection, reason):
        frames = [{"frame_id": "f0", "detections": [GOOD_DETECTION, detection]}]
        err = self.run_simulate(tmp_path, capsys, frames)
        assert "node #0 frame #0 detection #1" in err
        assert reason in err

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, 1.5, -0.2],
                             ids=["nan", "inf", "minus-inf", "above-one", "negative"])
    def test_score_outside_the_unit_interval(self, tmp_path, capsys, score):
        scene = tmp_path / "scene.json"
        assert main(["gen-scene", "--cameras", "2", "--seed", "1", "--frames", "1",
                     "--out", str(scene)]) == 0
        doc = json.loads(scene.read_text())
        doc["nodes"][1]["frames"][0]["detections"][0]["score"] = score
        scene.write_text(json.dumps(doc))  # NaN and Infinity as JSON's non-standard literals
        capsys.readouterr()
        rc = main(["simulate", "--scenario", str(scene), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert "node #1 frame #0 detection #0 needs a score in [0, 1]" in err

    @pytest.mark.parametrize(
        "frame",
        [
            pytest.param({"detections": []}, id="missing-frame-id"),
            pytest.param({"frame_id": ["f0"], "detections": []}, id="unhashable-frame-id"),
            pytest.param(5, id="not-an-object"),
            pytest.param({"frame_id": "f0", "detections": {}}, id="detections-not-a-list"),
        ],
    )
    def test_bad_frame(self, tmp_path, capsys, frame):
        err = self.run_simulate(tmp_path, capsys, [frame])
        want = "node #0 frame #0 needs a string or integer 'frame_id' and a 'detections' list"
        assert want in err

    @pytest.mark.parametrize(
        "edit, where",
        [
            pytest.param(lambda doc: doc["frames"].append("frame-000"),
                         "scenario 'frames' #1 repeats 'frame-000'", id="frames"),
            pytest.param(lambda doc: doc["nodes"][1]["frames"].append(
                             {"frame_id": "frame-000", "detections": []}),
                         "node #1 frame #1 repeats frame_id 'frame-000'", id="node-frame"),
            pytest.param(lambda doc: doc["ground_truth"]["frames"].append(
                             {"frame_id": "frame-000", "global_count": 99}),
                         "ground_truth frame #1 repeats frame_id 'frame-000'", id="truth-frame"),
            pytest.param(lambda doc: doc["ground_truth"]["homographies"].append(
                             doc["ground_truth"]["homographies"][0]),
                         "ground_truth homography #2 repeats (src, dst) (0, 1)",
                         id="truth-homography"),
        ],
    )
    def test_repeated_id(self, tmp_path, capsys, edit, where):
        scene = tmp_path / "scene.json"
        assert main(["gen-scene", "--cameras", "2", "--seed", "1", "--frames", "1",
                     "--out", str(scene)]) == 0
        doc = json.loads(scene.read_text())
        edit(doc)
        scene.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["simulate", "--scenario", str(scene), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert where in err

    def test_repeated_neighbor_id_is_accepted(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        assert main(["gen-scene", "--cameras", "2", "--seed", "1", "--frames", "1",
                     "--out", str(scene)]) == 0
        assert main(["simulate", "--scenario", str(scene), "--out", str(tmp_path / "a.csv")]) == 0
        doc = json.loads(scene.read_text())
        doc["nodes"][0]["neighbors"] = [1, 1, 1]
        scene.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(scene), "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestDensityCommand:
    def test_density_and_peaks(self, tmp_path, capsys):
        dots = tmp_path / "dots.csv"
        io.write_dots_csv(dots, [Point2(8.0, 8.0), Point2(24.0, 20.0)])
        out = tmp_path / "map.dmf"
        rc = main(["density", "--dots", str(dots), "--width", "32", "--height", "32",
                   "--sigma", "1.5", "--peaks", "2", "--out", str(out),
                   "--csv-out", str(tmp_path / "map.csv")])
        assert rc == 0
        density = io.read_density_dmf(out)
        assert density.values.sum() == pytest.approx(2.0, abs=1e-5)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("dots=2 integral=2.0")
        assert len([l for l in lines if l.startswith("peak,")]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "sigma, reason",
        [
            pytest.param("1e-320", "resolved to zero", id="square-underflows"),
            pytest.param("0.01", "covers no pixel", id="between-pixel-centres"),
        ],
    )
    def test_bandwidth_too_small_for_any_pixel(self, tmp_path, capsys, sigma, reason):
        dots = tmp_path / "dots.csv"
        dots.write_text(f"x,y,sigma\n4.0,5.0,1.5\n8.5,9.5,{sigma}\n")
        rc = main(["density", "--dots", str(dots), "--width", "16", "--height", "16",
                   "--out", str(tmp_path / "m.dmf")])
        err = capsys.readouterr().err
        assert rc == 2
        assert reason in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bandwidth_past_the_map_spreads_over_all_of_it(self, tmp_path, capsys):
        dots = tmp_path / "dots.csv"
        dots.write_text("x,y,sigma\n4.0,5.0,1e308\n")
        rc = main(["density", "--dots", str(dots), "--width", "8", "--height", "8",
                   "--out", str(tmp_path / "m.dmf")])
        assert (rc, capsys.readouterr().err) == (0, "")
        values = io.read_density_dmf(tmp_path / "m.dmf").values
        assert np.all(values == values[0, 0]) and values.sum() == pytest.approx(1.0)

    def test_requires_some_bandwidth(self, tmp_path):
        dots = tmp_path / "dots.csv"
        io.write_dots_csv(dots, [Point2(4.0, 4.0)])
        rc = main(["density", "--dots", str(dots), "--width", "16", "--height", "16",
                   "--out", str(tmp_path / "m.dmf")])
        assert rc == 1


class TestEvalCount:
    def make_files(self, tmp_path):
        pred_rows = [
            ("img0", 0, 0.9, None, Point2(5.0, 5.0)),
            ("img0", 0, 0.8, None, Point2(9.0, 9.0)),
            ("img1", 0, 0.9, None, Point2(4.0, 4.0)),
        ]
        gt_rows = [
            ("img0", 0, None, 7, Point2(5.0, 5.0)),
            ("img0", 0, None, 2, Point2(12.0, 12.0)),
            ("img1", 0, None, 7, Point2(4.0, 4.0)),
        ]
        io.write_detections_csv(tmp_path / "pred.csv", pred_rows)
        io.write_detections_csv(tmp_path / "gt.csv", gt_rows)
        return tmp_path / "pred.csv", tmp_path / "gt.csv"

    def test_basic_metrics(self, tmp_path, capsys):
        pred, gt = self.make_files(tmp_path)
        out = tmp_path / "metrics.csv"
        rc = main(["eval-count", "--pred", str(pred), "--gt", str(gt),
                   "--game", "1", "--width", "16", "--height", "16", "--out", str(out)])
        assert rc == 0
        table = {row.split(",")[0]: row.split(",")[1]
                 for row in out.read_text().splitlines()[1:]}
        # img0: gt 2 pred 2; img1: gt 1 pred 1 -> mae 0
        assert float(table["mae"]) == 0.0
        assert "game1" in table

    def test_agreement_filtering(self, tmp_path):
        pred, gt = self.make_files(tmp_path)
        out = tmp_path / "metrics.csv"
        rc = main(["eval-count", "--pred", str(pred), "--gt", str(gt),
                   "--min-agreement", "5", "--k", "7", "--out", str(out)])
        assert rc == 0
        table = {row.split(",")[0]: row.split(",")[1]
                 for row in out.read_text().splitlines()[1:]}
        # img0 keeps 1 gt (a=7), img1 keeps 1: preds 2 and 1 -> mae (1+0)/2
        assert float(table["mae"]) == pytest.approx(0.5)


class TestEvalDetect:
    def test_box_mode(self, tmp_path):
        preds = [
            ("img0", 0, 0.9, None, Polygon.box(0, 0, 4, 4)),
            ("img0", 0, 0.6, None, Polygon.box(50, 50, 54, 54)),
        ]
        gts = [
            ("img0", 0, None, None, Polygon.box(0, 0, 4, 4)),
            ("img0", 0, None, None, Polygon.box(10, 10, 14, 14)),
        ]
        io.write_detections_csv(tmp_path / "p.csv", preds)
        io.write_detections_csv(tmp_path / "g.csv", gts)
        out = tmp_path / "det.csv"
        rc = main(["eval-detect", "--pred", str(tmp_path / "p.csv"),
                   "--gt", str(tmp_path / "g.csv"), "--mode", "box", "--out", str(out)])
        assert rc == 0
        table = {row.split(",")[0]: float(row.split(",")[1])
                 for row in out.read_text().splitlines()[1:]}
        assert table["class0_precision"] == 0.5
        assert table["class0_recall"] == 0.5
        assert table["map"] == 0.5

    def test_point_mode(self, tmp_path):
        preds = [("img0", 0, 0.9, None, Point2(1.0, 1.0))]
        gts = [("img0", 0, None, None, Point2(1.5, 1.0))]
        io.write_detections_csv(tmp_path / "p.csv", preds)
        io.write_detections_csv(tmp_path / "g.csv", gts)
        out = tmp_path / "det.csv"
        rc = main(["eval-detect", "--pred", str(tmp_path / "p.csv"),
                   "--gt", str(tmp_path / "g.csv"), "--mode", "point",
                   "--radius", "2.0", "--out", str(out)])
        assert rc == 0
        table = {row.split(",")[0]: float(row.split(",")[1])
                 for row in out.read_text().splitlines()[1:]}
        assert table["map"] == 1.0


class TestRescoreCommands:
    def make_samples(self, tmp_path, rng, n=160):
        samples = []
        for _ in range(n):
            a = int(rng.integers(0, 8))
            samples.append(
                AgreementSample(np.array([a / 7 + rng.normal(0, 0.05), rng.normal()]), a)
            )
        path = tmp_path / "samples.csv"
        io.write_samples_csv(path, samples)
        return path

    def test_train_then_eval(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        samples = self.make_samples(tmp_path, rng)
        model = tmp_path / "model.json"
        trace = tmp_path / "trace.csv"
        rc = main(["rescore-train", "--samples", str(samples), "--method", "OR",
                   "--epochs", "40", "--seed", "2", "--out", str(model),
                   "--trace", str(trace)])
        assert rc == 0
        assert trace.read_text().splitlines()[0] == "epoch,loss"
        out = tmp_path / "eval.csv"
        rc = main(["rescore-eval", "--samples", str(samples), "--model", str(model),
                   "--threshold", "0.5", "--out", str(out)])
        assert rc == 0
        table = {row.split(",")[0]: row.split(",")[1]
                 for row in out.read_text().splitlines()[1:]}
        assert float(table["pearson_r"]) > 0.9

    def test_diverging_run_exits_one_without_a_model(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        samples = tmp_path / "samples.csv"
        io.write_samples_csv(samples, [AgreementSample(rng.normal(size=7), int(rng.integers(0, 10)))
                                       for _ in range(134)])
        model = tmp_path / "model.json"
        with np.errstate(all="ignore"):
            rc = main(["rescore-train", "--samples", str(samples), "--method", "AR", "--k", "9",
                       "--lr", "2.5", "--batch", "1", "--epochs", "4", "--out", str(model)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "diverged in epoch 2" in err and "Traceback" not in err
        assert not model.exists()

    def test_diverging_run_prints_no_numpy_warnings(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        samples = tmp_path / "samples.csv"
        rows = [AgreementSample(rng.normal(size=7), int(rng.integers(0, 10))) for _ in range(134)]
        io.write_samples_csv(samples, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["rescore-train", "--samples", str(samples), "--method", "AR", "--k", "9",
                       "--lr", "1e3", "--batch", "1", "--epochs", "3",
                       "--out", str(tmp_path / "model.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.strip().endswith("lower the learning rate")
        assert "diverged in epoch 1" in err and "Warning" not in err

    def test_train_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = self.make_samples(tmp_path, rng, n=60)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["rescore-train", "--samples", str(samples), "--method", "RL",
                "--epochs", "5", "--seed", "4"]
        assert main([*args, "--out", str(m1)]) == 0
        assert main([*args, "--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()


class TestMalformedRescoreInputs:
    """A bad sample cell, model entry or detection polygon is a ParseError
    (exit 1) that names its position, never a traceback."""

    def run(self, capsys, argv):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "row, where",
        [
            pytest.param("2,0.5,nan", "line 3, column 3", id="nan-feature"),
            pytest.param("2,inf,0.5", "line 3, column 2", id="inf-feature"),
            pytest.param("-1,0.5,0.5", "line 3, column 1", id="negative-agreement"),
            pytest.param("99999999999999999999999,0.5,0.5", "line 3, column 1",
                         id="agreement-beyond-2-53"),
            pytest.param("2,0.5,x", "line 3, column 3", id="non-numeric"),
        ],
    )
    def test_bad_sample_cell(self, tmp_path, capsys, row, where):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"agreement,f0,f1\n1,0.25,0.5\n{row}\n")
        err = self.run(capsys, ["rescore-train", "--samples", str(samples),
                                "--out", str(tmp_path / "m.json")])
        assert where in err

    @pytest.mark.parametrize("agreement, rc", [("9007199254740992", 0), ("1e300", 1)])
    def test_rescore_eval_agreement_bound(self, tmp_path, capsys, agreement, rc):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"agreement,f0,f1\n1,0.25,0.5\n{agreement},0.5,0.25\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"head": "scalar", "weights": [1.0, 2.0], "bias": 0.0}))
        argv = ["rescore-eval", "--samples", str(samples), "--model", str(model),
                "--out", str(tmp_path / "e.csv")]
        if rc == 0:
            assert main(argv) == 0
        else:
            err = self.run(capsys, argv)
            assert "line 3, column 1" in err and "2**53" in err

    @pytest.mark.parametrize(
        "doc, reason",
        [
            pytest.param({"head": "linear", "weights": [1.0], "bias": 0.0}, "unknown head",
                         id="unknown-head"),
            pytest.param({"head": "scalar", "weights": [[1.0, 2.0]], "bias": 0.0}, "weight vector",
                         id="scalar-weights-rank"),
            pytest.param({"head": "categorical", "weights": [1.0, 2.0], "bias": [0.0, 0.0]},
                         "weight matrix", id="categorical-weights-rank"),
            pytest.param({"head": "categorical", "weights": [[1.0, 2.0], [0.0, 1.0]],
                          "bias": [0.0, 0.0, 0.0]}, "bias length", id="bias-length"),
            pytest.param({"head": "scalar", "weights": [1.0, 2.0], "bias": [0.0, 1.0]},
                         "single bias", id="scalar-bias-list"),
            pytest.param({"head": "scalar", "weights": [1.0, 2.0], "bias": 0.0,
                          "thetas": [0.5, -0.5]}, "strictly increasing", id="unordered-thetas"),
            pytest.param({"head": "scalar", "weights": [1.0, "x"], "bias": 0.0},
                         "'weights' must be", id="non-numeric-weights"),
            pytest.param({"head": "scalar", "weights": [1.0, 2.0], "bias": None},
                         "'bias' holds a non-finite", id="null-bias"),
            pytest.param([1.0], "JSON object", id="not-an-object"),
        ],
    )
    def test_bad_model(self, tmp_path, capsys, doc, reason):
        samples = tmp_path / "samples.csv"
        samples.write_text("agreement,f0,f1\n1,0.25,0.5\n2,0.5,0.25\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        err = self.run(capsys, ["rescore-eval", "--samples", str(samples), "--model", str(model),
                                "--out", str(tmp_path / "e.csv")])
        assert "line 1, column 1" in err
        assert reason in err

    def test_bad_detection_polygon(self, tmp_path, capsys):
        good = "img,0,1.0,0.0,0.0,4.0,0.0,4.0,4.0"
        bow_tie = "img,0,0.5,0.0,0.0,4.0,4.0,4.0,0.0,0.0,2.0"
        (tmp_path / "p.csv").write_text(f"image_id,class_id,score,geom\n{good}\n{bow_tie}\n")
        (tmp_path / "g.csv").write_text(f"image_id,class_id,geom\n{good.replace(',1.0', '')}\n")
        err = self.run(capsys, ["eval-detect", "--pred", str(tmp_path / "p.csv"),
                                "--gt", str(tmp_path / "g.csv"), "--out", str(tmp_path / "m.csv")])
        assert "self-intersecting" in err
        assert "line 3, column 4" in err


class TestMalformedNumericCells:
    """A non-finite cell, or one the built object rejects, in a dots, skeleton,
    positions or detections file is a ParseError (exit 1) at its line and
    column, never a traceback."""

    def run(self, capsys, argv, where):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert where in err
        return err

    def test_dots_non_utf8_byte_is_positioned_in_the_file(self, tmp_path, capsys):
        dots = tmp_path / "dots.csv"
        dots.write_bytes(b"x,y\n" + b"1.0,2.0\n" * 1500 + b"3.0,\xff\n")
        self.run(capsys, ["density", "--dots", str(dots), "--width", "16", "--height", "16",
                          "--out", str(tmp_path / "d.dmf")], "not UTF-8 text at byte offset 12008")

    def test_dots_sigma_inf(self, tmp_path, capsys):
        dots = tmp_path / "dots.csv"
        dots.write_text("x,y,sigma\n4.0,5.0,1.5\n8.0,9.0,inf\n")
        self.run(capsys, ["density", "--dots", str(dots), "--width", "16", "--height", "16",
                          "--out", str(tmp_path / "d.dmf")], "line 3, column 3")

    @pytest.mark.parametrize(
        "row, where",
        [
            pytest.param("100.0,inf,10.0", "line 3, column 2", id="inf-width"),
            pytest.param("100.0,40.0,0.0", "line 3, column 3", id="zero-distance"),
            pytest.param("100.0,40.0,1e-320", "line 3, column 3", id="subnormal-distance"),
            pytest.param("1e200,40.0,10.0", "line 3, column 1", id="huge-height"),
        ],
    )
    def test_skeleton_cell(self, tmp_path, capsys, row, where):
        boxes = tmp_path / "boxes.csv"
        boxes.write_text(f"h_s,w_s,z\n100.0,40.0,10.0\n{row}\n")
        out = tmp_path / "out.csv"
        self.run(capsys, ["sanitize-bboxes", "--in", str(boxes), "--alpha", "1.2",
                          "--out", str(out)], where)
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "row, where",
        [
            pytest.param("80.0,32.0,1e-320,125.0", "line 3, column 3", id="subnormal-distance"),
            pytest.param("80.0,32.0,20.0,1e200", "line 3, column 4", id="huge-measured-height"),
        ],
    )
    def test_skeleton_cell_before_the_alpha_fit(self, tmp_path, capsys, row, where):
        boxes = tmp_path / "boxes.csv"
        boxes.write_text(f"h_s,w_s,z,h_m\n100.0,40.0,10.0,190.0\n{row}\n")
        out = tmp_path / "out.csv"
        self.run(capsys, ["sanitize-bboxes", "--in", str(boxes), "--out", str(out)], where)
        assert not out.exists()

    def test_nan_position(self, tmp_path, capsys):
        positions = tmp_path / "pos.csv"
        positions.write_text("x,y\n1.0,2.0\n3.0,nan\n")
        self.run(capsys, ["distance-check", "--positions", str(positions),
                          "--out", str(tmp_path / "v.csv")], "line 3, column 2")

    @pytest.mark.parametrize("sigma", ["0.0", "-1.5"])
    @pytest.mark.parametrize("fixed", [[], ["--sigma", "2.0"]], ids=["column", "fixed"])
    def test_dots_sigma_not_positive(self, tmp_path, capsys, sigma, fixed):
        # the reader refuses the cell even when --sigma leaves the column unused
        dots = tmp_path / "dots.csv"
        dots.write_text(f"x,y,sigma\n4.0,5.0,1.5\n8.0,9.0,{sigma}\n")
        self.run(capsys, ["density", "--dots", str(dots), "--width", "16", "--height", "16",
                          *fixed, "--out", str(tmp_path / "d.dmf")], "line 3, column 3")

    @pytest.mark.parametrize("score", ["1.5", "-0.25"])
    @pytest.mark.parametrize(
        "command", [["eval-detect", "--mode", "point"], ["eval-count"]], ids=["detect", "count"]
    )
    def test_detection_score_outside_unit_interval(self, tmp_path, capsys, score, command):
        # eval-count reads the same files and refuses them too, though it only thresholds scores
        (tmp_path / "p.csv").write_text(f"image_id,class_id,score,geom\nimg,0,{score},1.0,2.0\n")
        (tmp_path / "g.csv").write_text("image_id,class_id,geom\nimg,0,1.0,2.0\n")
        self.run(capsys, [*command, "--pred", str(tmp_path / "p.csv"), "--gt",
                          str(tmp_path / "g.csv"), "--out", str(tmp_path / "m.csv")],
                 "line 2, column 3")

    @pytest.mark.parametrize(
        "command", [["eval-detect", "--mode", "point"], ["eval-count"]], ids=["detect", "count"]
    )
    def test_negative_class_id(self, tmp_path, capsys, command):
        (tmp_path / "p.csv").write_text("image_id,class_id,geom\nimg,0,1.0,2.0\nimg,-1,3.0,4.0\n")
        (tmp_path / "g.csv").write_text("image_id,class_id,geom\nimg,0,1.0,2.0\n")
        err = self.run(capsys, [*command, "--pred", str(tmp_path / "p.csv"), "--gt",
                                str(tmp_path / "g.csv"), "--out", str(tmp_path / "m.csv")],
                       "line 3, column 2")
        assert "non-negative integer" in err

    @pytest.mark.parametrize(
        "command", [["eval-detect", "--mode", "point"], ["eval-count", "--min-agreement", "1"]],
        ids=["detect", "count"],
    )
    def test_negative_agreement(self, tmp_path, capsys, command):
        (tmp_path / "p.csv").write_text("image_id,class_id,geom\nimg,0,1.0,2.0\n")
        (tmp_path / "g.csv").write_text(
            "image_id,class_id,agreement,geom\nimg,0,7,1.0,2.0\nimg,0,-3,3.0,4.0\n"
        )
        err = self.run(capsys, [*command, "--pred", str(tmp_path / "p.csv"), "--gt",
                                str(tmp_path / "g.csv"), "--out", str(tmp_path / "m.csv")],
                       "line 3, column 3")
        assert "non-negative integer" in err

    def test_geometry_column_after_an_empty_cell(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text("image_id,class_id,geom\nimg,0,1.0,2.0,,x,3.0\n")
        (tmp_path / "g.csv").write_text("image_id,class_id,geom\nimg,0,1.0,2.0\n")
        self.run(capsys, ["eval-detect", "--pred", str(tmp_path / "p.csv"), "--gt",
                          str(tmp_path / "g.csv"), "--mode", "point",
                          "--out", str(tmp_path / "m.csv")], "line 2, column 6")

    def test_line_after_a_quoted_cell_spanning_lines(self, tmp_path, capsys):
        # the image id of line 2 runs on to line 3; the bad cell is on line 4
        (tmp_path / "p.csv").write_text(
            'image_id,class_id,geom\n"img\nA",0,1.0,2.0\nimg,0,nan,2.0\n'
        )
        (tmp_path / "g.csv").write_text("image_id,class_id,geom\nimg,0,1.0,2.0\n")
        self.run(capsys, ["eval-detect", "--pred", str(tmp_path / "p.csv"), "--gt",
                          str(tmp_path / "g.csv"), "--mode", "point",
                          "--out", str(tmp_path / "m.csv")], "line 4, column 3")

    def test_matrix_line_after_a_quoted_cell_spanning_lines(self, tmp_path, capsys):
        positions = tmp_path / "pos.csv"
        positions.write_text('x,y\n"1.0\n",2.0\n3.0,nan\n')
        self.run(capsys, ["distance-check", "--positions", str(positions),
                          "--out", str(tmp_path / "v.csv")], "line 4, column 2")

    def test_nan_detection_point(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text("image_id,class_id,score,geom\nimg,0,0.5,nan,2.0\n")
        (tmp_path / "g.csv").write_text("image_id,class_id,geom\nimg,0,1.0,2.0\n")
        self.run(capsys, ["eval-detect", "--pred", str(tmp_path / "p.csv"), "--gt",
                          str(tmp_path / "g.csv"), "--mode", "point",
                          "--out", str(tmp_path / "m.csv")], "line 2, column 4")


class TestEvaluationInputs:
    """Ground truths of the wrong shape, GAME points off the map and huge
    coordinates exit 1 with one line naming the problem, or run to the end;
    never a traceback or a RuntimeWarning."""

    def run(self, tmp_path, capsys, command, pred_rows, gt_rows, *flags):
        (tmp_path / "p.csv").write_text("image_id,class_id,score,geom\n" + "".join(
            f"img,0,0.9,{geom}\n" for geom in pred_rows))
        (tmp_path / "g.csv").write_text("image_id,class_id,geom\n" + "".join(
            f"img,0,{geom}\n" for geom in gt_rows))
        rc = main([command, "--pred", str(tmp_path / "p.csv"), "--gt", str(tmp_path / "g.csv"),
                   *flags, "--out", str(tmp_path / "m.csv")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, pred_rows, gt_rows, reason", [
        pytest.param("eval-detect", ["--mode", "box"], ["0,0,4,0,4,4"], ["1.0,2.0"],
                     "box matching needs Polygon ground-truth shapes", id="box-mode-point-gt"),
        pytest.param("eval-detect", ["--mode", "point"], ["1.0,2.0"], ["0,0,4,0,4,4"],
                     "point matching needs Point2 ground-truth shapes", id="point-mode-polygon-gt"),
        pytest.param("eval-count", ["--game", "1", "--width", "10", "--height", "10"],
                     ["1.0,2.0"], ["15.0,2.0"], "--gt point (15.0, 2.0) in image 'img' lies "
                     "outside [0, 10) x [0, 10)", id="game-point-past-the-width"),
        pytest.param("eval-count", ["--game", "1", "--width", "10", "--height", "10"],
                     ["-3.5,2.0"], ["1.0,2.0"], "--pred point (-3.5, 2.0)", id="game-negative-x"),
        pytest.param("eval-count", ["--game", "1", "--width", "10", "--height", "10"],
                     ["1.0,2.0"], ["0,0,4,0,4,4"], "GAME needs point rows; --gt has a polygon",
                     id="game-polygon-row"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused(self, tmp_path, capsys, command, flags, pred_rows, gt_rows, reason):
        rc, err = self.run(tmp_path, capsys, command, pred_rows, gt_rows, *flags)
        assert rc == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert reason in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_point_at_1e200_never_pairs(self, tmp_path, capsys):
        rc, err = self.run(tmp_path, capsys, "eval-detect", ["1e200,1.0", "-1e200,2.0"],
                           ["1.0,1.0"], "--mode", "point")
        assert (rc, err) == (0, "")
        assert "class0_recall,0.0" in (tmp_path / "m.csv").read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_detection_polygon_at_1e200_is_positioned(self, tmp_path, capsys):
        rc, err = self.run(tmp_path, capsys, "eval-detect", ["0,0,4,0,4,4", "0,0,1e200,0,0,1e200"],
                           ["0,0,4,0,4,4"])
        assert rc == 1
        assert "line 3, column 4" in err and "within [-1e100, 1e100]" in err


class TestSanitize:
    def test_fit_and_pad(self, tmp_path, capsys):
        path = tmp_path / "boxes.csv"
        rows = ["h_s,w_s,z,h_m"]
        for h_s, z in ((100.0, 10.0), (80.0, 20.0), (60.0, 35.0), (40.0, 50.0)):
            rows.append(f"{h_s},{h_s * 0.4},{z},{h_s + 900.0 / z}")
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.csv"
        rc = main(["sanitize-bboxes", "--in", str(path), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "fitted alpha=900.0" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "h_s,w_s,z,h_m,w_m"
        assert len(lines) == 4  # z=50 pruned at the default 40 m horizon

    def test_explicit_alpha(self, tmp_path):
        path = tmp_path / "boxes.csv"
        path.write_text("h_s,w_s,z\n100.0,40.0,10.0\n")
        out = tmp_path / "out.csv"
        rc = main(["sanitize-bboxes", "--in", str(path), "--alpha", "200.0", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1] == "100.0,40.0,10.0,120.0,48.0"

    def test_no_alpha_no_measured_column(self, tmp_path):
        path = tmp_path / "boxes.csv"
        path.write_text("h_s,w_s,z\n100.0,40.0,10.0\n")
        rc = main(["sanitize-bboxes", "--in", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1


class TestDistanceCheck:
    def test_pixel_positions_with_calibration(self, tmp_path, capsys):
        pos = tmp_path / "pos.csv"
        io.write_positions_csv(pos, [Point2(0, 0), Point2(80, 0), Point2(300, 0)])
        hom = tmp_path / "h.json"
        io.write_homography_json(hom, Homography(np.diag([0.01, 0.01, 1.0])))
        out = tmp_path / "v.csv"
        rc = main(["distance-check", "--positions", str(pos), "--homography", str(hom),
                   "--threshold", "1.0", "--out", str(out)])
        assert rc == 0
        # 80 px -> 0.8 m violation; 300 px -> 3 m is fine
        assert out.read_text().splitlines()[1] == "0,0;1"

    def test_no_violations(self, tmp_path):
        pos = tmp_path / "pos.csv"
        io.write_positions_csv(pos, [Point2(0, 0), Point2(5, 0)])
        out = tmp_path / "v.csv"
        rc = main(["distance-check", "--positions", str(pos), "--threshold", "1.0",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines() == ["group,members"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distances_never_violate(self, tmp_path, capsys):
        pos = tmp_path / "pos.csv"
        io.write_positions_csv(pos, [Point2(1e200, 0), Point2(-1e200, 0), Point2(0, -1e200),
                                     Point2(1e200, 0.5)])
        out = tmp_path / "v.csv"
        rc = main(["distance-check", "--positions", str(pos), "--threshold", "1.0",
                   "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (0, "")
        assert out.read_text().splitlines() == ["group,members", "0,0;3"]


class TestDispatch:
    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_missing_input_file_is_clean_validation_error(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "missing.json" in err and "Traceback" not in err

    def test_simulate_into_a_missing_directory_fails_before_running(self, tmp_path, capsys,
                                                                     monkeypatch):
        scene = tmp_path / "scene.json"
        assert main(["gen-scene", "--vehicles", "4", "--out", str(scene)]) == 0
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.setattr("meshcount.cli.run_scenario", lambda *a: pytest.fail("ran"))
        out = tmp_path / "nodir" / "r.csv"
        rc = main(["simulate", "--scenario", str(scene), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_gen_scene_into_a_missing_directory_names_the_path_given(self, tmp_path, capsys,
                                                                     monkeypatch):
        monkeypatch.setattr("meshcount.cli.generate_scene", lambda *a: pytest.fail("ran"))
        out = tmp_path / "nodir" / "s.json"
        rc = main(["gen-scene", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(out) in err and "features" not in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_density_csv_out_into_a_missing_directory_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "dots.csv").write_text("x,y\n3,4\n")
        csv_out = tmp_path / "nodir" / "d.csv"
        rc = main(["density", "--dots", str(tmp_path / "dots.csv"), "--width", "8",
                   "--height", "8", "--sigma", "1", "--out", str(tmp_path / "d.dmf"),
                   "--csv-out", str(csv_out)])
        assert rc == 1
        assert str(csv_out) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dots.csv"]

    def test_every_command_is_registered(self):
        from meshcount.cli import _COMMANDS

        assert sorted(_COMMANDS) == [
            "calibrate", "density", "distance-check", "eval-count", "eval-detect",
            "gen-scene", "rescore-eval", "rescore-train", "sanitize-bboxes", "simulate",
        ]
