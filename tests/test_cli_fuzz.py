"""Seeded mutations of one valid input file per subcommand, run through
``main`` with RuntimeWarning as an error: every run must end in exit code 0,
1 or 2, with no exception escaping.

``gen-scene`` reads no file and so has no case here.
"""

import json
import random
import re
import warnings

import numpy as np
import pytest

from meshcount import io
from meshcount.cli import main
from meshcount.geometry import Correspondence, Homography, Point2, Polygon, project_point
from meshcount.matching import Feature
from meshcount.rescoring import AgreementSample

N_MUTATIONS = 40
SPECIALS = (b"-1", b"1e-320", b"1e400", b"nan", b"99999999999999999999999")
INSERTS = (b",", b'"', b"\n", b"\xff")
NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One edit: swap a numeric token for a special value (half the time), cut
    up to 8 bytes, or insert one byte."""
    kind = rng.choice(("swap", "swap", "cut", "insert"))
    numbers = [m.span() for m in NUMBER.finditer(data)]
    if kind == "swap" and numbers:
        a, b = rng.choice(numbers)
        return data[:a] + rng.choice(SPECIALS) + data[b:]
    if kind == "cut":
        a = rng.randrange(len(data))
        return data[:a] + data[a + rng.randint(1, 8):]
    a = rng.randrange(len(data) + 1)
    return data[:a] + rng.choice(INSERTS) + data[a:]


def feature_files(tmp_path):
    rng = np.random.default_rng(3)
    world = rng.uniform(0, 200, (24, 2))
    desc = rng.normal(0, 1, (24, 6))
    for name, shift in (("a.csv", 0.0), ("b.csv", 40.0)):
        io.write_features_csv(tmp_path / name, [
            Feature(Point2(float(x + shift), float(y)), d + rng.normal(0, 0.02, 6))
            for (x, y), d in zip(world, desc)
        ])


def case_calibrate_features(tmp_path):
    feature_files(tmp_path)
    return "a.csv", ["calibrate", "--features-a", "a.csv", "--features-b", "b.csv",
                     "--max-iter", "50"]


def case_calibrate_correspondences(tmp_path):
    rng = np.random.default_rng(4)
    h = Homography(np.array([[1.1, 0.05, 20.0], [-0.02, 0.95, 5.0], [1e-4, 0.0, 1.0]]))
    pts = rng.uniform(0, 200, (12, 2))
    corrs = [Correspondence(Point2(x, y), project_point(h, Point2(x, y))) for x, y in pts.tolist()]
    io.write_correspondences_csv(tmp_path / "c.csv", corrs)
    return "c.csv", ["calibrate", "--correspondences", "c.csv", "--max-iter", "50"]


def case_simulate(tmp_path):
    assert main(["gen-scene", "--cameras", "2", "--vehicles", "3", "--width", "200",
                 "--height", "100", "--overlap", "0.5", "--seed", "2",
                 "--out", str(tmp_path / "scene.json")]) == 0
    return "scene.json", ["simulate", "--scenario", "scene.json"]


def case_density(tmp_path):
    io.write_dots_csv(tmp_path / "dots.csv", [Point2(3.0, 4.0), Point2(10.5, 7.0),
                                              Point2(12.0, 13.5)], [1.5, 2.0, 1.0])
    return "dots.csv", ["density", "--dots", "dots.csv", "--width", "16", "--height", "16",
                        "--peaks", "2"]


def detection_files(tmp_path, geoms):
    io.write_detections_csv(tmp_path / "pred.csv", [
        ("img0", k % 2, 0.9 - 0.1 * k, None, g) for k, g in enumerate(geoms)])
    io.write_detections_csv(tmp_path / "gt.csv", [
        ("img0", k % 2, None, 7 - k, g) for k, g in enumerate(geoms)])


def case_eval_count(tmp_path):
    detection_files(tmp_path, [Point2(5.0, 5.0), Point2(9.0, 9.0), Point2(2.0, 12.0)])
    return "gt.csv", ["eval-count", "--pred", "pred.csv", "--gt", "gt.csv",
                      "--min-agreement", "1", "--game", "1", "--width", "16", "--height", "16"]


def case_eval_detect_box(tmp_path):
    detection_files(tmp_path, [Polygon.box(0, 0, 4, 4), Polygon.box(6, 1, 9, 5),
                               Polygon([(10, 10), (14, 10), (12, 13)])])
    return "pred.csv", ["eval-detect", "--pred", "pred.csv", "--gt", "gt.csv", "--mode", "box"]


def case_eval_detect_point(tmp_path):
    detection_files(tmp_path, [Point2(5.0, 5.0), Point2(9.0, 9.0), Point2(2.0, 12.0)])
    return "pred.csv", ["eval-detect", "--pred", "pred.csv", "--gt", "gt.csv",
                        "--mode", "point", "--radius", "2.0"]


def sample_file(tmp_path):
    rng = np.random.default_rng(5)
    io.write_samples_csv(tmp_path / "samples.csv", [
        AgreementSample(rng.normal(a / 7.0, 0.3, 3), a) for a in list(range(8)) * 2])


def case_rescore_train(tmp_path):
    sample_file(tmp_path)
    return "samples.csv", ["rescore-train", "--samples", "samples.csv", "--method", "AR",
                           "--epochs", "3", "--batch", "4"]


def case_rescore_eval(tmp_path):
    sample_file(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(
        {"head": "scalar", "weights": [0.5, -0.25, 1.0], "bias": 0.1}))
    return "samples.csv", ["rescore-eval", "--samples", "samples.csv", "--model", "model.json",
                           "--threshold", "0.5"]


def case_sanitize_bboxes(tmp_path):
    rows = ["h_s,w_s,z,h_m"] + [f"{h},{h * 0.4},{z},{h + 900.0 / z}"
                                for h, z in ((100.0, 10.0), (80.0, 20.0), (60.0, 35.0))]
    (tmp_path / "boxes.csv").write_text("\n".join(rows) + "\n")
    return "boxes.csv", ["sanitize-bboxes", "--in", "boxes.csv"]


def case_distance_check(tmp_path):
    io.write_positions_csv(tmp_path / "pos.csv", [Point2(0, 0), Point2(80, 0), Point2(300, 5)])
    io.write_homography_json(tmp_path / "h.json", Homography(np.diag([0.01, 0.01, 1.0])))
    return "pos.csv", ["distance-check", "--positions", "pos.csv", "--homography", "h.json"]


CASES = [case_calibrate_features, case_calibrate_correspondences, case_simulate, case_density,
         case_eval_count, case_eval_detect_box, case_eval_detect_point, case_rescore_train,
         case_rescore_eval, case_sanitize_bboxes, case_distance_check]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__[5:].replace("_", "-"))
def test_mutated_input_ends_in_an_exit_code(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    target, argv = case(tmp_path)
    argv = [*argv, "--out", "out.csv" if argv[0] != "calibrate" else "out.json"]
    assert main(argv) == 0, capsys.readouterr().err  # the unmutated input is valid
    original = (tmp_path / target).read_bytes()
    for k in range(N_MUTATIONS):
        data = mutate(original, random.Random(f"{case.__name__}-{k}"))
        (tmp_path / target).write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rc = main(argv)
            except Exception as exc:  # any exception escaping main is the failure
                pytest.fail(f"mutation {k} ({data!r}) raised {exc!r}")
        assert rc in (0, 1, 2), f"mutation {k} ({data!r}) returned {rc!r}"
        assert "Traceback" not in capsys.readouterr().err
