import numpy as np
import pytest

from meshcount import io
from meshcount.density import DensityMap
from meshcount.errors import ParseError
from meshcount.geometry import Correspondence, Homography, Point2, Polygon
from meshcount.matching import Feature
from meshcount.protocol import ProtocolConfig, run_scenario
from meshcount.rescoring import AgreementSample, ScorerModel
from meshcount.synth import SyntheticSceneSpec, generate_scene


class TestFeatureCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = [
            Feature(Point2(float(x), float(y)), rng.normal(0, 1, 8))
            for x, y in rng.uniform(0, 100, (12, 2))
        ]
        path = tmp_path / "f.csv"
        io.write_features_csv(path, feats)
        back = io.read_features_csv(path)
        assert len(back) == 12
        for a, b in zip(feats, back):
            assert (a.keypoint.x, a.keypoint.y) == (b.keypoint.x, b.keypoint.y)
            assert np.array_equal(a.descriptor, b.descriptor)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            io.read_features_csv(path)

    def test_bad_number_carries_position(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y,d0\n1.0,2.0,oops\n")
        with pytest.raises(ParseError) as err:
            io.read_features_csv(path)
        assert err.value.line == 2
        assert err.value.column == 3


class TestCorrespondenceCsv:
    def test_round_trip(self, tmp_path):
        corrs = [
            Correspondence(Point2(1.5, 2.25), Point2(-3.0, 4.125)),
            Correspondence(Point2(0.1, 0.2), Point2(0.3, 0.4)),
        ]
        path = tmp_path / "c.csv"
        io.write_correspondences_csv(path, corrs)
        back = io.read_correspondences_csv(path)
        assert [(c.src.x, c.src.y, c.dst.x, c.dst.y) for c in corrs] == [
            (c.src.x, c.src.y, c.dst.x, c.dst.y) for c in back
        ]


class TestDmf:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        # float32-representable values survive the format exactly
        values = rng.uniform(0, 5, (17, 23)).astype(np.float32).astype(np.float64)
        m = DensityMap(values)
        path = tmp_path / "m.dmf"
        io.write_density_dmf(path, m)
        back = io.read_density_dmf(path)
        assert np.array_equal(back.values, m.values)

    def test_truncation_reports_exact_offset(self, tmp_path):
        m = DensityMap(np.ones((4, 6)))
        path = tmp_path / "m.dmf"
        io.write_density_dmf(path, m)
        data = path.read_bytes()
        cut = len(data) - 7
        (tmp_path / "cut.dmf").write_bytes(data[:cut])
        with pytest.raises(ParseError) as err:
            io.read_density_dmf(tmp_path / "cut.dmf")
        assert err.value.offset == cut

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.dmf").write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ParseError) as err:
            io.read_density_dmf(tmp_path / "x.dmf")
        assert err.value.offset == 0

    def test_csv_export_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = DensityMap(rng.uniform(0, 3, (5, 7)))
        path = tmp_path / "m.csv"
        io.write_density_csv(path, m)
        back = io.read_density_csv(path)
        assert np.array_equal(back.values, m.values)


class TestScenarioJson:
    def test_round_trip_preserves_counts_and_geometry(self, tmp_path):
        spec = SyntheticSceneSpec(n_cameras=2, n_vehicles=8, overlap=0.5, n_frames=2, seed=3)
        scenario = generate_scene(spec)
        path = tmp_path / "scene.json"
        io.write_scenario_json(path, scenario)
        back = io.read_scenario_json(path)
        assert back.frames == scenario.frames
        assert back.ground_truth.global_counts == scenario.ground_truth.global_counts
        for n1, n2 in zip(scenario.nodes, back.nodes):
            assert n1.node_id == n2.node_id
            assert n1.neighbors == n2.neighbors
            for f in scenario.frames:
                v1 = [d.polygon.vertices.tolist() for d in n1.frames[f]]
                v2 = [d.polygon.vertices.tolist() for d in n2.frames[f]]
                assert v1 == v2
                assert [d.vehicle_id for d in n1.frames[f]] == [
                    d.vehicle_id for d in n2.frames[f]
                ]

    def test_round_trip_simulates_identically(self, tmp_path):
        spec = SyntheticSceneSpec(
            n_cameras=2, n_vehicles=8, overlap=0.5, n_frames=1,
            drop_rate=0.05, jitter_px=2.0, spurious_rate=0.05, seed=4,
        )
        scenario = generate_scene(spec)
        path = tmp_path / "scene.json"
        io.write_scenario_json(path, scenario)
        back = io.read_scenario_json(path)
        r1 = run_scenario(scenario, ProtocolConfig())
        r2 = run_scenario(back, ProtocolConfig())
        assert r1.frames == r2.frames

    def test_asymmetric_neighbors_name_both_ids(self, tmp_path):
        doc = {
            "nodes": [
                {"id": 0, "neighbors": [1], "width": 32, "height": 32, "frames": []},
                {"id": 1, "neighbors": [], "width": 32, "height": 32, "frames": []},
            ],
            "frames": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(__import__("json").dumps(doc))
        with pytest.raises(ValueError, match="0 and 1"):
            io.read_scenario_json(path)

    def test_invalid_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": [,]}')
        with pytest.raises(ParseError) as err:
            io.read_scenario_json(path)
        assert err.value.line == 1


class TestModelJson:
    def test_scalar_round_trip(self, tmp_path):
        m = ScorerModel(head="scalar", weights=np.array([0.5, -1.25]), bias=0.75,
                        thetas=np.array([-1.0, 0.0, 1.0]))
        path = tmp_path / "model.json"
        io.write_model_json(path, m)
        back = io.read_model_json(path)
        assert back.head == "scalar"
        assert np.array_equal(back.weights, m.weights)
        assert back.bias == m.bias
        assert np.array_equal(back.thetas, m.thetas)

    def test_categorical_round_trip(self, tmp_path):
        m = ScorerModel(head="categorical", weights=np.ones((8, 3)), bias=np.zeros(8))
        path = tmp_path / "model.json"
        io.write_model_json(path, m)
        back = io.read_model_json(path)
        assert back.head == "categorical"
        assert np.array_equal(back.weights, m.weights)
        assert back.thetas is None


class TestSamplesCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        samples = [
            AgreementSample(rng.normal(0, 1, 4), int(rng.integers(0, 8))) for _ in range(9)
        ]
        path = tmp_path / "s.csv"
        io.write_samples_csv(path, samples)
        back = io.read_samples_csv(path)
        for a, b in zip(samples, back):
            assert a.agreement == b.agreement
            assert np.array_equal(a.features, b.features)


class TestDetectionsCsv:
    def test_point_and_polygon_round_trip(self, tmp_path):
        rows = [
            ("img0", 0, 0.9, None, Point2(3.5, 4.25)),
            ("img0", 1, 0.4, 5, Polygon.box(0, 0, 2, 3)),
        ]
        path = tmp_path / "d.csv"
        io.write_detections_csv(path, rows)
        back = io.read_detections_csv(path)
        assert back[0]["image_id"] == "img0"
        assert isinstance(back[0]["geom"], Point2)
        assert back[0]["score"] == 0.9
        assert back[1]["agreement"] == 5
        assert isinstance(back[1]["geom"], Polygon)
        assert back[1]["geom"].area == 6.0

    def test_four_value_geometry_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("image_id,class_id,geom\nimg0,0,1.0,2.0,3.0,4.0\n")
        with pytest.raises(ParseError):
            io.read_detections_csv(path)

    def test_non_integer_class_id_rejected_with_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("image_id,class_id,score,geom\nimg0,0,0.5,1.0,2.0\nimg0,x,0.5,1.0,2.0\n")
        with pytest.raises(ParseError) as info:
            io.read_detections_csv(path)
        assert (info.value.line, info.value.column) == (3, 2)

    def test_non_integer_agreement_rejected_with_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("image_id,class_id,score,agreement,geom\nimg0,0,0.5,2.5,1.0,2.0\n")
        with pytest.raises(ParseError) as info:
            io.read_detections_csv(path)
        assert (info.value.line, info.value.column) == (2, 4)


class TestSkeletonCsv:
    def test_read_with_and_without_measured_height(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("h_s,w_s,z\n100.0,40.0,10.0\n")
        boxes, measured = io.read_skeleton_csv(path)
        assert measured is None
        assert boxes[0].h_s == 100.0
        path2 = tmp_path / "s2.csv"
        path2.write_text("h_s,w_s,z,h_m\n100.0,40.0,10.0,120.0\n")
        _, measured2 = io.read_skeleton_csv(path2)
        assert measured2 == [120.0]
