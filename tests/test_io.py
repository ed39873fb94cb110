import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# -- the one CSV codec ------------------------------------------------------------


def tricky_floats(seed, n):
    """``n`` finite doubles: edge values first, then random bit patterns of
    every magnitude (subnormals and -0.0 included)."""
    edges = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
    bits = np.random.default_rng(seed).integers(0, 2**64, 4 * n, dtype=np.uint64)
    values = bits.view(np.float64)
    return np.concatenate([edges, values[np.isfinite(values)]])[:n]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCsvRoundTrips:
    """Write, read back, write again: each value survives bit for bit and the
    second file is byte-identical to the first."""

    def round_trip(self, tmp_path, write, read, obj):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write(first, obj)
        back = read(first)
        write(second, back)
        assert first.read_bytes() == second.read_bytes()
        return back

    def test_features(self, tmp_path):
        v = tricky_floats(1, 70).reshape(10, 7)
        feats = [Feature(Point2(x, y), d) for (x, y), d in zip(v[:, :2].tolist(), v[:, 2:])]
        back = self.round_trip(tmp_path, io.write_features_csv, io.read_features_csv, feats)
        assert same_bits([[f.keypoint.x, f.keypoint.y, *f.descriptor] for f in back], v)

    def test_correspondences(self, tmp_path):
        v = tricky_floats(2, 40).reshape(10, 4)
        corrs = [Correspondence(Point2(a, b), Point2(c, d)) for a, b, c, d in v.tolist()]
        back = self.round_trip(
            tmp_path, io.write_correspondences_csv, io.read_correspondences_csv, corrs
        )
        assert same_bits([[c.src.x, c.src.y, c.dst.x, c.dst.y] for c in back], v)

    def test_density(self, tmp_path):
        v = np.abs(tricky_floats(3, 35)).reshape(5, 7)
        back = self.round_trip(tmp_path, io.write_density_csv, io.read_density_csv, DensityMap(v))
        assert same_bits(back.values, v)

    @pytest.mark.parametrize("with_sigma", [False, True])
    def test_dots(self, tmp_path, with_sigma):
        v = tricky_floats(4, 30).reshape(10, 3)
        v[:, 2] = np.abs(v[:, 2])  # a sigma must be positive; no cell of this column is 0
        points = [Point2(x, y) for x, y in v[:, :2].tolist()]
        sigmas = v[:, 2].tolist() if with_sigma else None
        back_points, back_sigmas = self.round_trip(
            tmp_path, lambda p, o: io.write_dots_csv(p, *o), io.read_dots_csv, (points, sigmas)
        )
        assert same_bits([[p.x, p.y] for p in back_points], v[:, :2])
        assert back_sigmas is None if not with_sigma else same_bits(back_sigmas, v[:, 2])

    def test_positions(self, tmp_path):
        v = tricky_floats(5, 20).reshape(10, 2)
        points = [Point2(x, y) for x, y in v.tolist()]
        back = self.round_trip(tmp_path, io.write_positions_csv, io.read_positions_csv, points)
        assert same_bits([[p.x, p.y] for p in back], v)

    def test_samples(self, tmp_path):
        v = tricky_floats(6, 40).reshape(10, 4)
        samples = [AgreementSample(f, a) for a, f in enumerate(v)]
        back = self.round_trip(tmp_path, io.write_samples_csv, io.read_samples_csv, samples)
        assert [s.agreement for s in back] == list(range(10))
        assert same_bits([s.features for s in back], v)

    def test_detections(self, tmp_path):
        v = tricky_floats(7, 24).reshape(12, 2)
        rng = np.random.default_rng(7)
        rows = [(f"img{i % 3}", i % 2, float(s), i if i % 4 else None, Point2(x, y))
                for i, ((x, y), s) in enumerate(zip(v.tolist(), rng.uniform(0, 1, 12)))]
        box = Polygon.box(*rng.uniform(0, 50, 2), *rng.uniform(60, 99, 2))
        rows.append(("img0", 1, None, None, box))

        def as_rows(records):
            return [(r["image_id"], r["class_id"], r["score"], r["agreement"], r["geom"])
                    for r in records]

        back = self.round_trip(
            tmp_path, io.write_detections_csv, lambda p: as_rows(io.read_detections_csv(p)), rows
        )
        assert same_bits([[r[4].x, r[4].y] for r in back[:12]], v)
        assert same_bits([r[2] for r in back[:12]], [r[2] for r in rows[:12]])
        assert same_bits(back[-1][4].vertices, rows[-1][4].vertices)
        assert [r[:2] + r[3:4] for r in back] == [r[:2] + r[3:4] for r in rows]

    def test_skeleton_values_reach_the_sanitized_file(self, tmp_path):
        v = np.abs(tricky_floats(8, 38)[2:]).reshape(9, 4)  # skip the zeros
        path = tmp_path / "s.csv"
        body = "".join(",".join(map(repr, r)) + "\n" for r in v.tolist())
        path.write_text("h_s,w_s,z,h_m\n" + body)
        boxes, measured = io.read_skeleton_csv(path)
        assert same_bits([[b.h_s, b.w_s, b.z] for b in boxes], v[:, :3])
        assert same_bits(measured, v[:, 3])
        io.write_sanitized_csv(tmp_path / "out.csv", boxes, [(m, m) for m in measured])
        cells = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert same_bits([[float(c) for c in row[:4]] for row in cells], v)


class TestPositionedCsvErrors:
    """A cell that is not a finite number, a row of the wrong width, or a value
    the built object rejects is a ParseError at its line and column; the first
    such cell in file order is the one reported."""

    @pytest.mark.parametrize(
        "read, text, line, column",
        [
            pytest.param(io.read_dots_csv, "x,y,sigma\n1.0,2.0,0.5\n3.0,4.0,inf\n", 3, 3,
                         id="dots-inf-sigma"),
            pytest.param(io.read_skeleton_csv, "h_s,w_s,z\n100.0,40.0,10.0\n90.0,inf,12.0\n",
                         3, 2, id="skeleton-inf-width"),
            pytest.param(io.read_skeleton_csv, "h_s,w_s,z,h_m\n100.0,40.0,0.0,120.0\n", 2, 3,
                         id="skeleton-zero-field"),
            pytest.param(io.read_skeleton_csv, "h_s,w_s,z,h_m\n-1.0,40.0,2.0,-3.0\n", 2, 1,
                         id="skeleton-negative-field"),
            pytest.param(io.read_positions_csv, "x,y\n1.0,2.0\nnan,3.0\n", 3, 1,
                         id="position-nan"),
            pytest.param(io.read_detections_csv,
                         "image_id,class_id,score,geom\nimg,0,0.5,1.0,2.0\nimg,0,0.5,1.0,nan\n",
                         3, 5, id="detection-nan-point"),
            pytest.param(io.read_detections_csv,
                         "image_id,class_id,score,geom\nimg,0,inf,1.0,2.0\n", 2, 3,
                         id="detection-inf-score"),
            pytest.param(io.read_density_csv, "0.0,1.0\n0.5,nan\n", 2, 2, id="density-nan"),
            pytest.param(io.read_density_csv, "0.0,1.0\n0.5,2.0\n-0.5,2.0\n", 3, 1,
                         id="density-negative"),
            pytest.param(io.read_density_csv, "0.0,1.0\n0.5\n", 2, 2, id="density-short-row"),
            pytest.param(io.read_samples_csv, "agreement,f0\n1,0.5\n2.5,0.1\n1,nan\n", 3, 1,
                         id="samples-non-integer-before-nan"),
            pytest.param(io.read_samples_csv, "agreement,f0\n1,nan\n-1,0.1\n", 2, 2,
                         id="samples-nan-before-negative"),
            pytest.param(io.read_samples_csv, "agreement,f0\n-1,nan\n", 2, 1,
                         id="samples-agreement-before-feature"),
            pytest.param(io.read_features_csv, "x,y,d0\n1.0,2.0,3.0\n1.0,2.0\n", 3, 3,
                         id="features-short-row"),
            pytest.param(io.read_correspondences_csv,
                         "src_x,src_y,dst_x,dst_y\n1,x,3,4\n1,2,3,4,5\n", 2, 2,
                         id="bad-cell-before-long-row"),
            pytest.param(io.read_correspondences_csv,
                         "src_x,src_y,dst_x,dst_y\n1,2,3,4,5\n1,x,3,4\n", 2, 6,
                         id="long-row-before-bad-cell"),
        ],
    )
    def test_first_bad_cell(self, tmp_path, read, text, line, column):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read(path)
        assert (err.value.line, err.value.column) == (line, column)

    def test_oversized_cell_is_a_parse_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("x,y\n1.0,2.0\n1.0," + "2" * 200_000 + "\n")
        with pytest.raises(ParseError) as err:
            io.read_positions_csv(path)
        assert err.value.line == 3


CSV_READERS = {
    io.read_features_csv: ["x,y,d0,d1", "x,y,d0", "x,y"],
    io.read_correspondences_csv: ["src_x,src_y,dst_x,dst_y"],
    io.read_density_csv: [],
    io.read_dots_csv: ["x,y", "x,y,sigma"],
    io.read_detections_csv: ["image_id,class_id,geom", "image_id,class_id,score,agreement,geom"],
    io.read_samples_csv: ["agreement,f0,f1", "agreement"],
    io.read_skeleton_csv: ["h_s,w_s,z", "h_s,w_s,z,h_m"],
    io.read_positions_csv: ["x,y"],
}

fuzz_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 9).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "", " ", "x", "0x10", "1_0"]),
    st.text(st.characters(codec="utf-8"), max_size=4),
)


class TestCsvFuzz:
    """Every CSV reader either returns or raises ParseError with a line."""

    @settings(max_examples=400, deadline=None)
    @given(
        read=st.sampled_from(list(CSV_READERS)),
        data=st.data(),
        rows=st.lists(st.lists(fuzz_cells, max_size=9), max_size=6),
    )
    def test_returns_or_raises_a_positioned_parse_error(self, tmp_path_factory, read, data, rows):
        header = data.draw(st.sampled_from(CSV_READERS[read] + ["a,b"]))
        lines = ([header] if read is not io.read_density_csv else []) + [",".join(r) for r in rows]
        path = tmp_path_factory.mktemp("fuzz") / "in.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            read(path)
        except ParseError as exc:
            assert exc.line is not None


GOOD_MATRIX = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


class TestMalformedJsonEntries:
    """A JSON document or entry of the wrong shape is a ParseError at line 1,
    column 1 that names the entry, never a traceback."""

    @pytest.mark.parametrize(
        "read, doc, names",
        [
            pytest.param(io.read_homography_json, 5, "homography file must be a JSON object",
                         id="homography-not-an-object"),
            pytest.param(io.read_scenario_json, 5, "scenario must be a JSON object",
                         id="scenario-not-an-object"),
            pytest.param(io.read_scenario_json, {"nodes": [5]}, "node #0 must be a JSON object",
                         id="node-not-an-object"),
            pytest.param(io.read_scenario_json,
                         {"nodes": [{"id": None, "neighbors": [], "width": 8, "height": 8,
                                     "frames": []}]},
                         "node #0 needs integer 'id'", id="node-id-null"),
            pytest.param(io.read_scenario_json, {"nodes": [], "ground_truth": [1]},
                         "ground_truth must be a JSON object", id="ground-truth-not-an-object"),
            pytest.param(io.read_scenario_json,
                         {"nodes": [], "ground_truth": {"frames": [{"frame_id": "a"}]}},
                         "ground_truth frame #0 lacks 'global_count'", id="frame-missing-key"),
            pytest.param(io.read_scenario_json,
                         {"nodes": [], "ground_truth": {"frames": [{"frame_id": "a",
                                                                    "global_count": "3"}]}},
                         "ground_truth frame #0 needs", id="frame-mistyped-count"),
            pytest.param(io.read_scenario_json,
                         {"nodes": [], "ground_truth": {"homographies": [{"src": 0, "dst": 1}]}},
                         "ground_truth homography #0 lacks 'matrix'", id="homography-missing-key"),
            pytest.param(io.read_scenario_json,
                         {"nodes": [], "ground_truth": {"homographies": [
                             {"src": "0", "dst": 1, "matrix": GOOD_MATRIX}]}},
                         "ground_truth homography #0 needs integer", id="homography-mistyped-src"),
            pytest.param(io.read_scenario_json,
                         {"nodes": [], "ground_truth": {"homographies": [
                             {"src": 0, "dst": 1, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}},
                         "ground_truth homography #0 'matrix' must be 3x3", id="matrix-2x2"),
            pytest.param(io.read_homography_json, {"matrix": [[1, 0, 0], [0, 1], [0, 0, 1]]},
                         "'matrix' must be a number or a regular array", id="matrix-ragged"),
            pytest.param(io.read_homography_json, {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, "x"]]},
                         "'matrix' must be a number or a regular array", id="matrix-text"),
            pytest.param(io.read_homography_json,
                         {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, float("nan")]]},
                         "'matrix' holds a non-finite value", id="matrix-nan"),
            pytest.param(io.read_homography_json, {"matrix": [[10**400] * 3] * 3},
                         "'matrix' must be a number or a regular array", id="matrix-overflow"),
            pytest.param(io.read_homography_json, {"matrix": [[0.0] * 3] * 3},
                         "zero homography matrix", id="matrix-zero"),
        ],
    )
    def test_bad_entry(self, tmp_path, read, doc, names):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            read(path)
        assert (err.value.line, err.value.column) == (1, 1)
        assert names in str(err.value)

    def test_ground_truth_round_trip(self, tmp_path):
        spec = SyntheticSceneSpec(n_cameras=3, n_vehicles=8, overlap=0.4, warp="projective",
                                  n_frames=2, seed=5)
        scenario = generate_scene(spec)
        io.write_scenario_json(tmp_path / "a.json", scenario)
        back = io.read_scenario_json(tmp_path / "a.json")
        truth, back_truth = scenario.ground_truth, back.ground_truth
        assert back_truth.global_counts == truth.global_counts
        assert back_truth.homographies.keys() == truth.homographies.keys()
        for key, h in truth.homographies.items():
            assert same_bits(back_truth.homographies[key].matrix, h.matrix)
