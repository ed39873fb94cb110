"""File codecs: feature and correspondence CSVs, DMF1 density rasters,
scenario JSON, scorer models, sample tables, and report emitters.

Numeric CSV cells are finite numbers, written with repr() so decode(encode(x))
returns the same floats; fixed-width tables are converted in one pass, and
malformed inputs raise ParseError with a position.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import asdict
from io import BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np

from .annotate import SkeletonBox
from .density import DensityMap
from .errors import DegenerateConfiguration, ParseError, UnorderedThetas
from .geometry import _MAX_COORD, Correspondence, Homography, Point2, Polygon
from .matching import Feature
from .metrics import ScoredDetection
from .protocol import Detection, GroundTruth, NodeSpec, Report, Scenario
from .rescoring import AgreementSample, ScorerModel

DMF_MAGIC = b"DMF1"
# feature, correspondence and skeleton cells: past this bound, squares and
# products of them in matching, calibration and the alpha fit could overflow
_BOUNDED = (slice(None), lambda v: abs(v) <= _MAX_COORD, "a number within [-1e100, 1e100]")


def _write_csv(path, header, rows):
    """Comma-joined cells, one row per line, by the one typed-cell rule: a float
    as its repr() (exact), None as an empty cell, anything else as str(). A
    ``header`` of None writes none."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                repr(float(v)) if isinstance(v, float) else ("" if v is None else str(v))
                for v in row
            ]
            fh.write(",".join(cells) + "\n")


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv_and_json(base_path, header, rows, doc):
    """CSV at ``base_path`` (suffix .csv) plus its JSON twin; returns both paths."""
    base = Path(base_path)
    csv_path = base if base.suffix == ".csv" else base.with_suffix(".csv")
    json_path = csv_path.with_suffix(".json")
    _write_csv(csv_path, header, rows)
    _write_json(json_path, doc)
    return csv_path, json_path


def _parse_count(cell: str, line: int, column: int) -> int:
    """``cell`` as a non-negative integer, or ParseError at its position."""
    try:
        value = int(cell)
    except ValueError as exc:
        raise ParseError(f"expected an integer, got {cell!r}", line=line, column=column) from exc
    if value < 0:
        msg = f"expected a non-negative integer, got {cell!r}"
        raise ParseError(msg, line=line, column=column)
    return value


def _finite(cell: str, line: int, column: int) -> float:
    """``cell`` as a finite float, or ParseError at its position."""
    try:
        value = float(cell)
    except ValueError as exc:
        raise ParseError(f"expected a number, got {cell!r}", line=line, column=column) from exc
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {cell!r}", line=line, column=column)
    return value


def _matrix(rows, width: int, lines, *rules) -> np.ndarray:
    """The CSV body ``rows``, which start on file ``lines``, as a
    (len(rows), width) matrix of finite floats.

    Each of ``rules`` is (columns, accepts, what): the cells of ``columns`` must
    also pass ``accepts``, the elementwise test of the object built from them. The
    whole body converts in one pass; only when that fails are the rows walked
    in file order to raise ParseError at the first bad line and column.
    """
    try:
        values = np.array(rows, dtype=float).reshape(len(rows), width)
    except ValueError:  # a row of another width, or a cell float() rejects
        values = None
    if values is not None and np.isfinite(values).all():
        if all(accepts(values[:, columns]).all() for columns, accepts, _ in rules):
            return values
    for line, row in zip(lines, rows):
        if len(row) != width:
            msg = f"expected {width} cells, got {len(row)}"
            raise ParseError(msg, line=line, column=len(row) + 1)
        for column, cell in enumerate(row, start=1):
            value = _finite(cell, line, column)
            for columns, accepts, what in rules:
                if column - 1 in range(width)[columns] and not accepts(value):
                    msg = f"expected {what}, got {cell!r}"
                    raise ParseError(msg, line=line, column=column)
    raise AssertionError("the one-pass conversion rejected cells that float() accepts")


def _open_text(path, newline=None):
    """A UTF-8 text stream over the file, once the whole file decodes; else
    ParseError at the offset of the first bad byte in the file (a stream that
    decodes in chunks names an offset within its chunk)."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", offset=exc.start) from exc
    return TextIOWrapper(BytesIO(data), encoding="utf-8", newline=newline)


def _read_rows(path):
    """(records, lines): the CSV records and the file line each starts on, which
    is past the record count once a quoted cell has spanned lines."""
    rows, lines = [], []
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            for row in reader:
                rows.append(row)
                lines.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:  # a cell over csv.field_size_limit()
            raise ParseError(f"unreadable CSV: {exc}", line=reader.line_num) from exc
    return rows, lines


def _csv_body(path, kind: str, usage: str, accepts):
    """(header, body rows, their lines) of a CSV whose header ``accepts``; else
    ParseError."""
    rows, lines = _read_rows(path)
    if not rows or not accepts(rows[0]):
        raise ParseError(f"{kind} file must start with header {usage}", line=1, column=1)
    return rows[0], rows[1:], lines[1:]


def _json_check(ok: bool, message: str):
    if not ok:
        raise ParseError(message, line=1, column=1)


def _json_entry(entry, keys, where: str) -> dict:
    """``entry`` if it is a JSON object holding all of ``keys``; else ParseError."""
    _json_check(isinstance(entry, dict), f"{where} must be a JSON object")
    for key in keys:
        _json_check(key in entry, f"{where} lacks {key!r}")
    return entry


def _json_array(value, what: str) -> np.ndarray:
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        msg = f"{what} must be a number or a regular array of numbers"
        raise ParseError(msg, line=1, column=1) from exc
    _json_check(np.all(np.isfinite(array)), f"{what} holds a non-finite value")
    return array


def _read_json(path):
    try:
        return json.loads(_open_text(path).read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc


# -- features and correspondences ----------------------------------------------


def write_features_csv(path, features):
    features = list(features)
    dim = features[0].descriptor.size if features else 0
    rows = ([float(f.keypoint.x), float(f.keypoint.y), *f.descriptor.tolist()] for f in features)
    _write_csv(path, ["x", "y"] + [f"d{i}" for i in range(dim)], rows)


def read_features_csv(path):
    header, body, lines = _csv_body(
        path, "feature", "x,y,d0,...", lambda h: h[:2] == ["x", "y"] and len(h) > 2
    )
    values = _matrix(body, len(header), lines, _BOUNDED)
    return [Feature(Point2(x, y), d) for (x, y), d in zip(values[:, :2].tolist(), values[:, 2:])]


def write_correspondences_csv(path, corrs):
    rows = ([float(c.src.x), float(c.src.y), float(c.dst.x), float(c.dst.y)] for c in corrs)
    _write_csv(path, ["src_x", "src_y", "dst_x", "dst_y"], rows)


def read_correspondences_csv(path):
    header = ["src_x", "src_y", "dst_x", "dst_y"]
    _, body, lines = _csv_body(path, "correspondence", ",".join(header), lambda h: h == header)
    values = _matrix(body, 4, lines, _BOUNDED).tolist()
    return [Correspondence(Point2(sx, sy), Point2(dx, dy)) for sx, sy, dx, dy in values]


# -- density rasters -------------------------------------------------------------


def write_density_dmf(path, density: DensityMap):
    """Binary raster: magic DMF1, u32 height, u32 width, float32 values."""
    with open(path, "wb") as fh:
        fh.write(DMF_MAGIC)
        fh.write(struct.pack("<II", density.height, density.width))
        fh.write(density.values.astype("<f4").tobytes())


def read_density_dmf(path) -> DensityMap:
    data = Path(path).read_bytes()
    if data[:4] != DMF_MAGIC:
        raise ParseError("bad magic, not a DMF1 raster", offset=0)
    if len(data) < 12:
        raise ParseError("truncated header", offset=len(data))
    h, w = struct.unpack("<II", data[4:12])
    expected = 12 + 4 * h * w
    if len(data) < expected:
        raise ParseError(
            f"raster needs {expected} bytes for {h}x{w}, file ends early",
            offset=len(data),
        )
    if len(data) > expected:
        raise ParseError("trailing bytes after raster payload", offset=expected)
    values = np.frombuffer(data, dtype="<f4", count=h * w, offset=12)
    return DensityMap(values.reshape(h, w).astype(np.float64))


def write_density_csv(path, density: DensityMap):
    _write_csv(path, None, density.values.tolist())


def read_density_csv(path) -> DensityMap:
    """Headerless: one raster row per line, every cell a non-negative number."""
    rows, lines = _read_rows(path)
    if not rows or not rows[0]:
        raise ParseError("empty density table", line=1, column=1)
    rule = (slice(None), lambda v: v >= 0.0, "a non-negative density")
    return DensityMap(_matrix(rows, len(rows[0]), lines, rule))


# -- dot annotations --------------------------------------------------------------


def write_dots_csv(path, points, sigmas=None):
    rows = [[float(p.x), float(p.y)] for p in points]
    if sigmas is None:
        _write_csv(path, ["x", "y"], rows)
    else:
        rows = [row + [float(sigmas[i])] for i, row in enumerate(rows)]
        _write_csv(path, ["x", "y", "sigma"], rows)


def read_dots_csv(path):
    """Returns (points, sigmas-or-None); a sigma cell must be positive."""
    header, body, lines = _csv_body(
        path, "dot", "x,y[,sigma]", lambda h: h in (["x", "y"], ["x", "y", "sigma"])
    )
    rule = (slice(2, 3), lambda v: v > 0.0, "a positive sigma")
    values = _matrix(body, len(header), lines, rule)
    points = [Point2(x, y) for x, y in values[:, :2].tolist()]
    return points, (values[:, 2].tolist() if len(header) == 3 else None)


# -- detections for evaluation -----------------------------------------------------


def write_detections_csv(path, rows):
    """Rows: (image_id, class_id, score-or-None, agreement-or-None, geometry).

    Geometry is a Point2 or Polygon; the header says which lead columns are
    present, geometry cells follow them.
    """
    rows = list(rows)
    has_score = any(r[2] is not None for r in rows)
    has_agreement = any(r[3] is not None for r in rows)
    header = ["image_id", "class_id"]
    if has_score:
        header.append("score")
    if has_agreement:
        header.append("agreement")
    header.append("geom")
    lines = []
    for image_id, class_id, score, agreement, geom in rows:
        cells = [str(image_id), int(class_id)]
        if has_score:
            cells.append(float(score if score is not None else 1.0))
        if has_agreement:
            cells.append(int(agreement) if agreement is not None else None)
        if isinstance(geom, Point2):
            cells += [float(geom.x), float(geom.y)]
        else:
            cells += geom.vertices.ravel().tolist()
        lines.append(cells)
    _write_csv(path, header, lines)


def read_detections_csv(path):
    """Returns a list of dicts with image_id, class_id, score, agreement, geom."""
    header, body, lines = _csv_body(
        path,
        "detection",
        "image_id,class_id[,score][,agreement],geom",
        lambda h: h[:2] == ["image_id", "class_id"],
    )
    try:
        geom_at = header.index("geom")
    except ValueError as exc:
        raise ParseError("header lacks the geom marker column", line=1, column=len(header)) from exc
    score_at = header.index("score") if "score" in header else None
    agreement_at = header.index("agreement") if "agreement" in header else None
    out = []
    for ln, row in zip(lines, body):
        if len(row) < geom_at + 2:
            raise ParseError("row has no geometry cells", line=ln, column=len(row) + 1)
        cells = [(col, c) for col, c in enumerate(row[geom_at:], start=geom_at + 1) if c != ""]
        if len(cells) % 2 != 0:
            raise ParseError("geometry needs an even number of cells", line=ln, column=geom_at + 1)
        vals = [_finite(c, ln, col) for col, c in cells]
        if len(vals) in (0, 4):
            msg = "geometry must be x,y or at least three vertices"
            raise ParseError(msg, line=ln, column=geom_at + 1)
        try:
            geom = Point2(*vals) if len(vals) == 2 else Polygon(list(zip(vals[0::2], vals[1::2])))
        except ValueError as exc:
            raise ParseError(f"invalid polygon: {exc}", line=ln, column=geom_at + 1) from exc
        class_id = _parse_count(row[1], ln, 2)
        score = _finite(row[score_at], ln, score_at + 1) if score_at is not None else 1.0
        if not 0.0 <= score <= 1.0:
            msg = f"expected a score in [0, 1], got {row[score_at]!r}"
            raise ParseError(msg, line=ln, column=score_at + 1)
        agreement = None
        if agreement_at is not None and row[agreement_at] != "":
            agreement = _parse_count(row[agreement_at], ln, agreement_at + 1)
        out.append({"image_id": row[0], "class_id": class_id, "score": score,
                    "agreement": agreement, "geom": geom})
    return out


def detections_to_scored(records):
    return [ScoredDetection(r["geom"], r["score"], r["class_id"]) for r in records]


# -- scenario JSON -----------------------------------------------------------------


def write_scenario_json(path, scenario: Scenario):
    """Scenario file plus one feature CSV per node next to it."""
    path = Path(path)
    doc = {"nodes": [], "frames": list(scenario.frames)}
    for node in scenario.nodes:
        feat_name = f"{path.stem}_features_{node.node_id}.csv"
        write_features_csv(path.parent / feat_name, node.features)
        frames = []
        for frame_id in scenario.frames:
            dets = []
            for d in node.frames.get(frame_id, []):
                entry = {"polygon": d.polygon.vertices.ravel().tolist(), "score": float(d.score)}
                if d.vehicle_id is not None:
                    entry["vehicle_id"] = int(d.vehicle_id)
                dets.append(entry)
            frames.append({"frame_id": frame_id, "detections": dets})
        doc["nodes"].append(
            {
                "id": int(node.node_id),
                "neighbors": [int(j) for j in node.neighbors],
                "width": int(node.width),
                "height": int(node.height),
                "features_file": feat_name,
                "frames": frames,
            }
        )
    if scenario.ground_truth is not None:
        gt = scenario.ground_truth
        doc["ground_truth"] = {
            "frames": [
                {"frame_id": f, "global_count": int(c)}
                for f, c in sorted(gt.global_counts.items())
            ],
            "homographies": [
                {"src": int(s), "dst": int(d), "matrix": h.matrix.tolist()}
                for (s, d), h in sorted(gt.homographies.items())
            ],
        }
    _write_json(path, doc)


def _scenario_detection(d, where: str) -> Detection:
    flat = d.get("polygon") if isinstance(d, dict) else None
    if not isinstance(flat, list) or len(flat) < 6 or len(flat) % 2:
        raise ParseError(f"{where} needs a 'polygon' list of 3 or more x,y pairs", line=1, column=1)
    score, vehicle_id = d.get("score", 1.0), d.get("vehicle_id")
    numeric = all(type(v) in (int, float) for v in [*flat, score])
    if not numeric or type(vehicle_id) not in (int, type(None)):
        msg = f"{where} needs numeric polygon coordinates and score, and an integer vehicle_id"
        raise ParseError(msg, line=1, column=1)
    if not 0.0 <= score <= 1.0:  # NaN and the infinities included
        raise ParseError(f"{where} needs a score in [0, 1], got {score!r}", line=1, column=1)
    try:
        poly = Polygon(list(zip(flat[0::2], flat[1::2])))
    except OverflowError as exc:
        raise ParseError(f"{where} holds an integer too large for a float", line=1, column=1) from exc
    except ValueError as exc:
        raise ParseError(f"{where} polygon: {exc}", line=1, column=1) from exc
    return Detection(polygon=poly, score=float(score), vehicle_id=vehicle_id)


def _scenario_node(nd, where: str, folder: Path) -> NodeSpec:
    _json_entry(nd, ("id", "neighbors", "width", "height", "frames"), where)
    neighbors, features_file = nd["neighbors"], nd.get("features_file")
    ok = all(type(v) is int for v in (nd["id"], nd["width"], nd["height"]))
    _json_check(ok, f"{where} needs integer 'id', 'width' and 'height'")
    ok = isinstance(neighbors, list) and all(type(j) is int for j in neighbors)
    _json_check(ok, f"{where} needs a list of integer 'neighbors'")
    ok = isinstance(nd["frames"], list) and isinstance(features_file, (str, type(None)))
    _json_check(ok, f"{where} needs a 'frames' list and a string 'features_file'")
    frames = {}
    for fidx, fr in enumerate(nd["frames"]):
        at = f"{where} frame #{fidx}"
        ok = isinstance(fr, dict) and type(fr.get("frame_id")) in (str, int)
        ok = ok and isinstance(fr.get("detections", []), list)
        _json_check(ok, f"{at} needs a string or integer 'frame_id' and a 'detections' list")
        _json_check(fr["frame_id"] not in frames, f"{at} repeats frame_id {fr['frame_id']!r}")
        frames[fr["frame_id"]] = [
            _scenario_detection(d, f"{at} detection #{didx}")
            for didx, d in enumerate(fr.get("detections", []))
        ]
    try:
        features = read_features_csv(folder / features_file) if features_file else []
    except OSError as exc:
        raise ParseError(f"{where} 'features_file': {exc}", line=1, column=1) from exc
    try:
        return NodeSpec(node_id=nd["id"], neighbors=tuple(neighbors), width=nd["width"],
                        height=nd["height"], features=features, frames=frames)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}", line=1, column=1) from exc


def _json_homography(matrix, where: str) -> Homography:
    m = _json_array(matrix, f"{where} 'matrix'")
    _json_check(m.shape == (3, 3), f"{where} 'matrix' must be 3x3")
    try:
        return Homography(m)
    except DegenerateConfiguration as exc:
        raise ParseError(f"{where} 'matrix': {exc}", line=1, column=1) from exc


def _ground_truth(gt) -> GroundTruth:
    _json_entry(gt, (), "ground_truth")
    frames, homographies = gt.get("frames", []), gt.get("homographies", [])
    _json_check(isinstance(frames, list) and isinstance(homographies, list),
                "ground_truth 'frames' and 'homographies' must be lists")
    counts, truth = {}, {}
    for idx, fr in enumerate(frames):
        where = f"ground_truth frame #{idx}"
        _json_entry(fr, ("frame_id", "global_count"), where)
        ok = type(fr["frame_id"]) in (str, int) and type(fr["global_count"]) is int
        _json_check(ok, f"{where} needs a string or integer 'frame_id', integer 'global_count'")
        _json_check(fr["frame_id"] not in counts, f"{where} repeats frame_id {fr['frame_id']!r}")
        counts[fr["frame_id"]] = fr["global_count"]
    for idx, h in enumerate(homographies):
        where = f"ground_truth homography #{idx}"
        _json_entry(h, ("src", "dst", "matrix"), where)
        ok = type(h["src"]) is int and type(h["dst"]) is int
        _json_check(ok, f"{where} needs integer 'src' and 'dst'")
        pair = (h["src"], h["dst"])
        _json_check(pair not in truth, f"{where} repeats (src, dst) {pair}")
        truth[pair] = _json_homography(h["matrix"], where)
    return GroundTruth(global_counts=counts, homographies=truth)


def read_scenario_json(path) -> Scenario:
    path = Path(path)
    doc = _json_entry(_read_json(path), ("nodes",), "scenario")
    _json_check(isinstance(doc["nodes"], list), "scenario 'nodes' must be a list")
    nodes = [_scenario_node(nd, f"node #{i}", path.parent) for i, nd in enumerate(doc["nodes"])]
    ground_truth = _ground_truth(doc["ground_truth"]) if "ground_truth" in doc else None
    frames = doc.get("frames")
    if frames is None:  # every frame id named by some node, in order of first mention
        frames = list(dict.fromkeys(f for node in nodes for f in node.frames))
    ok = isinstance(frames, list) and all(type(f) in (str, int) for f in frames)
    _json_check(ok, "scenario 'frames' must be a list of string or integer frame ids")
    first = {}
    for idx, f in enumerate(frames):
        _json_check(first.setdefault(f, idx) == idx, f"scenario 'frames' #{idx} repeats {f!r}")
    try:
        return Scenario(nodes=nodes, frames=frames, ground_truth=ground_truth)
    except ValueError as exc:
        raise ParseError(f"scenario: {exc}", line=1, column=1) from exc


# -- scorer models and samples -------------------------------------------------------


def write_model_json(path, model: ScorerModel):
    _write_json(
        path,
        {
            "head": model.head,
            "weights": model.weights.tolist(),
            "bias": model.bias if isinstance(model.bias, float) else list(model.bias),
            "thetas": None if model.thetas is None else model.thetas.tolist(),
        },
    )


def read_model_json(path) -> ScorerModel:
    doc = _json_entry(_read_json(path), ("head", "weights", "bias"), "model")
    thetas = doc.get("thetas")
    try:
        return ScorerModel(
            head=doc["head"],
            weights=_json_array(doc["weights"], "model 'weights'"),
            bias=_json_array(doc["bias"], "model 'bias'"),
            thetas=None if thetas is None else _json_array(thetas, "model 'thetas'"),
        )
    except (ValueError, UnorderedThetas) as exc:
        raise ParseError(f"invalid model: {exc}", line=1, column=1) from exc


def write_samples_csv(path, samples):
    samples = list(samples)
    dim = samples[0].features.size if samples else 0
    rows = ([int(s.agreement), *s.features.tolist()] for s in samples)
    _write_csv(path, ["agreement"] + [f"f{i}" for i in range(dim)], rows)


def read_samples_csv(path):
    header, body, lines = _csv_body(
        path, "sample", "agreement,f0,...", lambda h: h[:1] == ["agreement"] and len(h) > 1
    )
    # up to 2**53, where floats still hold every integer, so int64 takes each one
    rule = (slice(0, 1), lambda v: (v >= 0.0) & (v <= 2.0**53) & (v == np.floor(v)),
            "a non-negative integer up to 2**53")
    values = _matrix(body, len(header), lines, rule)
    return [AgreementSample(f, int(a)) for a, f in zip(values[:, 0].tolist(), values[:, 1:])]


def write_loss_trace_csv(path, trace):
    _write_csv(path, ["epoch", "loss"], ([epoch, float(loss)] for epoch, loss in enumerate(trace)))


# -- skeleton boxes -----------------------------------------------------------------


def read_skeleton_csv(path):
    """Returns (boxes, measured_heights-or-None) from h_s,w_s,z[,h_m]."""
    header, body, lines = _csv_body(
        path, "skeleton", "h_s,w_s,z[,h_m]",
        lambda h: h in (["h_s", "w_s", "z"], ["h_s", "w_s", "z", "h_m"]),
    )
    # 1e-100 <= h_s, w_s, z and every cell within 1e100: alpha / z, 1 / z**2 and the
    # fit's squared residuals stay finite
    rule = (slice(0, 3), lambda v: v >= 1.0 / _MAX_COORD, "a positive number of at least 1e-100")
    values = _matrix(body, len(header), lines, _BOUNDED, rule)
    boxes = [SkeletonBox(h_s, w_s, z) for h_s, w_s, z in values[:, :3].tolist()]
    return boxes, (values[:, 3].tolist() if len(header) == 4 else None)


def write_sanitized_csv(path, boxes, sanitized):
    """Mirrors the input columns and appends the padded h_m, w_m."""
    rows = (
        [float(box.h_s), float(box.w_s), float(box.z), float(h_m), float(w_m)]
        for box, (h_m, w_m) in zip(boxes, sanitized)
    )
    _write_csv(path, ["h_s", "w_s", "z", "h_m", "w_m"], rows)


# -- positions and homographies -------------------------------------------------------


def read_positions_csv(path):
    _, body, lines = _csv_body(path, "position", "x,y", lambda h: h == ["x", "y"])
    return [Point2(x, y) for x, y in _matrix(body, 2, lines).tolist()]


def write_positions_csv(path, points):
    _write_csv(path, ["x", "y"], ([float(p.x), float(p.y)] for p in points))


def write_homography_json(path, h: Homography):
    _write_json(path, {"matrix": h.matrix.tolist()})


def read_homography_json(path) -> Homography:
    doc = _json_entry(_read_json(path), ("matrix",), "homography file")
    return _json_homography(doc["matrix"], "homography file")


# -- reports ---------------------------------------------------------------------------


def write_report(base_path, report: Report):
    """CSV of per-frame rows plus a JSON twin with diagnostics.

    ``base_path`` may carry a .csv suffix or none; the JSON twin sits next
    to it with a .json suffix.
    """
    rows = [[row[key] for key in Report.ROW_FIELDS] for row in report.frames]
    return _write_csv_and_json(base_path, Report.ROW_FIELDS, rows, asdict(report))


def write_table(base_path, header, rows):
    """Generic metric table as CSV plus a JSON twin; returns both paths."""
    doc = [{k: v for k, v in zip(header, row)} for row in rows]
    return _write_csv_and_json(base_path, header, rows, doc)
