"""File codecs: feature and correspondence CSVs, DMF1 density rasters,
scenario JSON, scorer models, sample tables, and report emitters.

Numeric CSV cells are written with repr() so decode(encode(x)) returns the
same floats; malformed inputs raise ParseError with a position.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from .annotate import SkeletonBox
from .density import DensityMap
from .errors import ParseError, UnorderedThetas
from .geometry import Correspondence, Homography, Point2, Polygon
from .matching import Feature
from .metrics import ScoredDetection
from .protocol import Detection, GroundTruth, NodeSpec, Report, Scenario
from .rescoring import AgreementSample, ScorerModel

DMF_MAGIC = b"DMF1"


def _fmt(x) -> str:
    return repr(float(x))


def _parse_float(cell: str, line: int, column: int) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise ParseError(f"expected a number, got {cell!r}", line=line, column=column) from exc


def _parse_int(cell: str, line: int, column: int) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise ParseError(f"expected an integer, got {cell!r}", line=line, column=column) from exc


def _raise_bad_float(cells, line: int, first_column: int = 1):
    """Raise ParseError at the first of ``cells`` that is not a finite number."""
    for column, cell in enumerate(cells, start=first_column):
        if not math.isfinite(_parse_float(cell, line, column)):
            raise ParseError(f"expected a finite number, got {cell!r}", line=line, column=column)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# -- features and correspondences ----------------------------------------------


def write_features_csv(path, features):
    features = list(features)
    dim = features[0].descriptor.size if features else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["x", "y"] + [f"d{i}" for i in range(dim)]) + "\n")
        for f in features:
            cells = [_fmt(f.keypoint.x), _fmt(f.keypoint.y)]
            cells += [_fmt(v) for v in f.descriptor]
            fh.write(",".join(cells) + "\n")


def read_features_csv(path):
    rows = _read_rows(path)
    if not rows or rows[0][:2] != ["x", "y"]:
        raise ParseError("feature file must start with header x,y,d0,...", line=1, column=1)
    dim = len(rows[0]) - 2
    if dim < 1:
        raise ParseError("header declares no descriptor columns", line=1, column=3)
    out = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != dim + 2:
            raise ParseError(
                f"expected {dim + 2} cells, got {len(row)}", line=ln, column=len(row) + 1
            )
        try:
            x, y, *descriptor = map(float, row)
            out.append(Feature(Point2(x, y), np.array(descriptor)))
        except ValueError:
            _raise_bad_float(row, ln)
            raise
    return out


def write_correspondences_csv(path, corrs):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("src_x,src_y,dst_x,dst_y\n")
        for c in corrs:
            fh.write(
                ",".join([_fmt(c.src.x), _fmt(c.src.y), _fmt(c.dst.x), _fmt(c.dst.y)]) + "\n"
            )


def read_correspondences_csv(path):
    rows = _read_rows(path)
    if not rows or rows[0] != ["src_x", "src_y", "dst_x", "dst_y"]:
        raise ParseError(
            "correspondence file must start with header src_x,src_y,dst_x,dst_y",
            line=1,
            column=1,
        )
    out = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise ParseError(f"expected 4 cells, got {len(row)}", line=ln, column=len(row) + 1)
        try:
            sx, sy, dx, dy = map(float, row)
            out.append(Correspondence(Point2(sx, sy), Point2(dx, dy)))
        except ValueError:
            _raise_bad_float(row, ln)
            raise
    return out


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in density.values:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_density_csv(path) -> DensityMap:
    rows = _read_rows(path)
    if not rows:
        raise ParseError("empty density table", line=1, column=1)
    width = len(rows[0])
    grid = []
    for ln, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"ragged row: {len(row)} cells vs {width}", line=ln, column=1)
        grid.append([_parse_float(c, ln, i + 1) for i, c in enumerate(row)])
    return DensityMap(np.array(grid))


# -- dot annotations --------------------------------------------------------------


def write_dots_csv(path, points, sigmas=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y,sigma\n" if sigmas is not None else "x,y\n")
        for i, p in enumerate(points):
            cells = [_fmt(p.x), _fmt(p.y)]
            if sigmas is not None:
                cells.append(_fmt(sigmas[i]))
            fh.write(",".join(cells) + "\n")


def read_dots_csv(path):
    """Returns (points, sigmas-or-None)."""
    rows = _read_rows(path)
    if not rows or rows[0] not in (["x", "y"], ["x", "y", "sigma"]):
        raise ParseError("dot file must start with header x,y[,sigma]", line=1, column=1)
    with_sigma = rows[0] == ["x", "y", "sigma"]
    points, sigmas = [], []
    for ln, row in enumerate(rows[1:], start=2):
        want = 3 if with_sigma else 2
        if len(row) != want:
            raise ParseError(f"expected {want} cells, got {len(row)}", line=ln, column=len(row) + 1)
        vals = [_parse_float(c, ln, i + 1) for i, c in enumerate(row)]
        points.append(Point2(vals[0], vals[1]))
        if with_sigma:
            sigmas.append(vals[2])
    return points, (sigmas if with_sigma else None)


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for image_id, class_id, score, agreement, geom in rows:
            cells = [str(image_id), str(int(class_id))]
            if has_score:
                cells.append(_fmt(score if score is not None else 1.0))
            if has_agreement:
                cells.append(str(int(agreement)) if agreement is not None else "")
            if isinstance(geom, Point2):
                cells += [_fmt(geom.x), _fmt(geom.y)]
            else:
                for x, y in geom.vertices:
                    cells += [_fmt(x), _fmt(y)]
            fh.write(",".join(cells) + "\n")


def read_detections_csv(path):
    """Returns a list of dicts with image_id, class_id, score, agreement, geom."""
    rows = _read_rows(path)
    if not rows or rows[0][:2] != ["image_id", "class_id"]:
        raise ParseError(
            "detection file must start with header image_id,class_id[,score][,agreement],geom",
            line=1,
            column=1,
        )
    header = rows[0]
    try:
        geom_at = header.index("geom")
    except ValueError as exc:
        raise ParseError("header lacks the geom marker column", line=1, column=len(header)) from exc
    score_at = header.index("score") if "score" in header else None
    agreement_at = header.index("agreement") if "agreement" in header else None
    out = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) < geom_at + 2:
            raise ParseError("row has no geometry cells", line=ln, column=len(row) + 1)
        cells = [c for c in row[geom_at:] if c != ""]
        if len(cells) % 2 != 0:
            raise ParseError("geometry needs an even number of cells", line=ln, column=geom_at + 1)
        vals = [_parse_float(c, ln, geom_at + i + 1) for i, c in enumerate(cells)]
        if len(vals) == 2:
            geom = Point2(vals[0], vals[1])
        elif len(vals) >= 6:
            try:
                geom = Polygon(list(zip(vals[0::2], vals[1::2])))
            except ValueError as exc:
                raise ParseError(f"invalid polygon: {exc}", line=ln, column=geom_at + 1) from exc
        else:
            raise ParseError(
                "geometry must be x,y or at least three vertices", line=ln, column=geom_at + 1
            )
        out.append(
            {
                "image_id": row[0],
                "class_id": _parse_int(row[1], ln, 2),
                "score": _parse_float(row[score_at], ln, score_at + 1)
                if score_at is not None
                else 1.0,
                "agreement": _parse_int(row[agreement_at], ln, agreement_at + 1)
                if agreement_at is not None and row[agreement_at] != ""
                else None,
                "geom": geom,
            }
        )
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
                entry = {
                    "polygon": [float(v) for xy in d.polygon.vertices for v in xy],
                    "score": float(d.score),
                }
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
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _scenario_detection(d, where: str) -> Detection:
    flat = d.get("polygon") if isinstance(d, dict) else None
    if not isinstance(flat, list) or len(flat) < 6 or len(flat) % 2:
        raise ParseError(f"{where} needs a 'polygon' list of 3 or more x,y pairs", line=1, column=1)
    score, vehicle_id = d.get("score", 1.0), d.get("vehicle_id")
    numeric = all(type(v) in (int, float) for v in [*flat, score])
    if not numeric or type(vehicle_id) not in (int, type(None)):
        msg = f"{where} needs numeric polygon coordinates and score, and an integer vehicle_id"
        raise ParseError(msg, line=1, column=1)
    try:
        poly = Polygon(list(zip(flat[0::2], flat[1::2])))
    except ValueError as exc:
        raise ParseError(f"{where} polygon: {exc}", line=1, column=1) from exc
    return Detection(polygon=poly, score=float(score), vehicle_id=vehicle_id)


def read_scenario_json(path) -> Scenario:
    path = Path(path)
    doc = _read_json(path)
    if "nodes" not in doc:
        raise ParseError("scenario lacks a nodes list", line=1, column=1)
    nodes = []
    for idx, nd in enumerate(doc["nodes"]):
        for key in ("id", "neighbors", "width", "height", "frames"):
            if key not in nd:
                raise ParseError(f"node #{idx} lacks {key!r}", line=1, column=1)
        features = []
        if nd.get("features_file"):
            features = read_features_csv(path.parent / nd["features_file"])
        if not isinstance(nd["frames"], list):
            raise ParseError(f"node #{idx} frames must be a list", line=1, column=1)
        frames = {}
        for fidx, fr in enumerate(nd["frames"]):
            where = f"node #{idx} frame #{fidx}"
            ok = isinstance(fr, dict) and type(fr.get("frame_id")) in (str, int)
            if not ok or not isinstance(fr.get("detections", []), list):
                msg = f"{where} needs a string or integer 'frame_id' and a 'detections' list"
                raise ParseError(msg, line=1, column=1)
            frames[fr["frame_id"]] = [
                _scenario_detection(d, f"{where} detection #{didx}")
                for didx, d in enumerate(fr.get("detections", []))
            ]
        nodes.append(
            NodeSpec(
                node_id=int(nd["id"]),
                neighbors=tuple(int(j) for j in nd["neighbors"]),
                width=int(nd["width"]),
                height=int(nd["height"]),
                features=features,
                frames=frames,
            )
        )
    ground_truth = None
    if "ground_truth" in doc:
        gt = doc["ground_truth"]
        ground_truth = GroundTruth(
            global_counts={
                fr["frame_id"]: int(fr["global_count"]) for fr in gt.get("frames", [])
            },
            homographies={
                (int(h["src"]), int(h["dst"])): Homography(h["matrix"])
                for h in gt.get("homographies", [])
            },
        )
    frames = doc.get("frames")
    if frames is None:  # every frame id named by some node, in order of first mention
        frames = list(dict.fromkeys(f for node in nodes for f in node.frames))
    return Scenario(nodes=nodes, frames=frames, ground_truth=ground_truth)


# -- scorer models and samples -------------------------------------------------------


def write_model_json(path, model: ScorerModel):
    doc = {
        "head": model.head,
        "weights": model.weights.tolist(),
        "bias": model.bias if isinstance(model.bias, float) else list(model.bias),
        "thetas": None if model.thetas is None else model.thetas.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _model_array(doc, key: str) -> np.ndarray:
    try:
        value = np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(
            f"model {key!r} must be a number or a regular array of numbers", line=1, column=1
        ) from exc
    if not np.all(np.isfinite(value)):
        raise ParseError(f"model {key!r} holds a non-finite value", line=1, column=1)
    return value


def read_model_json(path) -> ScorerModel:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("model must be a JSON object", line=1, column=1)
    for key in ("head", "weights", "bias"):
        if key not in doc:
            raise ParseError(f"model lacks {key!r}", line=1, column=1)
    try:
        return ScorerModel(
            head=doc["head"],
            weights=_model_array(doc, "weights"),
            bias=_model_array(doc, "bias"),
            thetas=None if doc.get("thetas") is None else _model_array(doc, "thetas"),
        )
    except (ValueError, UnorderedThetas) as exc:
        raise ParseError(f"invalid model: {exc}", line=1, column=1) from exc


def write_samples_csv(path, samples):
    samples = list(samples)
    dim = samples[0].features.size if samples else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["agreement"] + [f"f{i}" for i in range(dim)]) + "\n")
        for s in samples:
            fh.write(",".join([str(int(s.agreement))] + [_fmt(v) for v in s.features]) + "\n")


def read_samples_csv(path):
    rows = _read_rows(path)
    if not rows or rows[0][:1] != ["agreement"]:
        raise ParseError("sample file must start with header agreement,f0,...", line=1, column=1)
    dim = len(rows[0]) - 1
    if dim < 1:
        raise ParseError("header declares no feature columns", line=1, column=2)
    out = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != dim + 1:
            raise ParseError(f"expected {dim + 1} cells, got {len(row)}", line=ln, column=len(row) + 1)
        try:
            out.append(AgreementSample(np.array(list(map(float, row[1:]))), int(row[0])))
        except ValueError:
            _raise_bad_sample_cell(row, ln)
            raise
    return out


def _raise_bad_sample_cell(row, line: int):
    """Raise ParseError at the first cell of a sample row that is not valid."""
    if _parse_int(row[0], line, 1) < 0:
        raise ParseError(f"agreement must be non-negative, got {row[0]!r}", line=line, column=1)
    _raise_bad_float(row[1:], line, first_column=2)


def write_loss_trace_csv(path, trace):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(trace):
            fh.write(f"{epoch},{_fmt(loss)}\n")


# -- skeleton boxes -----------------------------------------------------------------


def read_skeleton_csv(path):
    """Returns (boxes, measured_heights-or-None) from h_s,w_s,z[,h_m]."""
    rows = _read_rows(path)
    if not rows or rows[0] not in (["h_s", "w_s", "z"], ["h_s", "w_s", "z", "h_m"]):
        raise ParseError("skeleton file must start with header h_s,w_s,z[,h_m]", line=1, column=1)
    with_hm = len(rows[0]) == 4
    boxes, measured = [], []
    for ln, row in enumerate(rows[1:], start=2):
        want = 4 if with_hm else 3
        if len(row) != want:
            raise ParseError(f"expected {want} cells, got {len(row)}", line=ln, column=len(row) + 1)
        vals = [_parse_float(c, ln, i + 1) for i, c in enumerate(row)]
        boxes.append(SkeletonBox(h_s=vals[0], w_s=vals[1], z=vals[2]))
        if with_hm:
            measured.append(vals[3])
    return boxes, (measured if with_hm else None)


def write_sanitized_csv(path, boxes, sanitized):
    """Mirrors the input columns and appends the padded h_m, w_m."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("h_s,w_s,z,h_m,w_m\n")
        for box, (h_m, w_m) in zip(boxes, sanitized):
            fh.write(
                ",".join([_fmt(box.h_s), _fmt(box.w_s), _fmt(box.z), _fmt(h_m), _fmt(w_m)]) + "\n"
            )


# -- positions and homographies -------------------------------------------------------


def read_positions_csv(path):
    rows = _read_rows(path)
    if not rows or rows[0] != ["x", "y"]:
        raise ParseError("position file must start with header x,y", line=1, column=1)
    out = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"expected 2 cells, got {len(row)}", line=ln, column=len(row) + 1)
        out.append(Point2(_parse_float(row[0], ln, 1), _parse_float(row[1], ln, 2)))
    return out


def write_positions_csv(path, points):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for p in points:
            fh.write(f"{_fmt(p.x)},{_fmt(p.y)}\n")


def write_homography_json(path, h: Homography):
    Path(path).write_text(
        json.dumps({"matrix": h.matrix.tolist()}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_homography_json(path) -> Homography:
    doc = _read_json(path)
    if "matrix" not in doc:
        raise ParseError("homography file lacks 'matrix'", line=1, column=1)
    return Homography(doc["matrix"])


# -- reports ---------------------------------------------------------------------------


def write_report(base_path, report: Report):
    """CSV of per-frame rows plus a JSON twin with diagnostics.

    ``base_path`` may carry a .csv suffix or none; the JSON twin sits next
    to it with a .json suffix.
    """
    base = Path(base_path)
    csv_path = base if base.suffix == ".csv" else base.with_suffix(".csv")
    json_path = csv_path.with_suffix(".json")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(Report.ROW_FIELDS) + "\n")
        for row in report.frames:
            cells = []
            for key in Report.ROW_FIELDS:
                v = row[key]
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(_fmt(v))
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")
    doc = {
        "frames": report.frames,
        "summary": report.summary,
        "config": report.config,
        "diagnostics": [
            {
                "frame_id": d["frame_id"],
                "etas": {str(k): v for k, v in d["etas"].items()},
                "pairs": [
                    {
                        "pair": list(p["pair"]),
                        "mu_ij": p["mu_ij"],
                        "mu_ji": p["mu_ji"],
                        "aggregated": p["aggregated"],
                        "skipped_projections": p["skipped_projections"],
                    }
                    for p in d["pairs"]
                ],
                "triple_overlap_candidates": d["triple_overlap_candidates"],
            }
            for d in report.diagnostics
        ],
    }
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, json_path


def write_table(base_path, header, rows):
    """Generic metric table as CSV plus a JSON twin; returns both paths."""
    base = Path(base_path)
    csv_path = base if base.suffix == ".csv" else base.with_suffix(".csv")
    json_path = csv_path.with_suffix(".json")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            )
    doc = [{k: v for k, v in zip(header, row)} for row in rows]
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, json_path
