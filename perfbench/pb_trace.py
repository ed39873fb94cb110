"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each meshcount module where they
are looked up: every module attribute bound to one of those functions is
replaced by a wrapper, so ``protocol.iou`` and ``metrics.polygon_iou`` are
both traced as the span ``geometry.iou``. Each call records a span
(name, start, end, parent, op id) in flat arrays kept in memory; the
benchmark writes them out when the run ends. Small observers read call
arguments and results to keep the counts the per-layer metrics need
(inliers, kept matches, shared masks, input bytes and so on).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "meshcount"
# the package's modules, which name the layers
LAYERS = ("cli", "io", "synth", "matching", "geometry", "protocol", "metrics", "density", "rescoring")
# methods traced besides module functions: (module, class, method)
METHODS = (("protocol", "Simulator", "initialize"), ("protocol", "Simulator", "run_frame"))
# cli's only traced function is its entry point; the rest is cli self time
CLI_FUNCTIONS = ("main",)

SETUP_OP = -1  # op id of spans recorded outside any op (input generation)
OP_SPAN = "bench.op"


def _count_mask_shares(tally, args, kwargs, result):
    _, messages = result
    for msg in messages:
        if msg.kind == "MaskShare":
            tally["protocol.mask_share_masks"] += len(msg.payload)
            tally["protocol.mask_share_vertices"] += sum(len(d.polygon.vertices) for d in msg.payload)


def _count_iou(tally, args, kwargs, result):
    tally["geometry.iou_tried"] += 1
    tally["geometry.iou_nonzero"] += int(result > 0.0)


def _count_ransac(tally, args, kwargs, result):
    _, mask = result
    tally["geometry.ransac_inliers"] += sum(mask)
    tally["geometry.ransac_correspondences"] += len(mask)


def _count_ratio_match(tally, args, kwargs, result):
    tally["matching.features_tried"] += len(args[0])
    tally["matching.matches_kept"] += len(result)


def _count_skipped(tally, args, kwargs, result):
    tally["protocol.skipped_projections"] += result.skipped_projections


def _count_input_bytes(tally, args, kwargs, result):
    tally["io.input_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


OBSERVERS = {
    "protocol.local_count": _count_mask_shares,
    "geometry.iou": _count_iou,
    "geometry.ransac_homography": _count_ransac,
    "matching.ratio_match": _count_ratio_match,
    "protocol.compute_mu_outcome": _count_skipped,
}


def package_modules():
    """The imported modules of the package, the package itself first."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def traced_functions() -> dict:
    """{original function: span name} for every public function of a layer."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue  # imported from another layer; traced under its own name
            if layer == "cli" and name not in CLI_FUNCTIONS:
                continue
            targets[obj] = f"{layer}.{name}"
    return targets


class Tracer:
    """Records spans while its wrappers are installed.

    ``install`` and ``remove`` may alternate any number of times; the
    wrappers are built once and every patched attribute is restored to the
    exact object it held before.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self.counts = {}  # op id -> Counter
        self.op_id = SETUP_OP
        self.tally = self.counts.setdefault(SETUP_OP, Counter())
        self._wrappers = {}  # original -> wrapper
        self._saved = []  # (owner, attribute, original) of the installed patches

    # span recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_ix: int) -> int:
        k = len(self.start)
        self.name_ix.append(name_ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def close(self, k: int) -> None:
        self.end[k] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Start an op: later spans carry ``op_id`` and nest in its root span."""
        self.op_id = op_id
        self.tally = self.counts.setdefault(op_id, Counter())
        return self.open(self.name_id(OP_SPAN))

    def end_op(self, k: int) -> None:
        self.close(k)
        self.op_id = SETUP_OP
        self.tally = self.counts[SETUP_OP]

    def wrap(self, fn, span_name: str):
        ix = self.name_id(span_name)
        observe = OBSERVERS.get(span_name)
        if span_name.startswith("io.read_"):
            observe = _count_input_bytes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = tracer.open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(k)
            if observe is not None:
                observe(tracer.tally, args, kwargs, result)
            return result

        return traced

    # patching ---------------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = traced_functions()
        for original, span_name in targets.items():
            if original not in self._wrappers:
                self._wrappers[original] = self.wrap(original, span_name)
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[method]
            if original not in self._wrappers:
                self._wrappers[original] = self.wrap(original, f"{layer}.{cls_name}.{method}")
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrappers[original])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # results ------------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_ix, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path, **extra) -> None:
        """Write every span, with the name table and ``extra`` arrays, as .npz."""
        np.savez(path, names=np.array(self.names), **self.arrays(), **extra)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


class SpanTable:
    """Queries over recorded spans, restricted to a set of op ids."""

    def __init__(self, tracer: Tracer, ops):
        spans = tracer.arrays()
        self.names = tracer.names
        self.ops = sorted(ops)
        self.n_ops = max(len(self.ops), 1)
        self.self_s = self_times(spans["start"], spans["end"], spans["parent"])
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.keep = np.isin(spans["op"], np.array(self.ops, dtype=np.int32))
        self.tally = Counter()
        for op in self.ops:
            self.tally.update(tracer.counts.get(op, {}))

    def _mask(self, names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return self.keep & np.isin(self.name, np.array(ids, dtype=np.int32))

    def calls(self, *names) -> float:
        """Calls per op."""
        return int(self._mask(names).sum()) / self.n_ops

    def seconds(self, *names) -> float:
        """Self seconds per op."""
        return float(self.self_s[self._mask(names)].sum()) / self.n_ops

    def children(self, child: str, parent: str) -> int:
        """Total number of ``child`` spans directly inside ``parent`` spans."""
        is_child = self._mask([child])
        is_parent = self._mask([parent])
        return int(is_parent[self.parent[is_child]].sum())

    def count(self, key: str) -> float:
        """An observer count, per op."""
        return self.tally[key] / self.n_ops

    def ratio(self, num: str, den: str) -> float:
        return self.tally[num] / self.tally[den] if self.tally[den] else 0.0

    def per_span(self) -> dict:
        """{span name: {calls, self_s}} per op, for every name seen."""
        out = {}
        for ix, name in enumerate(self.names):
            mask = self.keep & (self.name == ix)
            if mask.any():
                out[name] = {
                    "calls": int(mask.sum()) / self.n_ops,
                    "self_s": float(self.self_s[mask].sum()) / self.n_ops,
                }
        return out


def layer_metrics(spans: SpanTable, counts: SpanTable, curves_per_op: int) -> dict:
    """The per-layer metrics: self times from ``spans``, counts from ``counts``.

    ``counts`` covers a fixed set of ops so that counts repeat exactly
    between runs with one seed; times use every traced op.
    """
    ransac = "geometry.ransac_homography"
    dlt = "geometry.estimate_homography_dlt"
    ransac_calls = counts.calls(ransac)
    matcher_calls = counts.calls("metrics.match_boxes", "metrics.match_points")
    grads = ("rescoring.grad_ar", "rescoring.grad_ac", "rescoring.grad_or", "rescoring.grad_rl")
    losses = ("rescoring.loss_ar", "rescoring.loss_ac", "rescoring.loss_or", "rescoring.loss_rl")
    return {
        "geometry.iou_calls": counts.calls("geometry.iou"),
        "geometry.iou_s": spans.seconds("geometry.iou"),
        "geometry.iou_nonzero_ratio": counts.ratio("geometry.iou_nonzero", "geometry.iou_tried"),
        "geometry.raster_iou_calls": counts.calls("geometry.raster_iou"),
        "geometry.raster_iou_s": spans.seconds("geometry.raster_iou"),
        "geometry.points_in_polygon_s": spans.seconds("geometry.points_in_polygon"),
        "geometry.project_polygon_calls": counts.calls("geometry.project_polygon"),
        "geometry.project_polygon_s": spans.seconds("geometry.project_polygon"),
        "protocol.frame_s": spans.seconds("protocol.Simulator.run_frame"),
        "protocol.compute_mu_calls": counts.calls("protocol.compute_mu_outcome"),
        "protocol.compute_mu_s": spans.seconds("protocol.compute_mu_outcome"),
        "protocol.masking_count_s": spans.seconds("protocol.masking_count"),
        "protocol.mask_share_masks": counts.count("protocol.mask_share_masks"),
        "protocol.mask_share_vertices": counts.count("protocol.mask_share_vertices"),
        "protocol.skipped_projections": counts.count("protocol.skipped_projections"),
        "protocol.calibrate_s": spans.seconds("protocol.Simulator.initialize"),
        "matching.ratio_match_calls": counts.calls("matching.ratio_match"),
        "matching.ratio_match_s": spans.seconds("matching.ratio_match"),
        "matching.kept_ratio": counts.ratio("matching.matches_kept", "matching.features_tried"),
        "geometry.ransac_calls": ransac_calls,
        "geometry.ransac_s": spans.seconds(ransac),
        # each iteration fits one 4-point sample; the last fit is the refit
        "geometry.ransac_iterations": (counts.children(dlt, ransac) / counts.n_ops - ransac_calls),
        "geometry.ransac_inlier_ratio": counts.ratio(
            "geometry.ransac_inliers", "geometry.ransac_correspondences"
        ),
        "geometry.dlt_calls": counts.calls(dlt),
        "geometry.dlt_s": spans.seconds(dlt),
        "geometry.transfer_error_s": spans.seconds("geometry.symmetric_transfer_error"),
        "io.read_scenario_s": spans.seconds("io.read_scenario_json"),
        "io.read_features_s": spans.seconds("io.read_features_csv"),
        "io.write_report_s": spans.seconds("io.write_report"),
        "io.read_detections_s": spans.seconds("io.read_detections_csv"),
        "io.write_table_s": spans.seconds("io.write_table"),
        "io.read_samples_s": spans.seconds("io.read_samples_csv"),
        "io.input_bytes": counts.count("io.input_bytes"),
        "metrics.match_boxes_calls": counts.calls("metrics.match_boxes"),
        "metrics.match_boxes_s": spans.seconds("metrics.match_boxes"),
        "metrics.match_points_calls": counts.calls("metrics.match_points"),
        "metrics.match_points_s": spans.seconds("metrics.match_points"),
        "metrics.hungarian_calls": counts.calls("metrics.hungarian"),
        "metrics.hungarian_s": spans.seconds("metrics.hungarian"),
        "metrics.matcher_calls_per_curve": matcher_calls / curves_per_op if curves_per_op else 0.0,
        "metrics.game_s": spans.seconds("metrics.game"),
        "metrics.ssim_s": spans.seconds("metrics.ssim"),
        "density.dots_to_density_s": spans.seconds("density.dots_to_density"),
        "density.knn_sigmas_s": spans.seconds("density.knn_sigmas"),
        "density.local_peaks_s": spans.seconds("density.local_peaks"),
        "rescoring.train_s": spans.seconds("rescoring.train"),
        "rescoring.grad_calls": counts.calls(*grads),
        "rescoring.grad_s": spans.seconds(*grads),
        "rescoring.loss_s": spans.seconds(*losses),
        "rescoring.score_calls": counts.calls("rescoring.score"),
        "rescoring.pearson_s": spans.seconds("rescoring.pearson_r"),
        "cli.self_s": spans.seconds("cli.main"),
    }
