"""Tests of the benchmark's own helpers.

Run with ``PYTHONPATH=src python -m pytest -q perfbench`` from the root of
the repository.
"""

import inspect

import numpy as np
import pytest

import meshcount
import meshcount.protocol
import pb_trace
import pb_workloads
from meshcount.geometry import Polygon
from meshcount.metrics import ScoredDetection, box_matcher, pr_curve_and_ap


def _files(directory):
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", ["mesh-frames", "mesh-calib", "eval", "rescore"])
def test_inputs_are_byte_identical_for_a_seed(tmp_path, name):
    workload = pb_workloads.make_workloads(pb_workloads.CalibrationCapture())[name]
    first = workload.make_case(tmp_path / "a", seed=5, index=3)
    again = workload.make_case(tmp_path / "b", seed=5, index=3)
    other = workload.make_case(tmp_path / "c", seed=6, index=3)
    assert _files(first.dir) == _files(again.dir)
    assert first.seed == again.seed
    assert _files(first.dir) != _files(other.dir)


def _box(x, y, size=10.0):
    return Polygon.box(x, y, x + size, y + size)


@pytest.mark.parametrize(
    "plants",
    [
        # (score, planted on a ground truth?) for three ground truths
        [(0.9, True), (0.8, False), (0.7, True), (0.6, False)],
        [(0.5, False), (0.5, True), (0.4, True), (0.3, True)],  # a tie at the top
        [(0.2, True)],
    ],
)
def test_planted_ap_matches_threshold_enumeration(plants):
    gts = [_box(0, 0), _box(100, 0), _box(200, 0)]
    preds = []
    free_gt = iter(range(len(gts)))
    for k, (score, hit) in enumerate(plants):
        # a planted box overlaps its own truth by IoU 0.82; a decoy overlaps none
        shape = _box(100.0 * next(free_gt) + 0.5, 0.5) if hit else _box(1000.0 + 50 * k, 500)
        preds.append(ScoredDetection(shape, score, 0))
    _, ap = pr_curve_and_ap(preds, gts, box_matcher(0.5))
    assert pb_workloads.envelope_ap(plants, len(gts)) == pytest.approx(ap, abs=1e-15)


def test_self_time_on_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert pb_trace.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans_and_counts():
    tracer = pb_trace.Tracer()
    a, b = _box(0, 0), _box(5, 0)
    tracer.install()
    try:
        root = tracer.begin_op(7)
        meshcount.protocol.iou(a, b)
        meshcount.protocol.iou(a, _box(50, 50))
        tracer.end_op(root)
    finally:
        tracer.remove()
    table = pb_trace.SpanTable(tracer, [7])
    assert table.calls("geometry.iou") == 2
    assert table.ratio("geometry.iou_nonzero", "geometry.iou_tried") == 0.5
    spans = tracer.arrays()
    assert spans["parent"].tolist()[1:] == [0, 0]  # both calls nest in the op span
    assert float(table.self_s.sum()) == pytest.approx(spans["end"][0] - spans["start"][0])


def _snapshot():
    owners = pb_trace.package_modules() + [meshcount.protocol.Simulator]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_install_and_remove_restore_every_attribute():
    before = _snapshot()
    tracer = pb_trace.Tracer()
    capture = pb_workloads.CalibrationCapture()
    original_iou = meshcount.protocol.iou
    for _ in range(2):
        capture.install()
        tracer.install()
        try:
            assert meshcount.protocol.iou is not original_iou
            assert inspect.unwrap(meshcount.protocol.iou) is original_iou
        finally:
            tracer.remove()
            capture.remove()
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert attrs.keys() == now.keys(), owner
        changed = [name for name in attrs if attrs[name] is not now[name]]
        assert not changed, (owner, changed)
