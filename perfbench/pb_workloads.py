"""The benchmark's four workloads: seeded inputs, one op each, and oracles.

Every op goes through ``meshcount.cli.main(argv)`` in-process, on files
written during set-up, so it pays for the same parsing, library calls and
output writing as a user of the command line. Each input is built from
(workload seed, input index) alone and is used by exactly one op.

Each workload provides
- ``make_case(workdir, seed, index)``: build and write one op's inputs,
  returning a ``Case`` that holds their paths and the oracle's facts;
- ``run(case)``: the op itself, returning an ``Outcome``;
- ``check(case, outcome)``: the oracle, returning a list of problems;
- ``quality(outcomes)``: the workload's quality figure, if it has one.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io as _stdio
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import meshcount.cli
import meshcount.io
import meshcount.metrics
import meshcount.protocol
import meshcount.synth
from meshcount.geometry import Point2, Polygon
from meshcount.matching import Feature
from meshcount.rescoring import AgreementSample

H_CORNER_TOL = 1e-6  # px, estimated vs true homography at the image corners
AP_TOL = 1e-12
COUNT_TOL = 1e-9


@dataclass
class Case:
    index: int
    dir: Path
    seed: int  # the op's --seed
    facts: dict = field(default_factory=dict)  # what the oracle knows


@dataclass
class Outcome:
    stdout: str = ""
    codes: list = field(default_factory=list)  # cli.main return codes
    values: dict = field(default_factory=dict)  # results the op computed itself


def case_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def call_cli(argv, outcome: Outcome) -> None:
    """One CLI invocation, in-process, with its standard output captured."""
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        outcome.codes.append(meshcount.cli.main([str(a) for a in argv]))
    outcome.stdout += buf.getvalue()


def read_table(base: Path) -> dict:
    """{metric: value} from the JSON twin of a CLI metric table."""
    doc = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    return {row["metric"]: row["value"] for row in doc}


def nonzero_codes(outcome: Outcome) -> list:
    return [f"exit code {c}" for c in outcome.codes if c != 0]


# -- calibration capture ------------------------------------------------------------


class CalibrationCapture:
    """Keeps the homographies that ``Simulator.initialize`` returns.

    ``simulate`` writes no homography, so the mesh oracles read the
    estimates here. This one wrapper stays installed in untraced runs too;
    it copies a handful of 3x3 matrices per op.
    """

    def __init__(self):
        self._cls = meshcount.protocol.Simulator
        self._original = self._cls.__dict__["initialize"]
        self.last = None

    def install(self) -> None:
        original = self._original

        @functools.wraps(original)
        def initialize(sim):
            result = original(sim)
            self.last = {key: h.matrix.copy() for key, h in result.items()}
            return result

        self._cls.initialize = initialize

    def remove(self) -> None:
        self._cls.initialize = self._original

    def take(self):
        last, self.last = self.last, None
        return last


def corner_error(estimate: np.ndarray, truth: np.ndarray, width: float, height: float) -> float:
    """Largest distance between the two maps of the source image corners."""
    corners = np.array([[0.0, 0.0, 1.0], [width, 0.0, 1.0], [width, height, 1.0], [0.0, height, 1.0]])
    a = corners @ estimate.T
    b = corners @ truth.T
    a = a[:, :2] / a[:, 2:3]
    b = b[:, :2] / b[:, 2:3]
    return float(np.max(np.hypot(*(a - b).T)))


# -- mesh workloads -------------------------------------------------------------------


class MeshWorkload:
    """``simulate`` on a synthetic camera chain written by ``synth``."""

    name = ""
    batch = 1
    curves_per_op = 0

    def __init__(self, capture: CalibrationCapture):
        self.capture = capture

    def spec(self, index: int, scene_seed: int):
        raise NotImplementedError

    def decorate(self, scenario, rng) -> None:
        """Hook for workload-specific changes before the files are written."""

    def make_case(self, workdir: Path, seed: int, index: int) -> Case:
        rng = case_rng(seed, index)
        spec = self.spec(index, int(rng.integers(2**31)))
        scenario = meshcount.synth.generate_scene(spec)
        self.decorate(scenario, rng)
        case_dir = workdir / f"case{index:05d}"
        case_dir.mkdir(parents=True)
        meshcount.io.write_scenario_json(case_dir / "scene.json", scenario)
        frames = list(scenario.frames)
        duplicates = []
        for frame_id in frames:
            seen = {}
            for node in scenario.nodes:
                for det in node.frames.get(frame_id, []):
                    if det.vehicle_id is not None:
                        seen[det.vehicle_id] = seen.get(det.vehicle_id, 0) + 1
            duplicates.append(sum(c - 1 for c in seen.values()))
        sizes = {n.node_id: (n.width, n.height) for n in scenario.nodes}
        return Case(
            index=index,
            dir=case_dir,
            seed=int(rng.integers(2**31)),
            facts={
                "frames": frames,
                "duplicates": duplicates,
                "truth_h": {k: h.matrix.copy() for k, h in scenario.ground_truth.homographies.items()},
                "sizes": sizes,
            },
        )

    def run(self, case: Case) -> Outcome:
        outcome = Outcome()
        self.capture.take()
        call_cli(
            ["simulate", "--scenario", case.dir / "scene.json",
             "--out", case.dir / "report.csv", "--seed", case.seed],
            outcome,
        )
        outcome.values["homographies"] = self.capture.take()
        return outcome

    def report_rows(self, case: Case) -> list:
        with open(case.dir / "report.csv", newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(self, case: Case, outcome: Outcome) -> list:
        problems = nonzero_codes(outcome)
        if problems:
            return problems
        rows = self.report_rows(case)
        if [r["frame_id"] for r in rows] != case.facts["frames"]:
            problems.append(f"report has frames {[r['frame_id'] for r in rows]}")
        return problems

    def quality(self, cases_and_outcomes) -> dict:
        """count_mae: mean |ours_raw - gt| over every frame of every op."""
        errs = []
        for case, outcome in cases_and_outcomes:
            if not nonzero_codes(outcome):
                errs += [abs(float(r["err_o"])) for r in self.report_rows(case)]
        return {"count_mae": float(np.mean(errs)) if errs else None}


class MeshFrames(MeshWorkload):
    name = "mesh-frames"
    batch = 4
    warps = ("translation", "affine", "projective")

    def spec(self, index, scene_seed):
        return meshcount.synth.SyntheticSceneSpec(
            n_cameras=3, n_vehicles=60, overlap=0.5, warp=self.warps[index % 3],
            drop_rate=0.05, jitter_px=2.0, spurious_rate=0.05, n_frames=8, seed=scene_seed,
        )

    def check(self, case, outcome):
        """With clean features every pair must recover the true homography."""
        problems = super().check(case, outcome)
        if problems:
            return problems
        estimates = outcome.values.get("homographies") or {}
        truth = case.facts["truth_h"]
        if set(estimates) != set(truth):
            problems.append(f"calibrated pairs {sorted(estimates)} != {sorted(truth)}")
        for key in sorted(set(estimates) & set(truth)):
            w, h = case.facts["sizes"][key[0]]
            err = corner_error(estimates[key], truth[key], w, h)
            if not err <= H_CORNER_TOL:
                problems.append(f"pair {key}: corner error {err:.3g} px")
        return problems


class MeshCalib(MeshWorkload):
    name = "mesh-calib"
    batch = 20
    warps = ("affine", "projective")
    decoy_share = (0.15, 0.20)
    descriptor_noise = 0.05  # the synthetic descriptors' own noise level

    def spec(self, index, scene_seed):
        return meshcount.synth.SyntheticSceneSpec(
            n_cameras=6, n_vehicles=12, overlap=0.3, warp=self.warps[index % 2],
            n_frames=1, seed=scene_seed,
        )

    def decorate(self, scenario, rng):
        """Give every camera but the last noisy copies of some of its next
        neighbour's descriptors at random keypoints, so each pair's matches
        hold outliers (about 40%) and RANSAC iterates."""
        originals = {n.node_id: list(n.features) for n in scenario.nodes}
        for node in scenario.nodes:
            for j in node.neighbors:
                if j < node.node_id:
                    continue
                donor = originals[j]
                share = rng.uniform(*self.decoy_share)
                picks = rng.choice(len(donor), size=int(round(share * len(donor))), replace=False)
                for k in picks:
                    desc = donor[k].descriptor
                    node.features.append(
                        Feature(
                            Point2(float(rng.uniform(0, node.width)), float(rng.uniform(0, node.height))),
                            desc + rng.normal(0.0, self.descriptor_noise, desc.size),
                        )
                    )

    def check(self, case, outcome):
        problems = super().check(case, outcome)
        if problems:
            return problems
        for row, dup in zip(self.report_rows(case), case.facts["duplicates"]):
            if float(row["err_o"]) != 0.0:
                problems.append(f"{row['frame_id']}: err_o {row['err_o']} != 0")
            if int(row["err_n"]) != dup:
                problems.append(f"{row['frame_id']}: err_n {row['err_n']} != {dup} duplicates")
        return problems


# -- evaluation workload ------------------------------------------------------------------

BOX_IMAGE = (640, 480)
BOX_CELL = 80  # boxes sit in distinct cells of this grid, so IoU across cells is 0
POINT_IMAGE = 256
POINT_CELL = 16  # points sit in distinct cells; cross-cell distance > the match gate
N_IMAGES = 4
N_CLASSES = 2
PLANT_RATE = 0.8
GAME_LEVEL = 3
KNN_K, KNN_BETA, N_PEAKS = 3, 0.3, 10


def envelope_ap(labelled, n_gt: int) -> float:
    """Right-envelope AP from (score, is_true_positive) pairs.

    For planted predictions the true-positive set at any threshold is known,
    so the curve needs no matcher: precision and recall at each distinct
    score, then the recall increments weighted by the best precision at
    that recall or beyond.
    """
    curve = []
    for t in sorted({s for s, _ in labelled}, reverse=True):
        tp = sum(1 for s, hit in labelled if s >= t and hit)
        fp = sum(1 for s, hit in labelled if s >= t and not hit)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / n_gt if n_gt else 0.0
        curve.append((recall, precision))
    ap = 0.0
    prev = 0.0
    for r in sorted({r for r, _ in curve if r > 0}):
        ap += (r - prev) * max(p for rr, p in curve if rr >= r)
        prev = r
    return ap


def _planted_rows(rng, n_cells: int, n_gt_range, shape_in, shifted):
    """Planted detections on N_IMAGES images.

    Each image puts ground truths and decoys in distinct grid cells; a
    ground truth gets at most one prediction, ``shifted`` from it so that
    it always matches, and decoys match nothing. Returns (gt rows, pred
    rows, {class: [(score, is_true_positive)]}, {class: ground truths}).
    """
    gt_rows, pred_rows = [], []
    labelled = {c: [] for c in range(N_CLASSES)}
    n_gt = {c: 0 for c in range(N_CLASSES)}
    for img in range(N_IMAGES):
        image_id = f"img{img}"
        cells = rng.permutation(n_cells)
        n, n_decoy = int(rng.integers(*n_gt_range)), int(rng.integers(3, 7))
        for k, cell in enumerate(cells[:n]):
            # the first image's first truths give every class a ground truth
            cls = k if img == 0 and k < N_CLASSES else int(rng.integers(N_CLASSES))
            shape = shape_in(cell)
            gt_rows.append((image_id, cls, None, None, shape))
            n_gt[cls] += 1
            if rng.uniform() < PLANT_RATE:
                score = float(rng.uniform(0.05, 1.0))
                pred_rows.append((image_id, cls, score, None, shifted(shape)))
                labelled[cls].append((score, True))
        for cell in cells[n : n + n_decoy]:
            cls = int(rng.integers(N_CLASSES))
            score = float(rng.uniform(0.05, 1.0))
            pred_rows.append((image_id, cls, score, None, shape_in(cell)))
            labelled[cls].append((score, False))
    return gt_rows, pred_rows, labelled, n_gt


def _box_rows(rng):
    """Boxes 20-40 px wide in 80 px cells, shifted at most 1.5 px (IoU >= 0.74)."""
    cols = BOX_IMAGE[0] // BOX_CELL

    def box_in(cell):
        cx = (cell % cols + 0.5) * BOX_CELL + rng.uniform(-5, 5)
        cy = (cell // cols + 0.5) * BOX_CELL + rng.uniform(-5, 5)
        w, h = rng.uniform(20, 40, 2)
        return Polygon.box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)

    def shifted(box):
        return Polygon(box.vertices + rng.uniform(-1.5, 1.5, 2))

    n_cells = cols * (BOX_IMAGE[1] // BOX_CELL)
    return _planted_rows(rng, n_cells, (13, 18), box_in, shifted)


def _point_rows(rng):
    """Points within 3 px of 16 px cell centres, shifted at most 1 px per axis:
    a truth is >= 10 px from other truths and decoys, beyond the 6.25 px gate."""
    cols = POINT_IMAGE // POINT_CELL

    def point_in(cell):
        return Point2((cell % cols + 0.5) * POINT_CELL + rng.uniform(-3, 3),
                      (cell // cols + 0.5) * POINT_CELL + rng.uniform(-3, 3))

    def shifted(p):
        dx, dy = rng.uniform(-1.0, 1.0, 2)
        return Point2(p.x + dx, p.y + dy)

    return _planted_rows(rng, cols * cols, (27, 34), point_in, shifted)


def _game_oracle(gt_rows, pred_rows, level: int) -> float:
    """GAME from integer counts per grid block (blocks of 256 / 2^level)."""
    block = POINT_IMAGE >> level
    total = []
    for img in range(N_IMAGES):
        image_id = f"img{img}"
        grid = np.zeros((1 << level, 1 << level))
        for rows, sign in ((pred_rows, 1.0), (gt_rows, -1.0)):
            for r in rows:
                if r[0] == image_id:
                    grid[int(r[4].y) // block, int(r[4].x) // block] += sign
        total.append(float(np.abs(grid).sum()))
    return float(np.mean(total))


def _detection_facts(labelled, n_gt) -> dict:
    facts = {}
    for cls in range(N_CLASSES):
        tp = sum(1 for _, hit in labelled[cls] if hit)
        n_pred = len(labelled[cls])
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gt[cls]
        facts[f"class{cls}_precision"] = precision
        facts[f"class{cls}_recall"] = recall
        facts[f"class{cls}_ap"] = envelope_ap(labelled[cls], n_gt[cls])
    facts["map"] = float(np.mean([facts[f"class{c}_ap"] for c in range(N_CLASSES)]))
    return facts


class Eval:
    name = "eval"
    batch = 10
    curves_per_op = 2 * N_CLASSES  # box and point AP, per class

    def make_case(self, workdir: Path, seed: int, index: int) -> Case:
        rng = case_rng(seed, index)
        case_dir = workdir / f"case{index:05d}"
        case_dir.mkdir(parents=True)
        box_gt, box_pred, box_labelled, box_n = _box_rows(rng)
        pt_gt, pt_pred, pt_labelled, pt_n = _point_rows(rng)
        for name, rows in (("box_gt", box_gt), ("box_pred", box_pred), ("pt_gt", pt_gt), ("pt_pred", pt_pred)):
            meshcount.io.write_detections_csv(case_dir / f"{name}.csv", rows)
        dots = {
            "gt": [r[4] for r in pt_gt if r[0] == "img0"],
            "pred": [r[4] for r in pt_pred if r[0] == "img0"],
        }
        for name, points in dots.items():
            meshcount.io.write_dots_csv(case_dir / f"dots_{name}.csv", points)
        counts = [
            (sum(1 for r in pt_gt if r[0] == f"img{i}"), sum(1 for r in pt_pred if r[0] == f"img{i}"))
            for i in range(N_IMAGES)
        ]
        errs = [p - g for g, p in counts]
        return Case(
            index=index,
            dir=case_dir,
            seed=int(rng.integers(2**31)),
            facts={
                "box": _detection_facts(box_labelled, box_n),
                "point": _detection_facts(pt_labelled, pt_n),
                "count": {
                    "mae": float(np.mean(np.abs(errs))),
                    "mse": float(np.mean(np.square(errs))),
                    f"game{GAME_LEVEL}": _game_oracle(pt_gt, pt_pred, GAME_LEVEL),
                },
                "dots": {name: len(points) for name, points in dots.items()},
            },
        )

    def run(self, case: Case) -> Outcome:
        d = case.dir
        outcome = Outcome()
        for mode, prefix in (("box", "box"), ("point", "pt")):
            call_cli(["eval-detect", "--pred", d / f"{prefix}_pred.csv", "--gt", d / f"{prefix}_gt.csv",
                      "--mode", mode, "--seed", case.seed, "--out", d / f"detect_{mode}.csv"], outcome)
        call_cli(["eval-count", "--pred", d / "pt_pred.csv", "--gt", d / "pt_gt.csv",
                  "--game", GAME_LEVEL, "--width", POINT_IMAGE, "--height", POINT_IMAGE,
                  "--seed", case.seed, "--out", d / "count.csv"], outcome)
        for name in ("gt", "pred"):
            call_cli(["density", "--dots", d / f"dots_{name}.csv", "--width", POINT_IMAGE,
                      "--height", POINT_IMAGE, "--knn-k", KNN_K, "--knn-beta", KNN_BETA,
                      "--peaks", N_PEAKS, "--seed", case.seed, "--out", d / f"density_{name}.dmf"], outcome)
        if not nonzero_codes(outcome):
            maps = [meshcount.io.read_density_dmf(d / f"density_{name}.dmf") for name in ("gt", "pred")]
            outcome.values["ssim"] = meshcount.metrics.ssim(*maps)
        return outcome

    def check(self, case: Case, outcome: Outcome) -> list:
        problems = nonzero_codes(outcome)
        if problems:
            return problems
        for mode in ("box", "point"):
            got = read_table(case.dir / f"detect_{mode}.csv")
            for key, want in case.facts[mode].items():
                if not abs(got[key] - want) <= AP_TOL:
                    problems.append(f"{mode} {key}: {got[key]!r} != {want!r}")
        got = read_table(case.dir / "count.csv")
        for key, want in case.facts["count"].items():
            if not abs(got[key] - want) <= COUNT_TOL:
                problems.append(f"eval-count {key}: {got[key]!r} != {want!r}")
        integrals = [float(v) for v in re.findall(r"integral=(\S+)", outcome.stdout)]
        want = [case.facts["dots"]["gt"], case.facts["dots"]["pred"]]
        if len(integrals) != 2 or any(abs(i - n) > COUNT_TOL for i, n in zip(integrals, want)):
            problems.append(f"density integrals {integrals} != dot counts {want}")
        n_peaks = outcome.stdout.count("peak,")
        if not 2 <= n_peaks <= 2 * N_PEAKS:
            problems.append(f"{n_peaks} peaks reported")
        s = outcome.values.get("ssim")
        if s is None or not (math.isfinite(s) and -1.0 <= s <= 1.0):
            problems.append(f"ssim {s!r} outside [-1, 1]")
        return problems

    def quality(self, cases_and_outcomes) -> dict:
        return {}


# -- rescoring workload ----------------------------------------------------------------------

RESCORE_METHODS = ("AR", "AC", "OR", "RL")
RESCORE_K = 7
RESCORE_EPOCHS = 20
TRAIN_SIZE, HELDOUT_SIZE, N_FEATURES = 1000, 500, 16
PEARSON_FLOOR = 0.9  # OR and RL must reach it on held-out samples


def agreement_samples(rng, n: int):
    """Samples whose first feature tracks agreement / k; the rest is noise."""
    agreement = rng.integers(0, RESCORE_K + 1, n)
    feats = rng.normal(0.0, 1.0, (n, N_FEATURES))
    feats[:, 0] = agreement / RESCORE_K + rng.normal(0.0, 0.05, n)
    return [AgreementSample(feats[i], int(agreement[i])) for i in range(n)]


class Rescore:
    name = "rescore"
    batch = 3
    curves_per_op = 0

    def make_case(self, workdir: Path, seed: int, index: int) -> Case:
        rng = case_rng(seed, index)
        case_dir = workdir / f"case{index:05d}"
        case_dir.mkdir(parents=True)
        for method in RESCORE_METHODS:
            meshcount.io.write_samples_csv(case_dir / f"train_{method}.csv", agreement_samples(rng, TRAIN_SIZE))
        meshcount.io.write_samples_csv(case_dir / "heldout.csv", agreement_samples(rng, HELDOUT_SIZE))
        return Case(index=index, dir=case_dir, seed=int(rng.integers(2**31)))

    def run(self, case: Case) -> Outcome:
        d = case.dir
        outcome = Outcome()
        for method in RESCORE_METHODS:
            call_cli(["rescore-train", "--samples", d / f"train_{method}.csv", "--method", method,
                      "--epochs", RESCORE_EPOCHS, "--k", RESCORE_K, "--seed", case.seed,
                      "--out", d / f"model_{method}.json"], outcome)
        for method in RESCORE_METHODS:
            call_cli(["rescore-eval", "--samples", d / "heldout.csv", "--model", d / f"model_{method}.json",
                      "--seed", case.seed, "--out", d / f"eval_{method}.csv"], outcome)
        return outcome

    def pearson(self, case: Case) -> dict:
        return {m: read_table(case.dir / f"eval_{m}.csv")["pearson_r"] for m in RESCORE_METHODS}

    def check(self, case: Case, outcome: Outcome) -> list:
        problems = nonzero_codes(outcome)
        if problems:
            return problems
        losses = re.findall(r"method=(\w+) .*initial_loss=(\S+) final_loss=(\S+)", outcome.stdout)
        if [m for m, _, _ in losses] != list(RESCORE_METHODS):
            problems.append(f"training reported methods {[m for m, _, _ in losses]}")
        for method, initial, final in losses:
            if not float(final) < float(initial):
                problems.append(f"{method}: final loss {final} not below initial {initial}")
        for method, r in self.pearson(case).items():
            if method in ("OR", "RL") and not r >= PEARSON_FLOOR:
                problems.append(f"{method}: held-out r {r:.4f} < {PEARSON_FLOOR}")
        return problems

    def quality(self, cases_and_outcomes) -> dict:
        """heldout_pearson_r: mean held-out r over the four methods and every op."""
        rs = []
        for case, outcome in cases_and_outcomes:
            if not nonzero_codes(outcome):
                rs += list(self.pearson(case).values())
        return {"heldout_pearson_r": float(np.mean(rs)) if rs else None}


def make_workloads(capture: CalibrationCapture) -> dict:
    return {w.name: w for w in (MeshFrames(capture), MeshCalib(capture), Eval(), Rescore())}
