"""Command-line surface: one subcommand per pipeline capability.

Every stochastic step hangs off --seed, outputs are CSV plus a JSON twin,
logs go to stderr only (level from MESHCOUNT_LOG), and exit codes are
0 on success, 1 for invalid usage or inputs, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from . import io
from .annotate import fit_alpha, prune_far, sanitize_box
from .density import DensityMap, DotAnnotation, KernelSpec, count, dots_to_density, local_peaks
from .errors import MeshCountError, ParseError, TrainingDiverged
from .geometry import (
    Point2,
    RansacParams,
    distance_violations,
    project_point,
    ransac_homography,
    symmetric_transfer_error,
)
from .metrics import (
    CountPair,
    agreement_filtered_counts,
    box_matcher,
    dataset_pr_curve_and_ap,
    game,
    mae,
    mare,
    mean_ap,
    mse,
    point_matcher,
    precision_recall_f1,
    rmse,
)
from .protocol import ProtocolConfig, _pairwise_homography, run_scenario
from .rescoring import TrainConfig, pearson_r, score_batch, train
from .synth import SyntheticSceneSpec, generate_scene

log = logging.getLogger("meshcount")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ransac_args(parser):
    parser.add_argument("--ratio", type=float, default=0.75, help="Lowe ratio test value")
    parser.add_argument("--max-dist", type=float, default=None,
                        help="absolute match distance cutoff (default: 2x median)")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="RANSAC inlier threshold in px")
    parser.add_argument("--max-iter", type=int, default=2000)
    parser.add_argument("--confidence", type=float, default=0.995)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="meshcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", parents=[], help="estimate a homography from features or correspondences")
    p.add_argument("--features-a", help="source feature CSV")
    p.add_argument("--features-b", help="target feature CSV")
    p.add_argument("--correspondences", help="pre-matched correspondence CSV")
    _ransac_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="homography JSON path")

    p = sub.add_parser("simulate", help="run the multi-camera counting protocol on a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--tau", type=float, default=0.2, help="IoU duplicate threshold")
    p.add_argument("--agg", choices=("min", "max", "mean"), default="mean")
    _ransac_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report CSV path (JSON twin written next to it)")

    p = sub.add_parser("gen-scene", help="generate a synthetic scenario with exact ground truth")
    p.add_argument("--cameras", type=int, default=2)
    p.add_argument("--vehicles", type=int, default=12)
    p.add_argument("--overlap", type=float, default=0.4)
    p.add_argument("--warp", choices=("translation", "affine", "projective"), default="translation")
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--drop", type=float, default=0.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--spurious", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="scenario JSON path")

    p = sub.add_parser("density", help="build a density map from dot annotations")
    p.add_argument("--dots", required=True, help="dot CSV with header x,y[,sigma]")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--sigma", type=float, help="fixed Gaussian bandwidth")
    p.add_argument("--knn-k", type=int, help="neighbor count for adaptive bandwidths")
    p.add_argument("--knn-beta", type=float, help="bandwidth scale for the knn mode")
    p.add_argument("--peaks", type=int, help="also report the top-n local peaks")
    p.add_argument("--min-distance", type=int, default=3)
    p.add_argument("--min-value", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="DMF1 raster path")
    p.add_argument("--csv-out", help="optional lossless CSV export")

    p = sub.add_parser("eval-count", help="counting metrics from point predictions vs ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--game", type=int, default=None, help="also compute GAME at this level")
    p.add_argument("--width", type=int, help="image width (needed for GAME)")
    p.add_argument("--height", type=int, help="image height (needed for GAME)")
    p.add_argument("--min-agreement", type=int, default=None)
    p.add_argument("--k", type=int, default=7, help="number of raters")
    p.add_argument("--score-threshold", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval-detect", help="detection metrics: precision, recall, F1, AP")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mode", choices=("box", "point"), default="box")
    p.add_argument("--iou-threshold", type=float, default=0.5)
    p.add_argument("--radius", type=float, default=5.0, help="gating radius for point mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rescore-train", help="train an objectness scorer on agreement samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--method", choices=("AR", "AC", "OR", "RL"), default="OR")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--k", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--trace", help="optional loss-trace CSV path")

    p = sub.add_parser("rescore-eval", help="correlate scorer output with rater agreement")
    p.add_argument("--samples", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="also report how many samples pass this score")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sanitize-bboxes", help="pad skeleton boxes and prune far objects")
    p.add_argument("--in", dest="infile", required=True, help="CSV h_s,w_s,z[,h_m]")
    p.add_argument("--alpha", type=float, default=None,
                   help="padding parameter; fitted from the h_m column when omitted")
    p.add_argument("--max-z", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("distance-check", help="find physical-distance violations")
    p.add_argument("--positions", required=True, help="CSV x,y (pixels or meters)")
    p.add_argument("--homography", help="pixel-to-ground homography JSON")
    p.add_argument("--threshold", type=float, default=1.0, help="violation distance in meters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


# -- command bodies ---------------------------------------------------------------


def _ransac_params(args) -> RansacParams:
    return RansacParams(max_iterations=args.max_iter, inlier_threshold=args.threshold,
                        confidence=args.confidence, seed=args.seed)


def _cmd_calibrate(args) -> int:
    if args.correspondences:
        corrs = io.read_correspondences_csv(args.correspondences)
        h, mask = ransac_homography(corrs, _ransac_params(args))
    else:
        if not (args.features_a and args.features_b):
            print("calibrate: need --correspondences or both --features-a/--features-b",
                  file=sys.stderr)
            return 1
        fa = io.read_features_csv(args.features_a)
        fb = io.read_features_csv(args.features_b)
        config = ProtocolConfig(ransac=_ransac_params(args), ratio=args.ratio,
                                max_dist=args.max_dist)
        h, corrs, mask = _pairwise_homography(fa, fb, config)
    io.write_homography_json(args.out, h)
    inliers = [c for c, keep in zip(corrs, mask) if keep]
    err = symmetric_transfer_error(h, inliers)
    print(f"correspondences={len(corrs)} inliers={sum(mask)} "
          f"mean_transfer_error={float(np.mean(err)):.6f}")
    return 0


def _protocol_config(args) -> ProtocolConfig:
    return ProtocolConfig(tau=args.tau, aggregation=args.agg, ransac=_ransac_params(args),
                          ratio=args.ratio, max_dist=args.max_dist)


def _cmd_simulate(args) -> int:
    scenario = io.read_scenario_json(args.scenario)
    report = run_scenario(scenario, _protocol_config(args))
    csv_path, json_path = io.write_report(args.out, report)
    log.info("report written to %s and %s", csv_path, json_path)
    for method in ("naive", "masking", "ours"):
        stats = report.summary.get(method)
        if stats:
            print(f"{method}: error={stats['error']:+.3f} "
                  f"abs={stats['absolute_error']:.3f} sq={stats['squared_error']:.3f}")
    return 0


def _cmd_gen_scene(args) -> int:
    spec = SyntheticSceneSpec(
        n_cameras=args.cameras,
        image_shape=(args.width, args.height),
        n_vehicles=args.vehicles,
        overlap=args.overlap,
        warp=args.warp,
        drop_rate=args.drop,
        jitter_px=args.jitter,
        spurious_rate=args.spurious,
        n_frames=args.frames,
        seed=args.seed,
    )
    scenario = generate_scene(spec)
    io.write_scenario_json(args.out, scenario)
    total = sum(scenario.ground_truth.global_counts.values())
    print(f"scenario with {args.cameras} cameras, {len(scenario.frames)} frames, "
          f"total ground truth {total} written to {args.out}")
    return 0


def _cmd_density(args) -> int:
    points, sigmas = io.read_dots_csv(args.dots)
    if args.sigma is not None:
        kernel = KernelSpec(mode="fixed", sigma=args.sigma)
    elif args.knn_k is not None and args.knn_beta is not None:
        kernel = KernelSpec(mode="knn-adaptive", k=args.knn_k, beta=args.knn_beta)
    elif sigmas is not None:
        kernel = KernelSpec(mode="per-point")
    else:
        print("density: need --sigma, --knn-k/--knn-beta, or a sigma column", file=sys.stderr)
        return 1
    dots = DotAnnotation(points, sigma=tuple(sigmas) if sigmas is not None else None)
    density = dots_to_density(dots, (args.height, args.width), kernel)
    io.write_density_dmf(args.out, density)
    if args.csv_out:
        io.write_density_csv(args.csv_out, density)
    print(f"dots={len(points)} integral={count(density):.9f}")
    if args.peaks:
        for p in local_peaks(density, args.peaks, args.min_distance, args.min_value):
            print(f"peak,{p.x},{p.y}")
    return 0


def _delta_map(rows, width, height, source) -> DensityMap:
    """One unit per point in its pixel; points follow dots_to_density's rule."""
    grid = np.zeros((height, width))
    for r in rows:
        p = r["geom"]
        if not isinstance(p, Point2):
            raise ValueError(f"GAME needs point rows; {source} has a polygon "
                             f"in image {r['image_id']!r}")
        if not (0.0 <= p.x < width and 0.0 <= p.y < height):
            raise ValueError(f"{source} point ({p.x}, {p.y}) in image {r['image_id']!r} "
                             f"lies outside [0, {width}) x [0, {height})")
        grid[int(p.y), int(p.x)] += 1.0
    return DensityMap(grid)


def _write_metrics(out, rows) -> int:
    io.write_table(out, ["metric", "value"], rows)
    for name, value in rows:
        print(f"{name}={value}")
    return 0


def _by_image(preds, gts):
    """(prediction rows, ground-truth rows) per image, images in sorted order."""
    groups = {}
    for side, rows in enumerate((preds, gts)):
        for r in rows:
            groups.setdefault(r["image_id"], ([], []))[side].append(r)
    return [groups[img] for img in sorted(groups)]


def _cmd_eval_count(args) -> int:
    # predictions under the score threshold are dropped once, for counts and maps
    groups = [
        ([r for r in p_rows if r["score"] >= args.score_threshold], g_rows)
        for p_rows, g_rows in _by_image(io.read_detections_csv(args.pred),
                                        io.read_detections_csv(args.gt))
    ]
    pairs = []
    for kept, g_rows in groups:
        if args.min_agreement is not None:
            # rows without an agreement column count as agreed by everyone
            agreements = [r["agreement"] if r["agreement"] is not None else args.k
                          for r in g_rows]
            pairs.append(agreement_filtered_counts(
                [r["score"] for r in kept], agreements, k=args.k,
                min_agreement=args.min_agreement, score_threshold=args.score_threshold,
            ))
        else:
            pairs.append(CountPair(gt=float(len(g_rows)), pred=float(len(kept))))
    rows = [["mae", mae(pairs)], ["mse", mse(pairs)], ["rmse", rmse(pairs)]]
    try:
        rows.append(["mare", mare(pairs)])
    except MeshCountError:
        log.warning("MARE skipped: a ground-truth count is zero")
        rows.append(["mare", ""])
    if args.game is not None:
        if not (args.width and args.height):
            print("eval-count: GAME needs --width and --height", file=sys.stderr)
            return 1
        pred_maps = [_delta_map(kept, args.width, args.height, "--pred") for kept, _ in groups]
        gt_maps = [_delta_map(g_rows, args.width, args.height, "--gt") for _, g_rows in groups]
        rows.append([f"game{args.game}", game(pred_maps, gt_maps, args.game)])
    return _write_metrics(args.out, rows)


def _cmd_eval_detect(args) -> int:
    preds = io.read_detections_csv(args.pred)
    gts = io.read_detections_csv(args.gt)
    classes = sorted({r["class_id"] for r in preds} | {r["class_id"] for r in gts})
    matcher = box_matcher(args.iou_threshold) if args.mode == "box" else point_matcher(args.radius)
    rows = []
    aps = []
    for cls in classes:
        groups = _by_image([r for r in preds if r["class_id"] == cls],
                           [r for r in gts if r["class_id"] == cls])
        _, ap, final = dataset_pr_curve_and_ap(
            [(io.detections_to_scored(p), [r["geom"] for r in g]) for p, g in groups], matcher
        )
        aps.append(ap)
        values = (*precision_recall_f1(final), ap)
        rows += [[f"class{cls}_{k}", v] for k, v in zip(("precision", "recall", "f1", "ap"), values)]
    rows.append(["map", mean_ap(aps)])
    return _write_metrics(args.out, rows)


def _cmd_rescore_train(args) -> int:
    samples = io.read_samples_csv(args.samples)
    config = TrainConfig(
        method=args.method,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        margin=args.margin,
        seed=args.seed,
    )
    result = train(samples, config, k=args.k)
    io.write_model_json(args.out, result.model)
    if args.trace:
        io.write_loss_trace_csv(args.trace, result.loss_trace)
    print(f"method={args.method} samples={len(samples)} "
          f"initial_loss={result.loss_trace[0]:.6f} final_loss={result.loss_trace[-1]:.6f}")
    return 0


def _cmd_rescore_eval(args) -> int:
    samples = io.read_samples_csv(args.samples)
    model = io.read_model_json(args.model)
    scores = score_batch(model, [s.features for s in samples])
    r = pearson_r(scores, [s.agreement for s in samples])
    rows = [["pearson_r", r], ["n_samples", len(samples)]]
    if args.threshold is not None:
        kept = int(np.count_nonzero(scores >= args.threshold))
        rows.append(["kept_at_threshold", kept])
    return _write_metrics(args.out, rows)


def _cmd_sanitize_bboxes(args) -> int:
    boxes, measured = io.read_skeleton_csv(args.infile)
    if args.alpha is not None:
        alpha = args.alpha
    else:
        if measured is None:
            print("sanitize-bboxes: no --alpha and no h_m column to fit from", file=sys.stderr)
            return 1
        fit = fit_alpha([(b.h_s, b.z, hm) for b, hm in zip(boxes, measured)])
        alpha = fit.alpha
        print(f"fitted alpha={fit.alpha:.9f} residual_rmse={fit.residual_rmse:.9f} "
              f"n={fit.n_samples}")
    kept = prune_far([(box, box.z) for box in boxes], args.max_z)
    kept_boxes = [box for box, _ in kept]
    sanitized = [sanitize_box(box, alpha) for box in kept_boxes]
    io.write_sanitized_csv(args.out, kept_boxes, sanitized)
    print(f"kept {len(kept_boxes)} of {len(boxes)} boxes (max_z={args.max_z})")
    return 0


def _cmd_distance_check(args) -> int:
    positions = io.read_positions_csv(args.positions)
    if args.homography:
        h = io.read_homography_json(args.homography)
        ground = [project_point(h, p) for p in positions]
        log.debug("unprojected %d positions to the ground plane", len(ground))
    else:
        ground = positions
    groups = distance_violations(ground, args.threshold)
    rows = [[idx, ";".join(str(i) for i in g)] for idx, g in enumerate(groups)]
    io.write_table(args.out, ["group", "members"], rows)
    print(f"positions={len(ground)} violation_groups={len(groups)}")
    for idx, g in enumerate(groups):
        print(f"group{idx}: {g}")
    return 0


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "gen-scene": _cmd_gen_scene,
    "density": _cmd_density,
    "eval-count": _cmd_eval_count,
    "eval-detect": _cmd_eval_detect,
    "rescore-train": _cmd_rescore_train,
    "rescore-eval": _cmd_rescore_eval,
    "sanitize-bboxes": _cmd_sanitize_bboxes,
    "distance-check": _cmd_distance_check,
}


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("MESHCOUNT_LOG", "warn"), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # refuse a missing output directory before any work, naming the path given
    for path in (args.out, getattr(args, "csv_out", None), getattr(args, "trace", None)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            print(f"meshcount {args.command}: cannot write {path}: "
                  f"no directory {os.path.dirname(path)}", file=sys.stderr)
            return 1
    started = time.perf_counter()
    try:
        rc = _COMMANDS[args.command](args)
    except (ParseError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"meshcount {args.command}: {exc}", file=sys.stderr)
        return 1
    except MeshCountError as exc:
        print(f"meshcount {args.command}: {exc}", file=sys.stderr)
        return 2
    log.info("%s finished in %.3f s", args.command, time.perf_counter() - started)
    return rc


if __name__ == "__main__":
    sys.exit(main())
