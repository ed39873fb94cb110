"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here, not tuned elsewhere."""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from meshcount.annotate import fit_alpha
from meshcount.cli import main
from meshcount.density import DensityMap, DotAnnotation, KernelSpec, count, dots_to_density
from meshcount.geometry import (
    Correspondence,
    Homography,
    Point2,
    RansacParams,
    ransac_homography,
    symmetric_transfer_error,
)
from meshcount.metrics import (
    CountPair,
    ScoredDetection,
    game,
    mae,
    match_points,
    point_matcher,
    pr_curve_and_ap,
    ssim,
)
from meshcount.protocol import ProtocolConfig, run_scenario
from meshcount.rescoring import (
    AgreementSample,
    ScorerModel,
    TrainConfig,
    grad_ac,
    grad_ar,
    grad_or,
    grad_rl,
    loss_ac,
    loss_ar,
    loss_or,
    loss_rl,
    or_class_probs,
    pearson_r,
    score,
    train,
)
from meshcount.synth import SyntheticSceneSpec, generate_scene

K = 7


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


def test_criterion_1_protocol_exactness():
    with criterion(1, "noise-free protocol count is exact on 100 scenarios in < 10 s"):
        started = time.perf_counter()
        for seed in range(100):
            rng = np.random.default_rng(seed + 1000)
            spec = SyntheticSceneSpec(
                n_cameras=int(rng.integers(2, 6)),
                n_vehicles=int(rng.integers(8, 20)),
                overlap=float(rng.uniform(0.15, 0.5)),
                warp=("translation", "affine", "projective")[seed % 3],
                n_frames=1,
                seed=seed,
            )
            scenario = generate_scene(spec)
            report = run_scenario(scenario, ProtocolConfig())
            for row in report.frames:
                assert row["err_o"] == pytest.approx(0.0, abs=1e-9)
                # identity-label oracle: naive overcounts by the duplicates
                appearances = {}
                for node in scenario.nodes:
                    for det in node.frames[row["frame_id"]]:
                        if det.vehicle_id is not None:
                            appearances[det.vehicle_id] = appearances.get(det.vehicle_id, 0) + 1
                duplicates = sum(c - 1 for c in appearances.values())
                assert row["err_n"] == duplicates
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_2_error_ordering_under_noise():
    with criterion(2, "mean |error| ordering Naive > Masking > Ours on >= 90 of 100 seeds"):
        holds = 0
        for seed in range(100):
            spec = SyntheticSceneSpec(
                n_cameras=3,
                n_vehicles=60,
                overlap=0.5,
                warp="translation",
                drop_rate=0.05,
                jitter_px=2.0,
                spurious_rate=0.05,
                n_frames=4,
                seed=seed,
            )
            report = run_scenario(generate_scene(spec), ProtocolConfig())
            mae_n = np.mean([abs(r["err_n"]) for r in report.frames])
            mae_m = np.mean([abs(r["err_m"]) for r in report.frames])
            mae_o = np.mean([abs(r["err_o"]) for r in report.frames])
            if mae_n > mae_m > mae_o:
                holds += 1
        assert holds >= 90, f"ordering held on only {holds} of 100 scenarios"


def _random_projective(rng):
    m = np.eye(3)
    m[:2, :2] += rng.uniform(-0.2, 0.2, (2, 2))
    m[:2, 2] = rng.uniform(-20, 20, 2)
    m[2, :2] = rng.uniform(-1e-3, 1e-3, 2)
    return m


def _apply(m, pts):
    hom = np.hstack([pts, np.ones((pts.shape[0], 1))]) @ m.T
    return hom[:, :2] / hom[:, 2:3]


def test_criterion_3_ransac_recovery():
    with criterion(3, "RANSAC under 30% outliers: mean transfer error < 1 px, max < 3 px"):
        errors = []
        for trial in range(100):
            rng = np.random.default_rng(trial)
            m = _random_projective(rng)
            src_in = rng.uniform(0, 200, (35, 2))
            dst_in = _apply(m, src_in) + rng.normal(0, 0.5, (35, 2))
            src_out = rng.uniform(0, 200, (15, 2))
            dst_out = rng.uniform(250, 500, (15, 2))
            src = np.vstack([src_in, src_out])
            dst = np.vstack([dst_in, dst_out])
            corrs = [Correspondence(Point2(*s), Point2(*d)) for s, d in zip(src, dst)]
            h, _ = ransac_homography(corrs, RansacParams(seed=trial))
            # measure against the generator on a noise-free grid
            gx, gy = np.meshgrid(np.linspace(0, 200, 5), np.linspace(0, 200, 5))
            grid = np.column_stack([gx.ravel(), gy.ravel()])
            truth = _apply(m, grid)
            check = [Correspondence(Point2(*s), Point2(*d)) for s, d in zip(grid, truth)]
            errors.append(float(np.mean(symmetric_transfer_error(h, check))))
        assert float(np.mean(errors)) < 1.0
        assert max(errors) < 3.0, f"worst trial error {max(errors):.3f} px"


def test_criterion_4_density_mass_and_game_zero():
    with criterion(4, "mass conservation on 1000 dot sets; GAME(0) == MAE exactly"):
        rng = np.random.default_rng(42)
        maps = []
        for _ in range(1000):
            n = int(rng.integers(1, 16))
            pts = np.column_stack([rng.uniform(0, 48, n), rng.uniform(0, 32, n)])
            pts[: max(1, n // 3), 0] = rng.uniform(0, 1.0, max(1, n // 3))  # border dots
            density = dots_to_density(
                DotAnnotation([tuple(p) for p in pts]),
                (32, 48),
                KernelSpec(sigma=float(rng.uniform(1.0, 3.0))),
            )
            assert abs(count(density) - n) < 1e-6
            maps.append(density)
        preds = maps[0::2]
        gts = maps[1::2]
        counts = [
            CountPair(gt=float(g.values.sum()), pred=float(p.values.sum()))
            for p, g in zip(preds, gts)
        ]
        assert game(preds, gts, 0) == mae(counts)


def _ap_oracle(preds, gts, matcher):
    points = []
    for t in sorted({p.score for p in preds}, reverse=True):
        kept = [p for p in preds if p.score >= t]
        m = matcher(kept, gts)
        points.append(
            (
                m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0,
                m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0,
            )
        )
    ap = prev = 0.0
    for r in sorted({r for r, _ in points if r > 0}):
        ap += (r - prev) * max(p for rr, p in points if rr >= r)
        prev = r
    return ap


def test_criterion_5_metric_oracles():
    with criterion(5, "ssim self-identity, AP vs threshold enumeration, Hungarian vs brute force"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = DensityMap(rng.uniform(0, 4, (16, 19)))
            assert abs(ssim(m, m) - 1.0) <= 1e-12

        # every 5-detection hit/miss instance vs the enumeration oracle
        gts = [Point2(10.0 * i, 0.0) for i in range(5)]
        scores = (0.9, 0.8, 0.7, 0.6, 0.5)
        matcher = point_matcher(1.0)
        for pattern in itertools.product((True, False), repeat=5):
            preds = []
            for i, (hit, s) in enumerate(zip(pattern, scores)):
                x = 10.0 * i if hit else 500.0 + 10.0 * i
                preds.append(ScoredDetection(Point2(x, 0.0), s))
            _, ap = pr_curve_and_ap(preds, gts, matcher)
            assert ap == pytest.approx(_ap_oracle(preds, gts, matcher), abs=1e-12)

        # Hungarian total vs exhaustive assignment on sizes up to 8
        for trial in range(25):
            n_pred = int(rng.integers(1, 9))
            n_gt = int(rng.integers(1, 9))
            pred_pts = rng.uniform(0, 12, (n_pred, 2))
            gt_pts = rng.uniform(0, 12, (n_gt, 2))
            radius = float(rng.uniform(1.0, 6.0))
            m = match_points(
                [ScoredDetection(Point2(*p), 0.5) for p in pred_pts],
                [Point2(*g) for g in gt_pts],
                radius,
            )
            got = (min(n_pred, n_gt) - m.tp, sum(c for _, _, c in m.pairs))
            best = None
            k = min(n_pred, n_gt)
            for gt_perm in itertools.permutations(range(n_gt), k):
                for pred_sel in itertools.combinations(range(n_pred), k):
                    gated = 0
                    cost = 0.0
                    for i, j in zip(pred_sel, gt_perm):
                        d = math.dist(pred_pts[i], gt_pts[j])
                        if d > 1.25 * radius:
                            gated += 1
                        else:
                            cost += d
                    if best is None or (gated, cost) < best:
                        best = (gated, cost)
            assert got[0] == best[0]
            assert got[1] == pytest.approx(best[1], abs=1e-9)


def _fd(f, x0, eps=1e-5):
    g = np.zeros_like(x0)
    for i in range(x0.size):
        hi, lo = x0.copy(), x0.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2 * eps)
    return g


def _close(analytic, numeric, rel=1e-4):
    analytic = np.asarray(analytic).ravel()
    numeric = np.asarray(numeric).ravel()
    return float(np.linalg.norm(analytic - numeric)) <= rel * max(
        float(np.linalg.norm(numeric)), 1e-6
    )


def test_criterion_6_gradients_and_ordinal_probs():
    with criterion(6, "analytic gradients match FD at 1e-4; ordinal probs sum to 1 at 1e-12"):
        rng = np.random.default_rng(11)

        def scalar(w, b, thetas=None):
            return ScorerModel(head="scalar", weights=w, bias=float(b), thetas=thetas)

        for _ in range(50):  # AR
            d = int(rng.integers(1, 5))
            batch = [AgreementSample(rng.normal(0, 1, d), int(rng.integers(0, K + 1)))
                     for _ in range(int(rng.integers(1, 6)))]
            w, b = rng.normal(0, 1, d), float(rng.normal())
            dw, db = grad_ar(scalar(w, b), batch, K)
            fd = _fd(lambda p: loss_ar(scalar(p[:-1], p[-1]), batch, K),
                     np.concatenate([w, [b]]))
            assert _close(np.concatenate([dw, [db]]), fd)

        for _ in range(50):  # AC
            d = int(rng.integers(1, 4))
            batch = [AgreementSample(rng.normal(0, 1, d), int(rng.integers(0, K + 1)))
                     for _ in range(int(rng.integers(1, 5)))]
            w = rng.normal(0, 1, (K + 1, d))
            b = rng.normal(0, 1, K + 1)
            model = ScorerModel(head="categorical", weights=w, bias=b)
            dw, db = grad_ac(model, batch)
            packed = np.concatenate([w.ravel(), b])

            def unpack_ac(p, d=d):
                return ScorerModel(head="categorical",
                                   weights=p[: (K + 1) * d].reshape(K + 1, d),
                                   bias=p[(K + 1) * d:])

            fd = _fd(lambda p: loss_ac(unpack_ac(p), batch), packed)
            assert _close(np.concatenate([dw.ravel(), db]), fd)

        for _ in range(50):  # OR
            d = int(rng.integers(1, 4))
            batch = [AgreementSample(rng.normal(0, 1, d), int(rng.integers(0, K + 1)))
                     for _ in range(int(rng.integers(1, 5)))]
            w, b = rng.normal(0, 1, d), float(rng.normal())
            thetas = np.sort(rng.normal(0, 1.5, K)) + np.arange(K) * 1e-3
            dw, db, dth = grad_or(scalar(w, b, thetas), batch)

            def unpack_or(p, d=d):
                return scalar(p[:d], p[d], p[d + 1:])

            fd = _fd(lambda p: loss_or(unpack_or(p), batch),
                     np.concatenate([w, [b], thetas]))
            assert _close(np.concatenate([dw, [db], dth]), fd)

        for _ in range(50):  # RL
            d = int(rng.integers(1, 5))
            tup = [AgreementSample(rng.normal(0, 1, d), i) for i in range(K + 1)]
            w, b = rng.normal(0, 1, d), float(rng.normal())
            dw, db = grad_rl(scalar(w, b), tup, margin=0.1)
            fd = _fd(lambda p: loss_rl(scalar(p[:-1], p[-1]), tup, margin=0.1),
                     np.concatenate([w, [b]]))
            assert _close(np.concatenate([dw, [db]]), fd)

        for _ in range(100_000):
            thetas = np.sort(rng.normal(0, 2, K)) + np.arange(K) * 1e-9
            y = or_class_probs(float(rng.normal(0, 3)), thetas)
            assert abs(float(y.sum()) - 1.0) <= 1e-12


def _agreement_dataset(rng, n, noise=0.05):
    data = []
    for _ in range(n):
        a = int(rng.integers(0, K + 1))
        data.append(
            AgreementSample(
                np.array([a / K + rng.normal(0, noise), rng.normal(), rng.normal()]), a
            )
        )
    return data


def test_criterion_7_rescoring_efficacy():
    with criterion(7, "OR/RL reach held-out Pearson >= 0.9 and filtering reduces MAE, < 30 s"):
        started = time.perf_counter()
        rng = np.random.default_rng(23)
        train_set = _agreement_dataset(rng, 400)
        held_out = _agreement_dataset(rng, 200)
        models = {}
        for method in ("OR", "RL"):
            cfg = TrainConfig(method=method, learning_rate=0.05, epochs=60,
                              batch_size=16, seed=1)
            res = train(train_set, cfg, k=K)
            scores = [score(res.model, s.features) for s in held_out]
            r = pearson_r(scores, [s.agreement for s in held_out])
            assert r >= 0.9, f"{method} reached r={r:.3f}"
            models[method] = res.model

        # counting with the >= 4-rater ground truth: rescore-filtering must help
        model = models["OR"]
        by_level = {a: [] for a in range(K + 1)}
        for s in train_set:
            by_level[s.agreement].append(score(model, s.features))
        cut = (np.mean(by_level[3]) + np.mean(by_level[4])) / 2.0
        unfiltered, filtered = [], []
        for img in range(20):
            objects = _agreement_dataset(rng, int(rng.integers(20, 45)))
            gt = sum(1 for o in objects if o.agreement >= 4)
            raw_count = len(objects)
            kept = sum(1 for o in objects if score(model, o.features) >= cut)
            unfiltered.append(CountPair(gt=float(gt), pred=float(raw_count)))
            filtered.append(CountPair(gt=float(gt), pred=float(kept)))
        assert mae(filtered) < mae(unfiltered)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_8_alpha_calibration():
    with criterion(8, "alpha exact on clean data; unbiased within 3 SE over 1000 noisy runs"):
        rng = np.random.default_rng(31)
        alpha = 950.0
        h_s = rng.uniform(40, 180, 50)
        z = rng.uniform(2, 40, 50)
        clean = list(zip(h_s, z, h_s + alpha / z))
        assert abs(fit_alpha(clean).alpha - alpha) <= 1e-6

        sigma = 1.0
        se_single = sigma / math.sqrt(float(np.sum(1.0 / z**2)))
        fits = []
        within = 0
        for _ in range(1000):
            noisy = list(zip(h_s, z, h_s + alpha / z + rng.normal(0, sigma, 50)))
            a_hat = fit_alpha(noisy).alpha
            fits.append(a_hat)
            if abs(a_hat - alpha) <= 3 * se_single:
                within += 1
        # the estimator is unbiased at Monte Carlo precision and its spread
        # matches the analytic standard error
        assert abs(float(np.mean(fits)) - alpha) <= 3 * se_single / math.sqrt(1000)
        assert within >= 990


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command is byte-identical across repeated seeded runs"):
        rng = np.random.default_rng(3)
        from meshcount import io as mio
        from meshcount.matching import Feature

        shared = tmp_path / "inputs"
        shared.mkdir()
        # feature pair related by a translation
        world = np.column_stack([rng.uniform(0, 400, 60), rng.uniform(0, 200, 60)])
        desc = rng.normal(0, 1, (60, 8))
        fa = [Feature(Point2(float(x), float(y)), desc[i] + rng.normal(0, 0.02, 8))
              for i, (x, y) in enumerate(world)]
        fb = [Feature(Point2(float(x + 120), float(y)), desc[i] + rng.normal(0, 0.02, 8))
              for i, (x, y) in enumerate(world)]
        mio.write_features_csv(shared / "a.csv", fa)
        mio.write_features_csv(shared / "b.csv", fb)
        mio.write_dots_csv(shared / "dots.csv", [Point2(8.0, 8.0), Point2(24.0, 20.0)])
        mio.write_detections_csv(
            shared / "pred.csv",
            [("img0", 0, 0.9, None, Point2(5.0, 5.0)), ("img0", 0, 0.4, None, Point2(9.0, 9.0))],
        )
        mio.write_detections_csv(
            shared / "gt.csv",
            [("img0", 0, None, 6, Point2(5.0, 5.0)), ("img0", 0, None, 2, Point2(20.0, 20.0))],
        )
        samples = [
            AgreementSample(np.array([a / K + rng.normal(0, 0.05), rng.normal()]), a)
            for a in list(range(K + 1)) * 12
        ]
        mio.write_samples_csv(shared / "samples.csv", samples)
        (shared / "boxes.csv").write_text(
            "h_s,w_s,z,h_m\n100.0,40.0,10.0,190.0\n80.0,30.0,20.0,125.0\n60.0,25.0,45.0,80.0\n"
        )
        mio.write_positions_csv(
            shared / "pos.csv", [Point2(0.0, 0.0), Point2(0.5, 0.0), Point2(9.0, 9.0)]
        )
        mio.write_homography_json(shared / "calib.json", Homography(np.eye(3)))

        def run_all(outdir):
            outdir.mkdir()
            o = lambda name: str(outdir / name)
            cmds = [
                ["calibrate", "--features-a", str(shared / "a.csv"),
                 "--features-b", str(shared / "b.csv"), "--seed", "4", "--out", o("h.json")],
                ["gen-scene", "--cameras", "2", "--vehicles", "10", "--overlap", "0.5",
                 "--drop", "0.05", "--jitter", "2.0", "--spurious", "0.05",
                 "--frames", "2", "--seed", "4", "--out", o("scene.json")],
                ["simulate", "--scenario", o("scene.json"), "--seed", "4",
                 "--out", o("report.csv")],
                ["density", "--dots", str(shared / "dots.csv"), "--width", "32",
                 "--height", "32", "--sigma", "1.5", "--seed", "4",
                 "--out", o("map.dmf"), "--csv-out", o("map.csv")],
                ["eval-count", "--pred", str(shared / "pred.csv"), "--gt", str(shared / "gt.csv"),
                 "--game", "1", "--width", "32", "--height", "32", "--seed", "4",
                 "--out", o("count.csv")],
                ["eval-detect", "--pred", str(shared / "pred.csv"), "--gt", str(shared / "gt.csv"),
                 "--mode", "point", "--radius", "2.0", "--seed", "4", "--out", o("det.csv")],
                ["rescore-train", "--samples", str(shared / "samples.csv"), "--method", "OR",
                 "--epochs", "10", "--seed", "4", "--out", o("model.json"),
                 "--trace", o("trace.csv")],
                ["rescore-eval", "--samples", str(shared / "samples.csv"),
                 "--model", o("model.json"), "--threshold", "0.5", "--seed", "4",
                 "--out", o("releval.csv")],
                ["sanitize-bboxes", "--in", str(shared / "boxes.csv"), "--seed", "4",
                 "--out", o("sanitized.csv")],
                ["distance-check", "--positions", str(shared / "pos.csv"),
                 "--homography", str(shared / "calib.json"), "--threshold", "1.0",
                 "--seed", "4", "--out", o("violations.csv")],
            ]
            for cmd in cmds:
                assert main(cmd) == 0, f"command failed: {cmd[0]}"

        run1 = tmp_path / "run1"
        run2 = tmp_path / "run2"
        run_all(run1)
        run_all(run2)
        names1 = sorted(p.name for p in run1.iterdir())
        names2 = sorted(p.name for p in run2.iterdir())
        assert names1 == names2 and len(names1) >= 14
        for name in names1:
            assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        twins = [name for name in names1 if name.endswith(".json")]
        assert len(twins) >= 8
        for name in twins:
            json.loads((run1 / name).read_text(), parse_constant=refuse)
