import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshcount import geometry
from meshcount.errors import (
    DegenerateConfiguration,
    MeshCountError,
    NoConsensus,
    PointAtInfinity,
    TooFewPoints,
)
from meshcount.geometry import (
    Correspondence,
    Homography,
    Point2,
    Polygon,
    RansacParams,
    distance_violations,
    estimate_homography_dlt,
    ground_distance,
    iou,
    points_in_polygon,
    project_point,
    project_polygon,
    ransac_homography,
    symmetric_transfer_error,
)


def random_projective(rng):
    """Synthetic generator matrix: mild perturbation of the identity."""
    m = np.eye(3)
    m[:2, :2] += rng.uniform(-0.2, 0.2, (2, 2))
    m[:2, 2] = rng.uniform(-20, 20, 2)
    m[2, :2] = rng.uniform(-1e-3, 1e-3, 2)
    return m


def apply_oracle(m, pts):
    """Independent per-point 3-vector multiply-divide."""
    out = []
    for x, y in pts:
        u = m[0, 0] * x + m[0, 1] * y + m[0, 2]
        v = m[1, 0] * x + m[1, 1] * y + m[1, 2]
        w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
        out.append((u / w, v / w))
    return np.array(out)


def make_corrs(src, dst):
    return [Correspondence(Point2(*s), Point2(*d)) for s, d in zip(src, dst)]


# -- reference oracle: one sample per iteration ----------------------------------
#
# The DLT, transfer error and RANSAC loop as they were before the package
# fitted and scored blocks of samples: one 4-point sample drawn, fitted and
# scored per iteration. The package must match them bit for bit.


def ref_corr_arrays(corrs):
    src = np.array([[c.src.x, c.src.y] for c in corrs], dtype=float)
    dst = np.array([[c.dst.x, c.dst.y] for c in corrs], dtype=float)
    return src, dst


def ref_normalization_transform(pts):
    centroid = pts.mean(axis=0)
    d = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    if d <= 1e-12:
        raise DegenerateConfiguration("all points coincide")
    s = math.sqrt(2.0) / d
    return np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])


def ref_collinear(a, b, c):
    area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))
    pts = np.array([a, b, c])
    span = pts.max(axis=0) - pts.min(axis=0)
    box = max(span[0] * span[1], span[0] ** 2, span[1] ** 2, 1e-12)
    return area2 < 2e-9 * box


def ref_estimate_homography_dlt(corrs):
    corrs = list(corrs)
    n = len(corrs)
    if n < 4:
        raise TooFewPoints(f"need at least 4 correspondences, got {n}")
    src, dst = ref_corr_arrays(corrs)
    if n == 4:
        for tri in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            if ref_collinear(*src[list(tri)]):
                raise DegenerateConfiguration("three of four source points are collinear")
    t_src = ref_normalization_transform(src)
    t_dst = ref_normalization_transform(dst)
    sh = src @ t_src[:2, :2].T + t_src[:2, 2]
    dh = dst @ t_dst[:2, :2].T + t_dst[:2, 2]
    a = np.zeros((2 * n, 9))
    a[0::2, 0:2] = -sh
    a[0::2, 2] = -1.0
    a[0::2, 6:8] = sh * dh[:, 0:1]
    a[0::2, 8] = dh[:, 0]
    a[1::2, 3:5] = -sh
    a[1::2, 5] = -1.0
    a[1::2, 6:8] = sh * dh[:, 1:2]
    a[1::2, 8] = dh[:, 1]
    _, s, vt = np.linalg.svd(a)
    if s[7] <= 1e-9 * s[0]:
        raise DegenerateConfiguration("design matrix is rank-deficient")
    return Homography(np.linalg.inv(t_dst) @ vt[-1].reshape(3, 3) @ t_src)


def ref_symmetric_transfer_error(h, corrs):
    src, dst = ref_corr_arrays(corrs)
    m = h.matrix
    err = np.full(src.shape[0], np.inf)

    def one_way(mat, a, b):
        hom = np.hstack([a, np.ones((a.shape[0], 1))]) @ mat.T
        w = hom[:, 2]
        ok = np.abs(w) > 1e-12
        d = np.full(a.shape[0], np.inf)
        d[ok] = np.sqrt(((hom[ok, :2] / w[ok, None] - b[ok]) ** 2).sum(axis=1))
        return d

    fwd = one_way(m, src, dst)
    bwd = one_way(np.linalg.inv(m), dst, src)
    both = np.isfinite(fwd) & np.isfinite(bwd)
    err[both] = 0.5 * (fwd[both] + bwd[both])
    return err


def ref_ransac_homography(corrs, params):
    corrs = list(corrs)
    n = len(corrs)
    if n < 4:
        raise TooFewPoints(f"need at least 4 correspondences, got {n}")
    rng = np.random.default_rng(params.seed)
    best_mask, best_count, best_err = None, 0, np.inf
    needed = params.max_iterations
    it = 0
    while it < min(params.max_iterations, needed):
        it += 1
        sample = rng.choice(n, size=4, replace=False)
        try:
            h = ref_estimate_homography_dlt([corrs[k] for k in sample])
        except DegenerateConfiguration:
            continue
        err = ref_symmetric_transfer_error(h, corrs)
        mask = err < params.inlier_threshold
        count = int(mask.sum())
        total = float(err[mask].sum()) if count else np.inf
        if count > best_count or (count == best_count and total < best_err):
            best_count, best_err, best_mask = count, total, mask
            w = count / n
            if w >= 1.0:
                needed = it
            elif w > 0.0:
                denom = math.log1p(-(w**4)) if w**4 < 1.0 else -np.inf
                if denom < 0.0:
                    needed = min(needed, it + math.ceil(math.log(1.0 - params.confidence) / denom))
    if best_mask is None or best_count < 4:
        raise NoConsensus(f"best consensus has {best_count} inliers")
    h = ref_estimate_homography_dlt([c for c, m in zip(corrs, best_mask) if m])
    return h, [bool(b) for b in best_mask]


def outcome(fn, *args):
    """(matrix bytes, mask) of a fit, or the type and message of its exception."""
    try:
        result = fn(*args)
    except (MeshCountError, ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    if isinstance(result, Homography):
        return result.matrix.tobytes()
    return result[0].matrix.tobytes(), result[1]


@st.composite
def correspondence_sets(draw):
    """A projective map's exact pairs with outliers, noise, duplicates or
    collinear runs, at a scale from 1e-2 to 1e4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 60))
    scale = 10.0 ** draw(st.floats(-2.0, 4.0))
    kind = draw(st.sampled_from(["plain", "grid", "duplicates", "collinear"]))
    if kind == "grid":  # few distinct values: many collinear and repeated samples
        src = rng.integers(0, 4, (n, 2)).astype(float) * scale
    elif kind == "collinear":
        t = rng.uniform(0, 1, n)
        src = np.column_stack([t, 2.0 * t + 1.0]) * scale
    else:
        src = rng.uniform(0, 1, (n, 2)) * scale
    if kind == "duplicates":
        src[rng.integers(0, n, n // 2)] = src[0]
    dst = apply_oracle(random_projective(rng), src)
    outliers = rng.uniform(0, 1, n) < draw(st.floats(0.0, 0.9))
    dst[outliers] = rng.uniform(0, 2, (int(outliers.sum()), 2)) * scale
    dst += rng.normal(0, draw(st.floats(0.0, 0.01)) * scale, dst.shape)
    return make_corrs(src, dst), scale


class TestMatchesReferenceLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        correspondence_sets(),
        st.integers(1, 200),
        st.floats(-2.0, 1.0),
        st.sampled_from([0.5, 0.9, 0.995]),
        st.integers(0, 2**16),
    )
    def test_ransac_property(self, corrs_scale, max_iterations, log_threshold, confidence, seed):
        corrs, scale = corrs_scale
        params = RansacParams(max_iterations, 10.0**log_threshold * max(scale / 100, 0.01),
                              confidence, seed)
        got = outcome(ransac_homography, corrs, params)
        assert got == outcome(ref_ransac_homography, corrs, params)
        if not isinstance(got[0], type):
            h = Homography(np.frombuffer(got[0]).reshape(3, 3))
            assert (symmetric_transfer_error(h, corrs).tobytes()
                    == ref_symmetric_transfer_error(h, corrs).tobytes())

    @settings(max_examples=150, deadline=None)
    @given(correspondence_sets(), st.integers(4, 12))
    def test_dlt_property(self, corrs_scale, n):
        corrs = corrs_scale[0][:n]
        assert outcome(estimate_homography_dlt, corrs) == outcome(ref_estimate_homography_dlt, corrs)

    @pytest.mark.parametrize("n", [4, 5])
    def test_minimal_samples_keep_the_null_vector(self, n):
        # 4 points give an 8 x 9 design matrix whose solution only the full
        # V holds; 5 points (10 x 9) are the smallest thin decomposition
        rng = np.random.default_rng(n)
        for _ in range(50):
            m = random_projective(rng)
            src = rng.uniform(0, 100, (n, 2))
            corrs = make_corrs(src, apply_oracle(m, src))
            h = estimate_homography_dlt(corrs)
            assert np.max(np.abs(h.matrix - Homography(m).matrix)) <= 1e-9
            assert h.matrix.tobytes() == ref_estimate_homography_dlt(corrs).matrix.tobytes()

    def test_fits_past_the_stopping_point_are_discarded(self):
        # noisy inliers and a low confidence stop the search inside a block;
        # the block's later samples can score better but must not count
        # (counting them changes the result of 3 of these 60 cases)
        rng = np.random.default_rng(58)
        for seed in range(60):
            n = int(rng.integers(8, 40))
            src = rng.uniform(0, 100, (n, 2))
            dst = apply_oracle(random_projective(rng), src) + rng.normal(0, 1.0, (n, 2))
            outliers = rng.uniform(0, 1, n) < 0.3
            dst[outliers] = rng.uniform(0, 200, (int(outliers.sum()), 2))
            corrs = make_corrs(src, dst)
            params = RansacParams(200, 3.0, 0.5, seed)
            assert outcome(ransac_homography, corrs, params) == outcome(
                ref_ransac_homography, corrs, params
            )

    def test_overflowing_coordinates_raise_as_the_reference(self):
        # the centroid overflows, so the design matrix holds NaN and the SVD
        # fails; a fitted sample raises that, however the block is batched
        big = 1.7e308
        src = [(-big, 2.0), (big, 1.0), (3.0, big), (2.0, -big), (big, 3.0)]
        dst = [(6.0, 8.0), (6.0, 3.0), (8.0, 5.0), (5.0, 7.0), (1.0, 8.0)]
        corrs = make_corrs(src, dst)
        params = RansacParams(max_iterations=3)
        with np.errstate(all="ignore"):
            got = outcome(ransac_homography, corrs, params)
            assert got[0] is np.linalg.LinAlgError
            assert got == outcome(ref_ransac_homography, corrs, params)
            for n in (4, 5):
                fit = outcome(estimate_homography_dlt, corrs[:n])
                assert fit == outcome(ref_estimate_homography_dlt, corrs[:n])

    def test_first_sample_consensus_fits_one_hypothesis(self, monkeypatch):
        fits = []
        dlt = geometry._dlt

        def counting(src, dst):
            fits.append(src.shape[0])
            return dlt(src, dst)

        monkeypatch.setattr(geometry, "_dlt", counting)
        rng = np.random.default_rng(11)
        src = rng.uniform(0, 200, (50, 2))
        ransac_homography(make_corrs(src, apply_oracle(random_projective(rng), src)))
        assert fits == [1, 1]  # one sample, then the refit on the consensus

    def test_blocks_double_up_to_the_budget(self, monkeypatch):
        fits = []
        dlt = geometry._dlt

        def counting(src, dst):
            fits.append(src.shape[0])
            return dlt(src, dst)

        monkeypatch.setattr(geometry, "_dlt", counting)
        src = [(float(i), float(i)) for i in range(8)]  # every sample is degenerate
        with pytest.raises(NoConsensus):
            ransac_homography(make_corrs(src, src), RansacParams(max_iterations=50))
        assert fits == [1, 1, 2, 4, 8, 16, 18]


class TestDlt:
    def test_identity_square(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        h = estimate_homography_dlt(make_corrs(pts, pts))
        assert np.allclose(h.matrix, np.eye(3), atol=1e-9)

    def test_pure_translation(self):
        src = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        dst = [(x + 5.0, y - 2.0) for x, y in src]
        h = estimate_homography_dlt(make_corrs(src, dst))
        expected = Homography([[1, 0, 5], [0, 1, -2], [0, 0, 1]]).matrix
        assert np.max(np.abs(h.matrix - expected)) < 1e-9

    def test_noisy_reprojection_rmse(self):
        rng = np.random.default_rng(7)
        m = random_projective(rng)
        src = rng.uniform(0, 100, (20, 2))
        dst = apply_oracle(m, src) + rng.normal(0, 0.1, (20, 2))
        h = estimate_homography_dlt(make_corrs(src, dst))
        err = symmetric_transfer_error(h, make_corrs(src, dst))
        assert math.sqrt(np.mean(err**2)) <= 0.3

    def test_too_few_points(self):
        src = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        with pytest.raises(TooFewPoints):
            estimate_homography_dlt(make_corrs(src, src))

    def test_collinear_source_degenerate(self):
        src = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 1.0)]
        dst = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 1.0)]
        with pytest.raises(DegenerateConfiguration):
            estimate_homography_dlt(make_corrs(src, dst))

    def test_exact_recovery_property(self):
        # generator reproduced up to canonical scale on exact data
        rng = np.random.default_rng(123)
        for _ in range(100):
            m = random_projective(rng)
            src = rng.uniform(0, 100, (12, 2))
            dst = apply_oracle(m, src)
            h = estimate_homography_dlt(make_corrs(src, dst))
            canonical = Homography(m).matrix
            assert np.max(np.abs(h.matrix - canonical)) <= 1e-9


class TestRansac:
    def test_all_exact_inliers(self):
        rng = np.random.default_rng(11)
        m = random_projective(rng)
        src = rng.uniform(0, 200, (50, 2))
        corrs = make_corrs(src, apply_oracle(m, src))
        h, mask = ransac_homography(corrs, RansacParams(seed=1))
        assert all(mask)
        assert np.max(np.abs(h.matrix - Homography(m).matrix)) < 1e-6

    def test_outlier_rejection(self):
        rng = np.random.default_rng(5)
        m = random_projective(rng)
        src_in = rng.uniform(0, 200, (35, 2))
        dst_in = apply_oracle(m, src_in)
        src_out = rng.uniform(0, 200, (15, 2))
        dst_out = rng.uniform(0, 200, (15, 2)) + 300.0  # far from any true image
        corrs = make_corrs(
            np.vstack([src_in, src_out]), np.vstack([dst_in, dst_out])
        )
        h, mask = ransac_homography(corrs, RansacParams(inlier_threshold=3.0, seed=3))
        true_in = sum(mask[:35])
        false_in = sum(mask[35:])
        assert true_in >= 33
        assert false_in == 0

    def test_too_few(self):
        src = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        with pytest.raises(TooFewPoints):
            ransac_homography(make_corrs(src, src), RansacParams())

    def test_no_consensus(self):
        # every minimal sample of collinear sources is degenerate
        src = [(float(i), float(i)) for i in range(8)]
        dst = [(float(i), float(2 * i)) for i in range(8)]
        with pytest.raises(NoConsensus):
            ransac_homography(
                make_corrs(src, dst),
                RansacParams(max_iterations=50, seed=0),
            )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(17)
        m = random_projective(rng)
        src = rng.uniform(0, 100, (30, 2))
        dst = apply_oracle(m, src)
        dst[:6] += rng.uniform(10, 20, (6, 2))
        corrs = make_corrs(src, dst)
        h1, m1 = ransac_homography(corrs, RansacParams(seed=42))
        h2, m2 = ransac_homography(corrs, RansacParams(seed=42))
        assert m1 == m2
        assert np.array_equal(h1.matrix, h2.matrix)


def straddle_case(seed):
    """A projective H whose vanishing line often crosses a rotated rectangle on
    a 120 x 100 plane, the rectangle, and seeded points well inside it."""
    rng = np.random.default_rng(seed)
    m = np.eye(3)
    m[:2, :2] += rng.uniform(-0.3, 0.3, (2, 2))
    m[:2, 2] = rng.uniform(-40.0, 40.0, 2)
    m[2, :2] = rng.uniform(-0.03, 0.03, 2)
    w, h = rng.uniform(4.0, 60.0, 2)
    rect = _rotated([(0, 0), (w, 0), (w, h), (0, h)], rng.uniform(0.0, math.pi),
                    rng.uniform((0.0, 0.0), (120.0, 100.0)))
    uv = rng.uniform(0.02, 0.98, (16, 2))
    inner = rect[0] + uv[:, :1] * (rect[1] - rect[0]) + uv[:, 1:] * (rect[3] - rect[0])
    return Homography(m), Polygon(rect), inner


class TestProjection:
    def test_identity(self):
        p = project_point(Homography.identity(), Point2(3, 4))
        assert (p.x, p.y) == (3, 4)

    def test_pure_scale(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        p = project_point(h, Point2(3, 4))
        assert (p.x, p.y) == (6, 8)

    def test_grid_matches_oracle(self):
        rng = np.random.default_rng(3)
        m = random_projective(rng)
        h = Homography(m)
        xs, ys = np.meshgrid(np.linspace(0, 50, 6), np.linspace(0, 50, 6))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        expected = apply_oracle(h.matrix, pts)
        for (x, y), (ex, ey) in zip(pts, expected):
            q = project_point(h, Point2(x, y))
            assert abs(q.x - ex) <= 1e-12
            assert abs(q.y - ey) <= 1e-12

    def test_point_at_infinity(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])  # w vanishes at x=1
        with pytest.raises(PointAtInfinity):
            project_point(h, Point2(1.0, 5.0))

    def test_round_trip_property(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = Homography(random_projective(rng))
            p = Point2(*rng.uniform(0, 100, 2))
            q = project_point(h.inverse(), project_point(h, p))
            assert abs(q.x - p.x) < 1e-9
            assert abs(q.y - p.y) < 1e-9

    def test_project_polygon_identity_and_translation(self):
        poly = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        same = project_polygon(Homography.identity(), poly)
        assert np.allclose(same.vertices, poly.vertices)
        t = Homography([[1, 0, 3], [0, 1, 4], [0, 0, 1]])
        moved = project_polygon(t, poly)
        assert np.allclose(moved.vertices, poly.vertices + [3, 4])

    def test_project_polygon_matches_vertex_oracle(self):
        rng = np.random.default_rng(21)
        m = random_projective(rng)
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        warped = project_polygon(Homography(m), poly)
        expected = apply_oracle(Homography(m).matrix, poly.vertices)
        # constructor may flip orientation, compare as vertex sets in cyclic order
        assert warped.vertices.shape == (4, 2)
        for v in expected:
            assert np.min(np.abs(warped.vertices - v).sum(axis=1)) < 1e-9

    def test_projection_flip_restores_ccw(self):
        flip = Homography(np.diag([-1.0, 1.0, 1.0]))
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        out = project_polygon(flip, poly)
        assert out.area > 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_accepts_exactly_the_masks_on_one_side_of_the_vanishing_line(self, seed):
        h, poly, inner = straddle_case(seed)
        m = h.matrix
        w = [m[2, 0] * x + m[2, 1] * y + m[2, 2] for x, y in poly.vertices.tolist()]
        if all(v > 0.0 for v in w) or all(v < 0.0 for v in w):
            image = project_polygon(h, poly)
            assert image.contains(apply_oracle(m, inner)).all()
        else:
            with pytest.raises(PointAtInfinity):
                project_polygon(h, poly)

    def test_straddle_cases_cross_the_line_often(self):
        crossing = 0
        for seed in range(200):
            h, poly, _ = straddle_case(seed)
            w = np.column_stack([poly.vertices, np.ones(4)]) @ h.matrix[2]
            crossing += bool((w > 0.0).any() and (w < 0.0).any())
        assert 20 <= crossing <= 180


def box_formula_iou(a, b):
    """Analytic IoU of two axis-aligned boxes from their extreme vertices."""
    (ax0, ay0), (ax1, ay1) = a.vertices.min(axis=0), a.vertices.max(axis=0)
    (bx0, by0), (bx1, by1) = b.vertices.min(axis=0), b.vertices.max(axis=0)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    inter = max(0.0, iw) * max(0.0, ih)
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


def raster_iou_bounds(a, b, n=400):
    """(low, high) bounds on the IoU from an n x n sample grid.

    The grid covers the overlap of the bounding boxes, which holds the whole
    intersection. A cell that no polygon edge meets lies wholly inside or
    outside both polygons, so its centre sample counts it exactly; an edge
    meets at most |dx| / sx + |dy| / sy + 3 cells of sx by sy. The unions
    follow from the shoelace areas, and IoU grows with the intersection.
    """
    lo = np.maximum(a.vertices.min(axis=0), b.vertices.min(axis=0))
    hi = np.minimum(a.vertices.max(axis=0), b.vertices.max(axis=0))
    if np.any(hi <= lo):
        return 0.0, 0.0
    sx, sy = (hi - lo) / n
    gx, gy = np.meshgrid(lo[0] + (np.arange(n) + 0.5) * sx, lo[1] + (np.arange(n) + 0.5) * sy)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    hits = np.count_nonzero(points_in_polygon(pts, a.vertices) & points_in_polygon(pts, b.vertices))
    cells = 0.0
    for v in (a.vertices, b.vertices):
        d = np.abs(np.roll(v, -1, axis=0) - v)
        cells += float((d[:, 0] / sx + d[:, 1] / sy + 3.0).sum())
    area_a, area_b = a.area, b.area
    inter_lo = max(0.0, (hits - cells) * sx * sy)
    inter_hi = min(area_a, area_b, (hits + cells) * sx * sy)
    return (
        inter_lo / (area_a + area_b - inter_lo),
        inter_hi / (area_a + area_b - inter_hi),
    )


def _rotated(pts, angle, offset):
    c, s = math.cos(angle), math.sin(angle)
    return np.asarray(pts, dtype=float) @ np.array([[c, s], [-s, c]]) + offset


# shapes are centred near the origin, so most pairs overlap
coords = st.floats(-8.0, 8.0)
sizes = st.floats(1.0, 30.0)
angles = st.floats(0.0, 2.0 * math.pi)


@st.composite
def boxes(draw):
    x, y, w, h = draw(coords), draw(coords), draw(sizes), draw(sizes)
    return Polygon.box(x - w / 2, y - h / 2, x + w / 2, y + h / 2)


@st.composite
def convex_polygons(draw):
    """3-8 vertices on a rotated ellipse, in angular order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.sort(rng.uniform(0.0, 2.0 * math.pi, draw(st.integers(3, 8))))
    ellipse = np.column_stack([draw(sizes) * np.cos(t), draw(sizes) * np.sin(t)])
    return Polygon(_rotated(ellipse, draw(angles), (draw(coords), draw(coords))))


@st.composite
def nonconvex_polygons(draw):
    """Rotated L and U shapes, starting at any vertex in either orientation,
    so the fan of triangles from the first vertex can have negative members."""
    w, h = draw(sizes) + 2.0, draw(sizes) + 2.0
    t = draw(st.floats(0.2, 0.45)) * min(w, h)
    if draw(st.booleans()):
        shape = [(0, 0), (w, 0), (w, t), (t, t), (t, h), (0, h)]
    else:
        shape = [(0, 0), (w, 0), (w, h), (w - t, h), (w - t, t), (t, t), (t, h), (0, h)]
    v = _rotated(np.array(shape) - (w / 2, h / 2), draw(angles), (draw(coords), draw(coords)))
    v = np.roll(v, draw(st.integers(0, 7)), axis=0)
    return Polygon(v[::-1] if draw(st.booleans()) else v)


@st.composite
def projected_quads(draw):
    """A box through a random homography: a convex quad with no axis-aligned edge."""
    h = Homography(random_projective(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))))
    return project_polygon(h, draw(boxes()))


any_polygons = st.one_of(boxes(), convex_polygons(), nonconvex_polygons(), projected_quads())
FAMILIES = {
    "convex": convex_polygons(),
    "nonconvex": nonconvex_polygons(),
    "projected": projected_quads(),
}


class TestIou:
    def test_identical_unit_squares(self):
        a = Polygon.box(0, 0, 1, 1)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        a = Polygon.box(0, 0, 1, 1)
        b = Polygon.box(5, 5, 6, 6)
        assert iou(a, b) == 0.0

    def test_touching_edges_have_zero_overlap(self):
        assert iou(Polygon.box(0, 0, 1, 1), Polygon.box(1, 0, 2, 1)) == 0.0

    def test_half_offset_exact_third(self):
        a = Polygon.box(0, 0, 1, 1)
        b = Polygon.box(0.5, 0, 1.5, 1)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_l_shape_against_box_by_hand(self):
        # L of area 5 and a 2 x 2 box: they share 1 x 0.5 + 0.5 x 1.5 = 1.75
        ell = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)]
        box = Polygon.box(0.5, 0.5, 2.5, 2.5)
        for start in range(6):
            a = Polygon(np.roll(np.array(ell, dtype=float), start, axis=0))
            assert iou(a, box) == pytest.approx(1.75 / 7.25, abs=1e-15)
            assert iou(box, a) == iou(a, box)

    def test_rotated_triangles_against_finer_grid(self):
        a = Polygon([(0, 0), (4, 1), (1, 4)])
        b = Polygon([(1, 0), (4, 3), (0, 3)])
        low, high = raster_iou_bounds(a, b, n=1000)
        assert high - low < 0.05
        assert low <= iou(a, b) <= high

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            c1 = rng.uniform(0, 10, 2)
            c2 = rng.uniform(0, 10, 2)
            a = Polygon.box(c1[0], c1[1], c1[0] + rng.uniform(1, 5), c1[1] + rng.uniform(1, 5))
            b = Polygon.box(c2[0], c2[1], c2[0] + rng.uniform(1, 5), c2[1] + rng.uniform(1, 5))
            v1, v2 = iou(a, b), iou(b, a)
            assert v1 == v2
            assert 0.0 <= v1 <= 1.0

    def test_matches_box_formula_on_rectangles(self):
        # desk-scale mask sizes, as the masks of the counting protocol
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = Polygon.box(0, 0, rng.uniform(15, 40), rng.uniform(10, 25))
            off = rng.uniform(0, 10, 2)
            b = Polygon.box(off[0], off[1], off[0] + rng.uniform(15, 40), off[1] + rng.uniform(10, 25))
            assert abs(iou(a, b) - box_formula_iou(a, b)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(any_polygons, any_polygons)
    def test_exact_symmetry_and_unit_range_property(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(boxes(), st.integers(1, 3))
    def test_box_with_itself_is_one_property(self, a, start):
        assert iou(a, a) == 1.0
        same = Polygon(np.roll(a.vertices, start, axis=0))
        assert abs(iou(a, same) - 1.0) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(boxes(), boxes())
    def test_box_formula_property(self, a, b):
        assert abs(iou(a, b) - box_formula_iou(a, b)) <= 1e-12

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fine_raster_property(self, family, data):
        a = data.draw(FAMILIES[family])
        b = data.draw(any_polygons)
        low, high = raster_iou_bounds(a, b)
        v = iou(a, b)
        assert low - 1e-12 <= v <= high + 1e-12


class TestGroundPlane:
    def test_identity_calibration(self):
        h = Homography.identity()
        assert ground_distance(h, Point2(0, 0), Point2(3, 4)) == pytest.approx(5.0)

    def test_px_to_meter_scale(self):
        h = Homography(np.diag([0.01, 0.01, 1.0]))
        assert ground_distance(h, Point2(0, 0), Point2(100, 0)) == pytest.approx(1.0)

    def test_warped_matches_per_point_oracle(self):
        rng = np.random.default_rng(40)
        m = random_projective(rng)
        h = Homography(m)
        a, b = Point2(10, 20), Point2(30, 5)
        (ax, ay), (bx, by) = apply_oracle(h.matrix, [(10, 20), (30, 5)])
        assert ground_distance(h, a, b) == pytest.approx(math.hypot(ax - bx, ay - by), abs=1e-12)


class TestDistanceViolations:
    def test_all_far_apart(self):
        pts = [Point2(0, 0), Point2(3, 0), Point2(0, 3)]
        assert distance_violations(pts, 1.0) == []

    def test_chain_groups_transitively(self):
        pts = [Point2(0, 0), Point2(0.8, 0), Point2(1.6, 0)]
        # brute-force check of the intended edges: (0,1) and (1,2) only
        d01 = math.dist((0, 0), (0.8, 0))
        d12 = math.dist((0.8, 0), (1.6, 0))
        d02 = math.dist((0, 0), (1.6, 0))
        assert d01 < 1.0 and d12 < 1.0 and d02 >= 1.0
        assert distance_violations(pts, 1.0) == [[0, 1, 2]]

    def test_exact_threshold_is_compliant(self):
        pts = [Point2(0, 0), Point2(1.0, 0)]
        assert distance_violations(pts, 1.0) == []

    def test_permutation_invariance_property(self):
        rng = np.random.default_rng(50)
        pts = [Point2(*p) for p in rng.uniform(0, 5, (12, 2))]
        base = distance_violations(pts, 1.2)
        perm = rng.permutation(12)
        shuffled = [pts[i] for i in perm]
        relabeled = distance_violations(shuffled, 1.2)
        # map shuffled indices back and compare as sets of frozensets
        back = {frozenset(int(perm[i]) for i in g) for g in relabeled}
        assert {frozenset(g) for g in base} == back
        # output is a partition of a subset of the indices
        flat = [i for g in base for i in g]
        assert len(flat) == len(set(flat))

    coordinate = st.one_of(st.floats(0.0, 5.0), st.sampled_from((1e200, -1e200)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(coordinate, coordinate), max_size=14), st.floats(0.1, 3.0))
    def test_union_find_groups_as_the_search_does(self, coords, threshold):
        pts = [Point2(x, y) for x, y in coords]
        assert distance_violations(pts, threshold) == ref_distance_violations(pts, threshold)


def ref_distance_violations(positions, threshold):
    """distance_violations as a depth-first search over the violation graph."""
    pts = np.array([[p.x, p.y] for p in positions], dtype=float)
    n = pts.shape[0]
    if n == 0:
        return []
    with np.errstate(over="ignore"):  # an overflowing distance is +inf: never violates
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    adj = dist < threshold
    np.fill_diagonal(adj, False)

    seen = np.zeros(n, dtype=bool)
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            k = stack.pop()
            comp.append(k)
            for m in np.nonzero(adj[k])[0]:
                if not seen[m]:
                    seen[m] = True
                    stack.append(int(m))
        if len(comp) >= 2:
            groups.append(sorted(comp))
    groups.sort(key=lambda g: g[0])
    return groups


# -- reference oracle: the polygon kernel with np.roll and the pairwise segment test --


def ref_signed_area2(v):
    x, y = v[:, 0], v[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def ref_centroid(v):
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a2 = cross.sum()
    if a2 == 0.0:
        raise ValueError("polygon has zero area")
    return Point2(float(((x + xn) * cross).sum() / (3.0 * a2)),
                  float(((y + yn) * cross).sum() / (3.0 * a2)))


def _ref_cross2(a, b):
    return float(a[0] * b[1] - a[1] * b[0])


def _ref_segments_properly_intersect(p1, p2, q1, q2):
    d1 = _ref_cross2(q2 - q1, p1 - q1)
    d2 = _ref_cross2(q2 - q1, p2 - q1)
    d3 = _ref_cross2(p2 - p1, q1 - p1)
    d4 = _ref_cross2(p2 - p1, q2 - p1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return (min(p1[0], p2[0]) <= max(q1[0], q2[0]) and min(q1[0], q2[0]) <= max(p1[0], p2[0])
                and min(p1[1], p2[1]) <= max(q1[1], q2[1]) and min(q1[1], q2[1]) <= max(p1[1], p2[1]))
    return False


def ref_is_simple(v):
    n = v.shape[0]
    for i in range(n):
        a1, a2 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = v[j], v[(j + 1) % n]
            if _ref_segments_properly_intersect(a1, a2, b1, b2):
                return False
    return True


def ref_polygon(vertices):
    """(vertex bytes, bounds, area, centroid) as the constructor built them
    before the roll-free rewrite; raises the same ValueError."""
    v = np.array([[p.x, p.y] if isinstance(p, Point2) else p for p in vertices], dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError("polygon needs at least 3 (x, y) vertices")
    if not np.all(np.isfinite(v)):
        raise ValueError("polygon vertices must be finite")
    area2 = ref_signed_area2(v)
    if area2 == 0.0:
        raise ValueError("polygon has zero area")
    if area2 < 0.0:
        v = v[::-1].copy()
    if not ref_is_simple(v):
        raise ValueError("polygon is self-intersecting")
    bounds = (*v.min(axis=0).tolist(), *v.max(axis=0).tolist())
    c = ref_centroid(v)
    return v.tobytes(), bounds, 0.5 * ref_signed_area2(v), (c.x, c.y)


def polygon_facts(vertices):
    poly = Polygon(vertices)
    c = poly.centroid
    return poly.vertices.tobytes(), poly.bounds(), poly.area, (c.x, c.y)


def either(fn, vertices):
    try:
        return fn(vertices)
    except ValueError as exc:
        return str(exc)


@st.composite
def vertex_arrays(draw):
    """Random points; star shapes in either orientation; small integer grids,
    full of collinear and touching edges, as drawn or rotated (rounding then
    gives collinear edges cross products of either sign); rotated
    rectangles far from the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 9))
    kind = draw(st.sampled_from(("points", "star", "grid", "rotated grid", "far")))
    if kind == "points":
        v = rng.uniform(-50.0, 50.0, (n, 2))
    elif kind == "star":
        t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        r = rng.uniform(1.0, 40.0, n)
        v = np.column_stack([r * np.cos(t), r * np.sin(t)]) + rng.uniform(-20.0, 20.0, 2)
        v = v[::-1] if draw(st.booleans()) else v
    elif kind == "grid":
        v = rng.integers(0, 4, (n, 2)).astype(float)
    elif kind == "rotated grid":
        v = _rotated(rng.integers(0, 4, (n, 2)), rng.uniform(0.0, 2.0 * math.pi), (0.0, 0.0))
    else:
        w, h = rng.uniform(1.0, 40.0, 2)
        box = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])
        v = _rotated(box, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1e6, 1e6, 2))
    form = draw(st.sampled_from(("array", "fortran", "tuples", "points")))
    if form == "fortran":
        return np.asfortranarray(v)
    if form == "tuples":
        return [tuple(p) for p in v.tolist()]
    if form == "points":
        return [Point2(x, y) for x, y in v.tolist()]
    return v


class TestPolygonMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(vertex_arrays())
    def test_same_error_or_same_bits_property(self, vertices):
        assert either(polygon_facts, vertices) == either(ref_polygon, vertices)

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (1, 1), (1, 0), (0, 1)],  # bow-tie
        [(0, 0), (2, 0), (4, 0)],  # collinear
        [(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)],  # a vertex touching an edge
        # a U whose collinear arm tops get cross products of crossing signs
        _rotated([(0, 0), (10, 0), (10, 10), (7, 10), (7, 3), (3, 3), (3, 10), (0, 10)],
                 14 * 0.0314, (0.0, 0.0)),
        [(0, 0), (1, 0)],
        [(0, 0), (1, 0), (0, float("inf"))],
        np.zeros((4, 3)),
        # np.dot gives this sliver an area of 2.2e-16; its centroid's sum is exactly 0
        [(0.4654651523800791, 0.8850662076476481), (0.4654651523800791, 0.8850662076476481),
         (2.2814616647878854, 2.189733470562865)],
    ])
    def test_same_error_or_same_bits_on_edge_cases(self, vertices):
        assert either(polygon_facts, vertices) == either(ref_polygon, vertices)


class TestTypes:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)

    def test_polygon_rejects_self_intersection(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])  # bow-tie

    def test_rotated_u_with_collinear_arm_tops_is_simple(self):
        # the tops of the two arms lie on one line; rounding gave their cross
        # products signs that read as a crossing at some angles
        u = [(0, 0), (10, 0), (10, 10), (7, 10), (7, 3), (3, 3), (3, 10), (0, 10)]
        for k in range(200):
            poly = Polygon(_rotated(u, k * 0.0314, (0.0, 0.0)))
            assert poly.area == pytest.approx(72.0, abs=1e-9)

    def test_polygon_normalizes_to_ccw(self):
        cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert cw.area > 0

    def test_homography_canonical_scale(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        assert np.max(np.abs(h.matrix)) == 1.0

    def test_singular_matrix_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            Homography([[1, 0, 0], [1, 0, 0], [0, 0, 1]])

    def test_ransac_params_validation(self):
        with pytest.raises(ValueError):
            RansacParams(confidence=1.5)
        with pytest.raises(ValueError):
            RansacParams(inlier_threshold=0.0)
