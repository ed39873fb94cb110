"""Projective geometry kernel.

Homography estimation (DLT with Hartley normalization, RANSAC), point and
polygon projection, exact polygon IoU by clipping, and metric ground-plane
distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    NoConsensus,
    PointAtInfinity,
    TooFewPoints,
)

_W_EPS = 1e-12  # homogeneous coordinate below this is "at infinity"
_BLOCK_POINTS = 1 << 16  # RANSAC scores at most this many (sample, point) pairs at once
_MAX_COORD = 1e100  # largest |coordinate| a Polygon accepts


@dataclass(frozen=True)
class Point2:
    """A finite 2-D point; pixels or meters depending on context."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Correspondence:
    """A matched point pair: `src` on the source plane, `dst` on the target."""

    src: Point2
    dst: Point2


@dataclass(frozen=True)
class RansacParams:
    max_iterations: int = 2000
    inlier_threshold: float = 3.0  # px, symmetric transfer error
    confidence: float = 0.995
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.inlier_threshold > 0:
            raise ValueError("inlier_threshold must be > 0")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


class Homography:
    """A 3x3 projective transform with canonical scale.

    The matrix is normalized so its element of largest magnitude equals 1,
    which makes estimates comparable without a scale ambiguity.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(m)):
            raise ValueError("homography entries must be finite")
        pivot = m.flat[np.argmax(np.abs(m))]
        if pivot == 0.0:
            raise DegenerateConfiguration("zero homography matrix")
        m = m / pivot
        if abs(np.linalg.det(m)) <= _W_EPS:
            raise DegenerateConfiguration("homography is not invertible")
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        """The normalized 3x3 matrix (read-only view)."""
        return self._m

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self._m))

    def __repr__(self):
        return f"Homography({self._m.tolist()})"


class Polygon:
    """A simple polygon with positive area, stored counter-clockwise.

    Input vertices may be given in either orientation; the constructor
    verifies simplicity and flips clockwise input.
    """

    __slots__ = ("_v", "_bounds", "_area", "_centroid")

    def __init__(self, vertices):
        if isinstance(vertices, np.ndarray):
            v = np.array(vertices, dtype=float, order="C")
        else:
            v = np.array([[p.x, p.y] if isinstance(p, Point2) else p for p in vertices], dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 (x, y) vertices")
        bounds = (*v.min(axis=0).tolist(), *v.max(axis=0).tolist())
        # past 1e100 the centroid sums, cubic in the coordinates, could overflow
        if not all(-_MAX_COORD <= c <= _MAX_COORD for c in bounds):
            if not np.isfinite(v).all():
                raise ValueError("polygon vertices must be finite")
            raise ValueError("polygon vertices must lie within [-1e100, 1e100]")
        area2 = _signed_area2(v)
        if area2 == 0.0:
            raise ValueError("polygon has zero area")
        if area2 < 0.0:
            v = v[::-1].copy()
            area2 = _signed_area2(v)  # not -area2: the flipped sums round differently
        if not _is_simple(v):
            raise ValueError("polygon is self-intersecting")
        x, y = v[:, 0], v[:, 1]
        xn, yn = _next(v).T
        cross = x * yn - xn * y
        a2 = cross.sum()  # a sliver's np.dot area can be nonzero by rounding while this is 0
        if a2 == 0.0:
            raise ValueError("polygon has zero area")
        v.setflags(write=False)
        self._v = v
        self._bounds = bounds
        self._area = 0.5 * area2
        self._centroid = Point2(float(((x + xn) * cross).sum() / (3.0 * a2)),
                                float(((y + yn) * cross).sum() / (3.0 * a2)))

    @classmethod
    def box(cls, x0: float, y0: float, x1: float, y1: float) -> "Polygon":
        """Axis-aligned rectangle from two opposite corners."""
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        return cls([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

    @property
    def vertices(self) -> np.ndarray:
        return self._v

    @property
    def area(self) -> float:
        return self._area

    @property
    def centroid(self) -> Point2:
        return self._centroid

    def bounds(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) of the axis-aligned bounding box."""
        return self._bounds

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Even-odd test for an (n, 2) array of points."""
        return points_in_polygon(points, self._v)

    def __repr__(self):
        return f"Polygon({self._v.tolist()})"


def _next(a: np.ndarray) -> np.ndarray:
    """Contiguous copy of ``a`` shifted so row k holds a[k + 1], cyclically."""
    return np.concatenate((a[1:], a[:1]))


def _signed_area2(v: np.ndarray) -> float:
    # x and y stay strided views: np.dot rounds by the memory layout it is given
    x, y = v[:, 0], v[:, 1]
    return float(np.dot(x, _next(y)) - np.dot(_next(x), y))


def _is_simple(v: np.ndarray) -> bool:
    """No two non-adjacent edges properly cross."""
    pts = v.tolist()
    n = len(pts)
    edges = [(*pts[k], *pts[(k + 1) % n]) for k in range(n)]
    for i in range(n - 2):
        px1, py1, px2, py2 = edges[i]
        for j in range(i + 2, n - 1 if i == 0 else n):  # edges 0 and n - 1 share a vertex
            qx1, qy1, qx2, qy2 = edges[j]
            d1 = (qx2 - qx1) * (py1 - qy1) - (qy2 - qy1) * (px1 - qx1)
            d2 = (qx2 - qx1) * (py2 - qy1) - (qy2 - qy1) * (px2 - qx1)
            d3 = (px2 - px1) * (qy1 - py1) - (py2 - py1) * (qx1 - px1)
            d4 = (px2 - px1) * (qy2 - py1) - (py2 - py1) * (qx2 - px1)
            # rounding gives collinear segments arbitrary cross-product signs;
            # segments whose bounding boxes are disjoint cannot cross
            if (((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))
                    and min(px1, px2) <= max(qx1, qx2) and min(qx1, qx2) <= max(px1, px2)
                    and min(py1, py2) <= max(qy1, qy2) and min(qy1, qy2) <= max(py1, py2)):
                return False
    return True


def points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Even-odd ray-casting test, vectorized over the points."""
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(pts.shape[0], dtype=bool)
    n = vertices.shape[0]
    j = n - 1
    for i in range(n):
        xi, yi = vertices[i]
        xj, yj = vertices[j]
        crosses = (yi > y) != (yj > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (xj - xi) * (y - yi) / (yj - yi) + xi
        inside ^= crosses & (x < xint)
        j = i
    return inside[0] if squeeze else inside


# -- homography estimation ---------------------------------------------------

_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# `_dlt` status codes, in the order the estimation meets them; 0 is a usable fit
_DLT_FAILURES = (
    None,
    (DegenerateConfiguration, "three of four source points are collinear"),
    (DegenerateConfiguration, "all points coincide"),
    (np.linalg.LinAlgError, "SVD did not converge"),
    (DegenerateConfiguration, "design matrix is rank-deficient"),
    (ValueError, "homography entries must be finite"),
    (DegenerateConfiguration, "zero homography matrix"),
    (DegenerateConfiguration, "homography is not invertible"),
)


def _collinear(pts: np.ndarray) -> np.ndarray:
    """Whether any three of each stack's four points are collinear."""
    # area below 1e-9 of the triple's bounding-box area counts as collinear
    tri = pts[:, _TRIPLES]  # (b, 4 triples, 3 points, 2)
    a, b, c = tri[:, :, 0], tri[:, :, 1], tri[:, :, 2]
    area2 = np.abs((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                   - (c[..., 0] - a[..., 0]) * (b[..., 1] - a[..., 1]))
    span = tri.max(axis=2) - tri.min(axis=2)
    sx, sy = span[..., 0], span[..., 1]
    box = np.maximum(np.maximum(sx * sy, sx**2), np.maximum(sy**2, _W_EPS))
    return (area2 < 2e-9 * box).any(axis=1)


def _normalization(pts: np.ndarray):
    """Hartley normalization of (b, n, 2) stacks: centroid to origin, mean
    distance sqrt(2). Returns (transforms, normalized points, coincident)."""
    centroid = pts.mean(axis=1)
    d = np.sqrt(((pts - centroid[:, None]) ** 2).sum(axis=2)).mean(axis=1)
    s = math.sqrt(2.0) / d
    t = np.zeros((pts.shape[0], 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = s
    t[:, :2, 2] = -s[:, None] * centroid
    t[:, 2, 2] = 1.0
    normalized = pts @ t[:, :2, :2].transpose(0, 2, 1) + t[:, None, :2, 2]
    return t, normalized, d <= _W_EPS


def _dlt(src: np.ndarray, dst: np.ndarray):
    """Batched normalized DLT over (b, n, 2) point stacks.

    Returns (b, 3, 3) matrices in `Homography`'s canonical scale and a (b,)
    status: 0 for a usable fit, else an index into `_DLT_FAILURES` naming
    the first check that fails. Entries of failed fits are meaningless.
    """
    b, n = src.shape[:2]
    with np.errstate(all="ignore"):  # failed stacks may divide by zero
        t_src, sh, coincide = _normalization(src)
        t_dst, dh, coincide_dst = _normalization(dst)
        a = np.zeros((b, 2 * n, 9))
        a[:, 0::2, 0:2] = -sh
        a[:, 0::2, 2] = -1.0
        a[:, 0::2, 6:8] = sh * dh[:, :, 0:1]
        a[:, 0::2, 8] = dh[:, :, 0]
        a[:, 1::2, 3:5] = -sh
        a[:, 1::2, 5] = -1.0
        a[:, 1::2, 6:8] = sh * dh[:, :, 1:2]
        a[:, 1::2, 8] = dh[:, :, 1]
        finite = np.isfinite(a).all(axis=(1, 2))
        a[~finite] = 0.0  # LAPACK fails on NaN and would fail the whole stack
        # 4-point samples are 8 x 9: only the full V holds their null vector
        _, s, vt = np.linalg.svd(a, full_matrices=2 * n < 9)
        deficient = s[:, 7] <= 1e-9 * s[:, 0]
        early = coincide | coincide_dst | ~finite | deficient
        t_dst[early] = np.eye(3)  # inv of a failed transform could raise
        h = np.linalg.inv(t_dst) @ vt[:, -1].reshape(b, 3, 3) @ t_src
        flat = h.reshape(b, 9)
        pivot = flat[np.arange(b), np.argmax(np.abs(flat), axis=1)]
        h = h / pivot[:, None, None]
        singular = np.abs(np.linalg.det(h)) <= _W_EPS
    collinear = _collinear(src) if n == 4 else np.zeros(b, dtype=bool)
    fails = (collinear, coincide | coincide_dst, ~finite, deficient,
             ~np.isfinite(flat).all(axis=1), pivot == 0.0, singular)
    return h, np.select(fails, np.arange(1, len(fails) + 1), 0)


def _homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """One DLT fit of (n, 2) arrays, raising what its first failed check names."""
    h, status = _dlt(src[None], dst[None])
    if status[0]:
        exc, message = _DLT_FAILURES[status[0]]
        raise exc(message)
    return Homography(h[0])


def _corr_arrays(corrs) -> tuple[np.ndarray, np.ndarray]:
    src = np.array([[c.src.x, c.src.y] for c in corrs], dtype=float)
    dst = np.array([[c.dst.x, c.dst.y] for c in corrs], dtype=float)
    return src, dst


def estimate_homography_dlt(corrs) -> Homography:
    """Least-squares homography from >= 4 correspondences via the DLT.

    Source and target points are Hartley-normalized before building the
    design matrix, and the solution is the right singular vector of its
    smallest singular value.

    Raises TooFewPoints below four pairs and DegenerateConfiguration when
    the design matrix is rank-deficient (e.g. three collinear source points).
    """
    corrs = list(corrs)
    n = len(corrs)
    if n < 4:
        raise TooFewPoints(f"need at least 4 correspondences, got {n}")
    return _homography(*_corr_arrays(corrs))


def _project_array(matrix: np.ndarray, pts: np.ndarray) -> np.ndarray:
    ones = np.ones((pts.shape[0], 1))
    hom = np.hstack([pts, ones]) @ matrix.T
    w = hom[:, 2]
    if not ((w > _W_EPS).all() or (w < -_W_EPS).all()):  # every point on one side of the line
        raise PointAtInfinity("projection meets the vanishing line")
    return hom[:, :2] / w[:, None]


def project_point(h: Homography, p: Point2) -> Point2:
    """Apply the homography to one point with projective division."""
    out = _project_array(h.matrix, np.array([[p.x, p.y]]))
    return Point2(float(out[0, 0]), float(out[0, 1]))


def project_polygon(h: Homography, poly: Polygon) -> Polygon:
    """Project every vertex; orientation is re-normalized to CCW.

    Raises PointAtInfinity unless every vertex lies strictly on one side of
    the vanishing line of ``h`` (every w > 0 or every w < 0): a mask that
    touches or straddles the line has an image through infinity, which no
    polygon of the projected vertices bounds.
    """
    return Polygon(_project_array(h.matrix, poly.vertices))


def _one_way_errors(mats: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) distances from each (3, 3) matrix's image of ``a`` to ``b``;
    inf where a point maps to infinity."""
    hom = np.hstack([a, np.ones((a.shape[0], 1))]) @ mats.transpose(0, 2, 1)
    w = hom[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(((hom[..., :2] / w[..., None] - b) ** 2).sum(axis=2))
    return np.where(np.abs(w) > _W_EPS, d, np.inf)


def _transfer_errors(mats: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(m, n) symmetric transfer errors of invertible (m, 3, 3) matrices."""
    fwd = _one_way_errors(mats, src, dst)
    bwd = _one_way_errors(np.linalg.inv(mats), dst, src)
    return np.where(np.isfinite(fwd) & np.isfinite(bwd), 0.5 * (fwd + bwd), np.inf)


def symmetric_transfer_error(h: Homography, corrs) -> np.ndarray:
    """Per-pair mean of forward and backward reprojection distances."""
    return _transfer_errors(h.matrix[None], *_corr_arrays(corrs))[0]


def _budget(it: int, w: float, needed: int, confidence: float) -> int:
    """Iterations needed after a new best consensus of inlier share ``w`` at ``it``."""
    if w >= 1.0:
        return it
    if w > 0.0:
        denom = math.log1p(-(w**4)) if w**4 < 1.0 else -np.inf
        if denom < 0.0:
            return min(needed, it + math.ceil(math.log(1.0 - confidence) / denom))
    return needed


def ransac_homography(corrs, params: RansacParams = RansacParams()):
    """Robust homography fit: sample 4 pairs, fit, score, keep best consensus.

    The residual is the symmetric transfer error; the iteration budget is
    adaptively shrunk from the best inlier ratio at the requested confidence
    and capped at ``params.max_iterations``. Deterministic for a fixed seed.

    Samples are fitted and scored in blocks that double in size (1, 1, 2,
    4, ...) up to the remaining budget, then taken in draw order, so the
    result is that of fitting one sample per iteration: fits drawn past the
    stopping point are discarded.

    Returns (Homography refit on the consensus set, inlier mask).
    """
    corrs = list(corrs)
    n = len(corrs)
    if n < 4:
        raise TooFewPoints(f"need at least 4 correspondences, got {n}")
    src, dst = _corr_arrays(corrs)
    rng = np.random.default_rng(params.seed)

    best_mask = None
    best_count = 0
    best_err = np.inf
    needed = params.max_iterations
    it = 0
    while it < min(params.max_iterations, needed):
        size = min(max(1, min(it, _BLOCK_POINTS // n)), min(params.max_iterations, needed) - it)
        samples = np.array([rng.choice(n, size=4, replace=False) for _ in range(size)])
        hs, status = _dlt(src[samples], dst[samples])
        ok = status == 0
        errs = _transfer_errors(np.where(ok[:, None, None], hs, np.eye(3)), src, dst)
        masks = errs < params.inlier_threshold
        counts = masks.sum(axis=1).tolist()
        for k in range(size):
            it += 1
            if not ok[k]:
                exc, message = _DLT_FAILURES[status[k]]
                if exc is not DegenerateConfiguration:
                    raise exc(message)
            elif counts[k] >= best_count:  # a smaller consensus cannot win: skip its sum
                count, mask = counts[k], masks[k]
                total = float(errs[k][mask].sum()) if count else np.inf
                if count > best_count or total < best_err:
                    best_count, best_err, best_mask = count, total, mask
                    needed = _budget(it, count / n, needed, params.confidence)
            if it >= min(params.max_iterations, needed):
                break

    if best_mask is None or best_count < 4:
        raise NoConsensus(f"best consensus has {best_count} inliers")
    h = _homography(src[best_mask], dst[best_mask])
    return h, [bool(b) for b in best_mask]


# -- polygon IoU --------------------------------------------------------------


def _clip_to_triangle(subject: list, tri: tuple) -> list:
    """Sutherland-Hodgman: the part of ``subject`` inside a CCW triangle."""
    out = subject
    for k in range(3):
        if not out:
            break
        (px, py), (qx, qy) = tri[k - 1], tri[k]
        ex, ey = qx - px, qy - py
        pts, out = out, []
        sx, sy = pts[-1]
        ds = ex * (sy - py) - ey * (sx - px)
        for x, y in pts:
            d = ex * (y - py) - ey * (x - px)
            if (d >= 0.0) != (ds >= 0.0):
                t = ds / (ds - d)
                out.append((sx + t * (x - sx), sy + t * (y - sy)))
            if d >= 0.0:
                out.append((x, y))
            sx, sy, ds = x, y, d
    return out


def iou(a: Polygon, b: Polygon) -> float:
    """Exact intersection over union of two simple polygons, in [0, 1].

    ``b`` is clipped (Sutherland & Hodgman, CACM 1974) against each triangle
    of a fan over ``a``; the clipped areas, summed with the triangles' signs,
    are exact for non-convex polygons too. The pair is ordered canonically
    first, so ``iou(a, b) == iou(b, a)`` bit for bit.
    """
    ax0, ay0, ax1, ay1 = a.bounds()
    bx0, by0, bx1, by1 = b.bounds()
    if min(ax1, bx1) <= max(ax0, bx0) or min(ay1, by1) <= max(ay0, by0):
        return 0.0
    ka, kb = a.vertices.tobytes(), b.vertices.tobytes()
    if ka == kb:
        return 1.0
    if kb < ka:
        a, b = b, a
    (ox, oy), *fan = a.vertices.tolist()
    subject = b.vertices.tolist()
    inter2 = 0.0
    for (px, py), (qx, qy) in zip(fan, fan[1:]):
        sign = (px - ox) * (qy - oy) - (py - oy) * (qx - ox)
        if sign == 0.0:
            continue
        tri = ((ox, oy), (px, py), (qx, qy)) if sign > 0.0 else ((ox, oy), (qx, qy), (px, py))
        part = _clip_to_triangle(subject, tri)
        area2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(part, part[1:] + part[:1]))
        inter2 += area2 if sign > 0.0 else -area2
    inter = 0.5 * inter2
    return min(max(inter / (a.area + b.area - inter), 0.0), 1.0)


# -- metric ground plane ------------------------------------------------------


def ground_distance(h_ground: Homography, a: Point2, b: Point2) -> float:
    """Euclidean distance in meters after unprojecting both pixel points."""
    pa = project_point(h_ground, a)
    pb = project_point(h_ground, b)
    return math.hypot(pa.x - pb.x, pa.y - pb.y)


def distance_violations(positions, threshold: float):
    """Connected groups of points closer than ``threshold`` (strictly).

    Returns components of the violation graph with at least two members,
    each sorted by index; points exactly at the threshold do not violate.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
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
