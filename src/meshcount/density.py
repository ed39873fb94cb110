"""Density maps from dot annotations, counting, peak localization, and the
domain-adaptation loss formulas as pure functions of given maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OutOfBounds, ShapeMismatch, SigmaZero, TooFewDots
from .geometry import Point2, Polygon, _pairwise_distances

PROB_EPS = 1e-7  # probabilities are clamped before logs


class DensityMap:
    """An H x W grid of non-negative intensities whose sum is a count."""

    __slots__ = ("_values",)

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("density map must be a 2-D grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        if v.min() < 0.0:
            raise ValueError("density values must be non-negative")
        self._values = v

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def height(self) -> int:
        return self._values.shape[0]

    @property
    def width(self) -> int:
        return self._values.shape[1]

    @classmethod
    def zeros(cls, height: int, width: int) -> "DensityMap":
        return cls(np.zeros((height, width)))


class ProbabilityMap:
    """An H' x W' grid of values in [0, 1] (a discriminator output)."""

    __slots__ = ("_values",)

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("probability map must be a 2-D grid")
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        self._values = v

    @property
    def values(self) -> np.ndarray:
        return self._values


@dataclass(frozen=True)
class DotAnnotation:
    """Object centroids in pixels, optionally with a per-point bandwidth."""

    points: tuple
    sigma: tuple | None = None

    def __post_init__(self):
        pts = tuple(self.points)
        if any(not isinstance(p, Point2) for p in pts):
            pts = tuple(Point2(float(x), float(y)) for x, y in pts)
        object.__setattr__(self, "points", pts)
        if self.sigma is not None:
            s = tuple(float(v) for v in self.sigma)
            if len(s) != len(pts):
                raise ValueError("per-point sigma list must match the dot count")
            object.__setattr__(self, "sigma", s)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class KernelSpec:
    """How the Gaussian bandwidth is chosen: fixed, per-point, or knn-adaptive."""

    mode: str = "fixed"
    sigma: float | None = None
    k: int | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.mode == "fixed":
            if self.sigma is None or not self.sigma > 0:
                raise ValueError("fixed mode needs sigma > 0")
        elif self.mode == "per-point":
            pass  # bandwidths come from the annotation itself
        elif self.mode == "knn-adaptive":
            if self.k is None or self.k < 1:
                raise ValueError("knn-adaptive mode needs k >= 1")
            if self.beta is None or not self.beta > 0:
                raise ValueError("knn-adaptive mode needs beta > 0")
        else:
            raise ValueError(f"unknown kernel mode {self.mode!r}")


def knn_sigmas(dots: DotAnnotation, k: int, beta: float):
    """Per-dot bandwidths: beta times the mean distance to the k nearest dots."""
    n = len(dots)
    if n <= k:
        raise TooFewDots(f"need more than k={k} dots, got {n}")
    pts = np.array([[p.x, p.y] for p in dots.points])
    dist = _pairwise_distances(pts, pts)
    np.fill_diagonal(dist, np.inf)
    part = np.partition(dist, k - 1, axis=1)[:, :k]
    return [float(beta * row.mean()) for row in part]


def _resolve_sigmas(dots: DotAnnotation, kernel: KernelSpec):
    if kernel.mode == "fixed":
        return [float(kernel.sigma)] * len(dots)
    if kernel.mode == "per-point":
        if dots.sigma is None:
            raise ValueError("per-point mode needs sigmas on the annotation")
        return list(dots.sigma)
    return knn_sigmas(dots, kernel.k, kernel.beta)


def dots_to_density(dots: DotAnnotation, shape, kernel: KernelSpec) -> DensityMap:
    """Sum of discretized Gaussians, one unit of mass per dot.

    Each kernel is truncated at radius ceil(3 sigma) and renormalized over
    the pixels it actually covers, so border dots still contribute exactly 1
    and the map total equals the dot count.
    """
    h, w = int(shape[0]), int(shape[1])
    out = np.zeros((h, w))
    if len(dots) == 0:
        return DensityMap(out)
    for p in dots.points:
        if not (0.0 <= p.x < w and 0.0 <= p.y < h):
            raise OutOfBounds(f"dot ({p.x}, {p.y}) outside [0, {w}) x [0, {h})")
    sigmas = _resolve_sigmas(dots, kernel)
    for s in sigmas:
        if not s * s > 0:  # a square that underflows is a zero bandwidth too
            raise SigmaZero("kernel bandwidth resolved to zero")
    for p, s in zip(dots.points, sigmas):
        r = math.ceil(min(3.0 * s, w + h))  # any radius past the map covers all of it
        cx, cy = int(round(p.x)), int(round(p.y))
        x0, x1 = max(0, cx - r), min(w - 1, cx + r)
        y0, y1 = max(0, cy - r), min(h - 1, cy + r)
        ys = np.arange(y0, y1 + 1)
        xs = np.arange(x0, x1 + 1)
        with np.errstate(over="ignore"):  # a far pixel of a tiny sigma: exp(-inf) = 0
            g = np.exp(
                -((xs[None, :] - p.x) ** 2 + (ys[:, None] - p.y) ** 2) / (2.0 * s * s)
            )
        mass = g.sum()
        if mass == 0.0:
            raise SigmaZero(f"kernel bandwidth {s!r} at dot ({p.x}, {p.y}) covers no pixel")
        out[y0 : y1 + 1, x0 : x1 + 1] += g / mass
    return DensityMap(out)


def count(density: DensityMap, roi: Polygon | None = None) -> float:
    """Integrate the map, optionally over pixels whose centers lie in ``roi``."""
    if roi is None:
        return float(density.values.sum())
    x0, y0, x1, y1 = roi.bounds()
    if x0 < 0 or y0 < 0 or x1 > density.width or y1 > density.height:
        raise OutOfBounds("roi extends beyond the map")
    ys, xs = np.mgrid[0 : density.height, 0 : density.width]
    centers = np.column_stack([xs.ravel().astype(float), ys.ravel().astype(float)])
    inside = roi.contains(centers).reshape(density.values.shape)
    return float(density.values[inside].sum())


def _window_max(a: np.ndarray, size: int, axis: int) -> np.ndarray:
    """Max over every run of ``size`` consecutive entries along ``axis``."""
    # a leading window axis lets numpy reduce whole contiguous rows, not each short window
    return np.moveaxis(sliding_window_view(a, size, axis=axis), -1, 0).max(axis=0)


def local_peaks(density: DensityMap, n: int, min_distance: int, min_value: float = 0.0):
    """Top-n strict local maxima, ordered by value, then row, then column.

    A peak reaches ``min_value`` and exceeds every other cell in its
    (2 min_distance + 1)^2 window, cells off the map counting as -inf. Two
    peaks are thus more than ``min_distance`` apart: each would lie in the
    other's window.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if min_distance < 1:
        raise ValueError("min_distance must be a positive pixel count")
    v, d = density.values, int(min_distance)
    h, w = v.shape
    padded = np.pad(v, d, mode="constant", constant_values=-np.inf)
    # the window less its centre: d full-width rows above and below, d cells either side
    bands = _window_max(_window_max(padded, 2 * d + 1, axis=1), d, axis=0)
    sides = _window_max(padded[d : d + h], d, axis=1)
    others = np.maximum(np.maximum(bands[:h], bands[d + 1 :]),
                        np.maximum(sides[:, :w], sides[:, d + 1 :]))
    rows, cols = np.nonzero((v >= min_value) & (v > others))
    order = np.argsort(-v[rows, cols], kind="stable")[:n]  # row-major ties: by (row, col)
    return [Point2(float(c), float(r)) for r, c in zip(rows[order].tolist(), cols[order].tolist())]


def density_loss(pred: DensityMap, gt: DensityMap) -> float:
    """Mean squared error between two equally shaped maps."""
    if pred.values.shape != gt.values.shape:
        raise ShapeMismatch(f"{pred.values.shape} vs {gt.values.shape}")
    return float(np.mean((pred.values - gt.values) ** 2))


def adversarial_loss(p: ProbabilityMap) -> float:
    """Negative log probability summed over the map, clamped at 1e-7."""
    v = np.clip(p.values, PROB_EPS, 1.0)
    return float(-np.log(v).sum())


def discriminator_loss(p: ProbabilityMap, domain_is_source: bool) -> float:
    """Pixel-wise binary cross-entropy against a constant domain label."""
    if domain_is_source:
        v = np.clip(p.values, PROB_EPS, 1.0)
    else:
        v = np.clip(1.0 - p.values, PROB_EPS, 1.0)
    return float(-np.log(v).sum())


def combined_loss(density_term: float, adv_term: float, lambda_adv: float) -> float:
    """Density loss plus the weighted adversarial term."""
    if lambda_adv < 0:
        raise ValueError("lambda_adv must be >= 0")
    return float(density_term + lambda_adv * adv_term)
