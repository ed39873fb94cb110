"""Descriptor matching front-end for calibration.

Brute-force nearest neighbors with Lowe's ratio test and an absolute
distance filter; keypoints and descriptors come from files or a synthetic
generator, never from image processing done here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .geometry import Correspondence, Point2

DEFAULT_RATIO = 0.75


@dataclass(frozen=True)
class Feature:
    keypoint: Point2
    descriptor: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.descriptor, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("descriptor must be a non-empty 1-D vector")
        if not np.all(np.isfinite(d)):
            raise ValueError("descriptor must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "descriptor", d)


@dataclass(frozen=True)
class Match:
    idx_a: int
    idx_b: int
    dist: float


def _descriptor_matrix(features) -> np.ndarray:
    dims = {f.descriptor.size for f in features}
    if len(dims) > 1:
        raise DimensionMismatch(f"descriptor lengths differ within a set: {sorted(dims)}")
    return np.vstack([f.descriptor for f in features])


def ratio_match(set_a, set_b, ratio: float = DEFAULT_RATIO):
    """One nearest-neighbor match per A-feature passing Lowe's ratio test.

    A match survives iff its distance is below ``ratio`` times the distance
    to the second-nearest B-feature; with a single candidate in B the match
    is kept unconditionally.
    """
    set_a, set_b = list(set_a), list(set_b)
    if not set_a or not set_b:
        raise ValueError("both feature sets must be non-empty")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    da = _descriptor_matrix(set_a)
    db = _descriptor_matrix(set_b)
    if da.shape[1] != db.shape[1]:
        raise DimensionMismatch(
            f"descriptor length {da.shape[1]} in A vs {db.shape[1]} in B"
        )
    # squared distances via the Gram expansion; the winner's distance is
    # recomputed directly so reported values match a plain norm exactly
    sq = np.maximum(
        (da**2).sum(axis=1)[:, None] + (db**2).sum(axis=1)[None, :] - 2.0 * (da @ db.T),
        0.0,
    )
    j = np.argmin(sq, axis=1)
    d1 = np.sqrt(((db[j] - da) ** 2).sum(axis=1))
    if db.shape[0] == 1:
        keep = np.arange(d1.size)
    else:
        keep = np.flatnonzero(d1 < ratio * np.sqrt(np.partition(sq, 1, axis=1)[:, 1]))
    return [Match(*m) for m in zip(keep.tolist(), j[keep].tolist(), d1[keep].tolist())]


def distance_filter(matches, max_dist: float):
    """Stable-order subset with distance strictly below ``max_dist``."""
    if not max_dist > 0:
        raise ValueError("max_dist must be > 0")
    return [m for m in matches if m.dist < max_dist]


def default_max_dist(matches) -> float:
    """Twice the median match distance, the documented default cutoff."""
    if not matches:
        raise ValueError("cannot take a median of no matches")
    return 2.0 * float(np.median([m.dist for m in matches]))


def to_correspondences(set_a, set_b, matches):
    """Keypoint pairs (A as source, B as target) in match order."""
    set_a, set_b = list(set_a), list(set_b)
    out = []
    for m in matches:
        if not (0 <= m.idx_a < len(set_a) and 0 <= m.idx_b < len(set_b)):
            raise IndexOutOfRange(f"match ({m.idx_a}, {m.idx_b}) outside set sizes "
                                  f"({len(set_a)}, {len(set_b)})")
        out.append(Correspondence(src=set_a[m.idx_a].keypoint, dst=set_b[m.idx_b].keypoint))
    return out
