import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshcount.errors import DimensionMismatch, IndexOutOfRange
from meshcount.geometry import Point2
from meshcount.matching import (
    Feature,
    Match,
    default_max_dist,
    distance_filter,
    ratio_match,
    to_correspondences,
)


def feat(x, y, desc):
    return Feature(Point2(x, y), np.asarray(desc, dtype=float))


def ref_ratio_match(set_a, set_b, ratio):
    """Reference oracle: the ratio test one A-feature at a time."""
    da = np.vstack([f.descriptor for f in set_a])
    db = np.vstack([f.descriptor for f in set_b])
    sq = np.maximum(
        (da**2).sum(axis=1)[:, None] + (db**2).sum(axis=1)[None, :] - 2.0 * (da @ db.T), 0.0
    )
    matches = []
    for i in range(da.shape[0]):
        j = int(np.argmin(sq[i]))
        d1 = float(np.sqrt(((db[j] - da[i]) ** 2).sum()))
        if db.shape[0] == 1 or d1 < ratio * math.sqrt(float(np.partition(sq[i], 1)[1])):
            matches.append(Match(i, j, d1))
    return matches


@st.composite
def descriptor_sets(draw):
    """Two descriptor sets; coarse values and repeated rows make ties, and
    some A rows are noisy copies of B rows so that matches pass the test."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    na, nb, d = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 24))
    a, b = rng.normal(size=(na, d)), rng.normal(size=(nb, d))
    if draw(st.booleans()):
        a, b = np.round(a, 1), np.round(b, 1)
        b[rng.integers(0, nb, nb // 2)] = b[0]
    copies = draw(st.integers(0, na))
    a[:copies] = b[rng.integers(0, nb, copies)] + rng.normal(0, draw(st.floats(0.0, 0.2)), (copies, d))
    return [feat(0, 0, x) for x in a], [feat(0, 0, x) for x in b]


class TestRatioMatch:
    @settings(max_examples=300, deadline=None)
    @given(descriptor_sets(), st.floats(0.3, 0.99))
    def test_matches_reference_loop_property(self, sets, ratio):
        got = ratio_match(*sets, ratio)
        want = ref_ratio_match(*sets, ratio)
        assert [(m.idx_a, m.idx_b, m.dist.hex()) for m in got] == [
            (m.idx_a, m.idx_b, m.dist.hex()) for m in want
        ]
        assert all(type(m.idx_a) is int and type(m.idx_b) is int for m in got)

    def test_tied_nearest_takes_the_first_and_fails_the_ratio(self):
        a = [feat(0, 0, [0.0, 0.0])]
        b = [feat(0, 0, [1.0, 0.0]), feat(0, 0, [0.0, 5.0]), feat(0, 0, [0.0, 1.0])]
        assert ratio_match(a, b, 0.99) == []
        assert ref_ratio_match(a, b, 0.99) == []

    def test_exact_match_against_separated_pair(self):
        a = [feat(0, 0, [1.0, 0.0])]
        b = [feat(5, 5, [1.0, 0.0]), feat(9, 9, [0.0, 10.0])]
        out = ratio_match(a, b, 0.75)
        assert out == [Match(0, 0, 0.0)]

    def test_ratio_rejects_ambiguous(self):
        # nearest at 1.0, second at 1.2: 1.0 >= 0.75 * 1.2 so rejected
        a = [feat(0, 0, [0.0, 0.0])]
        b = [feat(1, 1, [1.0, 0.0]), feat(2, 2, [0.0, 1.2])]
        assert ratio_match(a, b, 0.75) == []

    def test_single_candidate_kept_unconditionally(self):
        a = [feat(0, 0, [3.0])]
        b = [feat(1, 1, [100.0])]
        out = ratio_match(a, b, 0.75)
        assert len(out) == 1 and out[0].dist == pytest.approx(97.0)

    def test_synthetic_pairing_recovery(self):
        rng = np.random.default_rng(8)
        true = rng.normal(0, 1, (100, 16))
        a = [feat(i, 0, true[i] + rng.normal(0, 0.02, 16)) for i in range(100)]
        b_desc = list(true + rng.normal(0, 0.02, (100, 16)))
        b_desc += list(rng.normal(0, 1, (100, 16)))  # distractors
        b = [feat(0, j, d) for j, d in enumerate(b_desc)]
        out = ratio_match(a, b, 0.75)
        correct = sum(1 for m in out if m.idx_b == m.idx_a)
        wrong = len(out) - correct
        assert correct >= 90
        assert wrong <= 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ratio_match([feat(0, 0, [1.0, 2.0])], [feat(0, 0, [1.0])])

    def test_reported_dist_matches_recomputation(self):
        rng = np.random.default_rng(9)
        a = [feat(i, i, rng.normal(0, 1, 8)) for i in range(20)]
        b = [feat(i, i, rng.normal(0, 1, 8)) for i in range(30)]
        for m in ratio_match(a, b, 0.9):
            d = float(np.linalg.norm(a[m.idx_a].descriptor - b[m.idx_b].descriptor))
            assert abs(m.dist - d) <= 1e-9

    def test_lowering_ratio_never_adds_matches(self):
        rng = np.random.default_rng(10)
        a = [feat(i, i, rng.normal(0, 1, 8)) for i in range(30)]
        b = [feat(i, i, rng.normal(0, 1, 8)) for i in range(30)]
        prev = None
        for ratio in (0.9, 0.75, 0.6, 0.4):
            cur = {(m.idx_a, m.idx_b) for m in ratio_match(a, b, ratio)}
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_output_bounded_by_a(self):
        rng = np.random.default_rng(11)
        a = [feat(i, i, rng.normal(0, 1, 4)) for i in range(7)]
        b = [feat(i, i, rng.normal(0, 1, 4)) for i in range(50)]
        assert len(ratio_match(a, b, 0.99)) <= len(a)


class TestDistanceFilter:
    def test_all_below_unchanged(self):
        ms = [Match(0, 0, 0.3), Match(1, 2, 0.2)]
        assert distance_filter(ms, 1.0) == ms

    def test_all_above_empty(self):
        ms = [Match(0, 0, 3.0), Match(1, 2, 2.0)]
        assert distance_filter(ms, 1.0) == []

    def test_mixed_matches_bruteforce(self):
        rng = np.random.default_rng(12)
        ms = [Match(i, i, float(d)) for i, d in enumerate(rng.uniform(0, 2, 40))]
        got = distance_filter(ms, 1.1)
        expected = [m for m in ms if m.dist < 1.1]
        assert got == expected

    def test_idempotent_and_order_preserving(self):
        ms = [Match(3, 1, 0.5), Match(0, 2, 0.1), Match(1, 0, 0.9)]
        once = distance_filter(ms, 0.95)
        assert distance_filter(once, 0.95) == once
        assert once == [m for m in ms if m.dist < 0.95]

    def test_default_max_dist_is_twice_median(self):
        ms = [Match(0, 0, 1.0), Match(1, 1, 2.0), Match(2, 2, 9.0)]
        assert default_max_dist(ms) == pytest.approx(4.0)


class TestToCorrespondences:
    def test_empty(self):
        assert to_correspondences([], [], []) == []

    def test_single_pair_exact_keypoints(self):
        a = [feat(1.5, 2.5, [0.0])]
        b = [feat(7.0, 8.0, [0.0])]
        (c,) = to_correspondences(a, b, [Match(0, 0, 0.0)])
        assert (c.src.x, c.src.y) == (1.5, 2.5)
        assert (c.dst.x, c.dst.y) == (7.0, 8.0)

    def test_permutation_carries_through(self):
        a = [feat(i, 0, [0.0]) for i in range(4)]
        b = [feat(0, i, [0.0]) for i in range(4)]
        ms = [Match(2, 1, 0.0), Match(0, 3, 0.0), Match(3, 0, 0.0)]
        out = to_correspondences(a, b, ms)
        perm = [Match(0, 3, 0.0), Match(3, 0, 0.0), Match(2, 1, 0.0)]
        out_perm = to_correspondences(a, b, perm)
        assert [out[1], out[2], out[0]] == out_perm

    def test_index_out_of_range(self):
        a = [feat(0, 0, [0.0])]
        with pytest.raises(IndexOutOfRange):
            to_correspondences(a, a, [Match(0, 5, 0.0)])
