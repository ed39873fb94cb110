import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshcount.density import (
    DensityMap,
    DotAnnotation,
    KernelSpec,
    ProbabilityMap,
    adversarial_loss,
    combined_loss,
    count,
    density_loss,
    discriminator_loss,
    dots_to_density,
    knn_sigmas,
    local_peaks,
)
from meshcount.errors import OutOfBounds, ShapeMismatch, SigmaZero, TooFewDots
from meshcount.geometry import Point2, Polygon


def truncated_kernel_mass_oracle(x, y, sigma, h, w):
    """Direct loop evaluation of the renormalized truncated kernel mass."""
    r = math.ceil(3 * sigma)
    cx, cy = round(x), round(y)
    total = 0.0
    cells = []
    for rr in range(max(0, cy - r), min(h - 1, cy + r) + 1):
        for cc in range(max(0, cx - r), min(w - 1, cx + r) + 1):
            g = math.exp(-((cc - x) ** 2 + (rr - y) ** 2) / (2 * sigma**2))
            cells.append(g)
            total += g
    return sum(c / total for c in cells)


def ref_local_peaks(density, n, min_distance, min_value=0.0):
    """Reference oracle: every cell at or above ``min_value`` sorted by
    (-value, row, col), then tested one at a time for a strict window
    maximum, with greedy suppression of accepted peaks within
    ``min_distance`` (Euclidean)."""
    v = density.values
    d = int(min_distance)
    padded = np.pad(v, d, mode="constant", constant_values=-np.inf)
    cand_rows, cand_cols = np.nonzero(v >= min_value)
    order = sorted(
        range(cand_rows.size),
        key=lambda i: (-v[cand_rows[i], cand_cols[i]], cand_rows[i], cand_cols[i]),
    )
    peaks = []
    for i in order:
        if len(peaks) == n:
            break
        r, c = int(cand_rows[i]), int(cand_cols[i])
        window = padded[r : r + 2 * d + 1, c : c + 2 * d + 1]
        val = v[r, c]
        if not (val == window.max() and (window == val).sum() == 1):
            continue  # not a strict neighborhood maximum
        if any((r - pr) ** 2 + (c - pc) ** 2 <= d * d for pr, pc in peaks):
            continue
        peaks.append((r, c))
    return [Point2(float(c), float(r)) for r, c in peaks]


@st.composite
def tied_maps(draw):
    """Small maps of small non-negative integers, so that ties and plateaus
    are common, plus one planted high cell."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.integers(0, draw(st.integers(1, 4)), (h, w)).astype(float)
    v[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = draw(st.sampled_from([3.0, 12.0]))
    return DensityMap(v)


class TestDotsToDensity:
    def test_empty_annotation(self):
        m = dots_to_density(DotAnnotation(()), (16, 16), KernelSpec(sigma=2.0))
        assert m.values.sum() == 0.0

    def test_interior_dots_sum_to_count(self):
        rng = np.random.default_rng(1)
        pts = [(float(x), float(y)) for x, y in rng.uniform(15, 45, (10, 2))]
        m = dots_to_density(DotAnnotation(pts), (60, 60), KernelSpec(sigma=2.0))
        assert abs(m.values.sum() - 10.0) < 1e-6

    def test_corner_dot_renormalized(self):
        m = dots_to_density(DotAnnotation([(0.0, 0.0)]), (32, 32), KernelSpec(sigma=3.0))
        assert abs(m.values.sum() - 1.0) < 1e-6
        assert truncated_kernel_mass_oracle(0.0, 0.0, 3.0, 32, 32) == pytest.approx(1.0)

    def test_out_of_bounds_dot(self):
        with pytest.raises(OutOfBounds):
            dots_to_density(DotAnnotation([(40.0, 5.0)]), (32, 32), KernelSpec(sigma=1.0))

    def test_mass_conservation_with_border_dots(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            pts = np.column_stack(
                [rng.uniform(0, 48, n), rng.uniform(0, 32, n)]
            )
            # force some dots onto the border region
            pts[: n // 3, 0] = rng.uniform(0, 1.5, n // 3)
            m = dots_to_density(
                DotAnnotation([tuple(p) for p in pts]), (32, 48), KernelSpec(sigma=2.5)
            )
            assert abs(m.values.sum() - n) < 1e-6

    def test_additivity_for_disjoint_lists(self):
        a = [(5.0, 5.0), (20.0, 7.0)]
        b = [(11.0, 22.0), (30.0, 30.0)]
        k = KernelSpec(sigma=2.0)
        m_ab = dots_to_density(DotAnnotation(a + b), (40, 40), k)
        m_a = dots_to_density(DotAnnotation(a), (40, 40), k)
        m_b = dots_to_density(DotAnnotation(b), (40, 40), k)
        assert np.allclose(m_ab.values, m_a.values + m_b.values, atol=1e-12)

    def test_per_point_sigma_mode(self):
        dots = DotAnnotation([(8.0, 8.0), (24.0, 24.0)], sigma=(1.0, 3.0))
        m = dots_to_density(dots, (32, 32), KernelSpec(mode="per-point"))
        assert abs(m.values.sum() - 2.0) < 1e-6


class TestKnnSigmas:
    def test_collinear_hand_case(self):
        dots = DotAnnotation([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
        assert knn_sigmas(dots, k=1, beta=0.3) == pytest.approx([3.0, 3.0, 3.0])

    def test_coincident_dots_give_sigma_zero(self):
        dots = DotAnnotation([(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)])
        with pytest.raises(SigmaZero):
            dots_to_density(dots, (16, 16), KernelSpec(mode="knn-adaptive", k=1, beta=0.3))

    def test_too_few_dots(self):
        dots = DotAnnotation([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(TooFewDots):
            knn_sigmas(dots, k=2, beta=0.3)


class TestCount:
    def test_full_map_equals_dots(self):
        rng = np.random.default_rng(3)
        pts = [(float(x), float(y)) for x, y in rng.uniform(10, 50, (7, 2))]
        m = dots_to_density(DotAnnotation(pts), (64, 64), KernelSpec(sigma=2.0))
        assert count(m) == pytest.approx(7.0, abs=1e-6)

    def test_zero_map(self):
        assert count(DensityMap.zeros(8, 8)) == 0.0

    def test_roi_covers_half_the_dots(self):
        # three dots far left, three far right, sigma small vs separation
        left = [(10.0, 16.0), (10.0, 32.0), (10.0, 48.0)]
        right = [(54.0, 16.0), (54.0, 32.0), (54.0, 48.0)]
        m = dots_to_density(DotAnnotation(left + right), (64, 64), KernelSpec(sigma=1.5))
        roi = Polygon.box(0, 0, 32, 64)
        assert count(m, roi) == pytest.approx(3.0, abs=0.05)

    def test_roi_out_of_bounds(self):
        m = DensityMap.zeros(16, 16)
        with pytest.raises(OutOfBounds):
            count(m, Polygon.box(0, 0, 20, 20))


class TestLocalPeaks:
    def test_recovers_separated_gaussians(self):
        pts = [(10.0, 10.0), (40.0, 12.0), (25.0, 40.0)]
        m = dots_to_density(DotAnnotation(pts), (50, 50), KernelSpec(sigma=2.0))
        peaks = local_peaks(m, n=3, min_distance=3, min_value=1e-6)
        assert len(peaks) == 3
        for x, y in pts:
            assert any(abs(p.x - x) <= 1 and abs(p.y - y) <= 1 for p in peaks)

    def test_flat_zero_map(self):
        assert local_peaks(DensityMap.zeros(16, 16), n=5, min_distance=2, min_value=0.1) == []

    def test_cells_off_the_map_are_below_zero(self):
        # a lone zero cell still beats its window, which lies wholly off the map
        assert local_peaks(DensityMap.zeros(1, 1), n=5, min_distance=3) == [Point2(0.0, 0.0)]

    def test_equal_peaks_tie_break(self):
        v = np.zeros((20, 20))
        v[12, 7] = 1.0
        v[3, 15] = 1.0
        peaks = local_peaks(DensityMap(v), n=1, min_distance=2, min_value=0.5)
        assert (peaks[0].y, peaks[0].x) == (3.0, 15.0)

    def test_recovery_property_on_well_separated_dots(self):
        rng = np.random.default_rng(4)
        sigma = 1.5
        pts = []
        while len(pts) < 6:
            cand = rng.uniform(8, 56, 2)
            if all(np.hypot(cand[0] - x, cand[1] - y) > 6 * sigma for x, y in pts):
                pts.append((float(cand[0]), float(cand[1])))
        m = dots_to_density(DotAnnotation(pts), (64, 64), KernelSpec(sigma=sigma))
        peaks = local_peaks(m, n=6, min_distance=2, min_value=1e-9)
        assert len(peaks) == 6
        for x, y in pts:
            assert any(abs(p.x - x) <= 1 and abs(p.y - y) <= 1 for p in peaks)

    @settings(max_examples=200, deadline=None)
    @given(
        tied_maps(),
        st.integers(1, 50),
        st.integers(1, 8),
        st.sampled_from([0.0, 0.5, 2.0, 10.0]),
    )
    def test_matches_reference_loop_property(self, density, n, min_distance, min_value):
        got = local_peaks(density, n, min_distance, min_value)
        assert got == ref_local_peaks(density, n, min_distance, min_value)
        assert all(type(p.x) is float and type(p.y) is float for p in got)
        for i, p in enumerate(got):
            for q in got[:i]:
                assert (p.x - q.x) ** 2 + (p.y - q.y) ** 2 > min_distance**2

    def test_matches_reference_loop_on_knn_maps(self):
        rng = np.random.default_rng(9)
        kernel = KernelSpec(mode="knn-adaptive", k=3, beta=0.3)
        for n_dots in (40, 90, 150):
            pts = [(float(x), float(y)) for x, y in rng.uniform(0, 256, (n_dots, 2))]
            m = dots_to_density(DotAnnotation(pts), (256, 256), kernel)
            got = local_peaks(m, n=10, min_distance=3, min_value=0.0)
            assert len(got) == 10
            assert got == ref_local_peaks(m, n=10, min_distance=3, min_value=0.0)

class TestLosses:
    def test_density_loss_identical(self):
        m = DensityMap(np.full((4, 4), 0.25))
        assert density_loss(m, m) == 0.0

    def test_density_loss_unit_offset(self):
        a = DensityMap(np.zeros((4, 4)))
        b = DensityMap(np.ones((4, 4)))
        assert density_loss(b, a) == 1.0

    def test_density_loss_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 2, (6, 7))
        b = rng.uniform(0, 2, (6, 7))
        expected = sum(
            (a[i, j] - b[i, j]) ** 2 for i in range(6) for j in range(7)
        ) / 42.0
        assert density_loss(DensityMap(a), DensityMap(b)) == pytest.approx(expected, rel=1e-12)

    def test_density_loss_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            density_loss(DensityMap.zeros(3, 3), DensityMap.zeros(3, 4))

    def test_adversarial_loss_all_ones(self):
        assert adversarial_loss(ProbabilityMap(np.ones((3, 3)))) == 0.0

    def test_adversarial_loss_half(self):
        got = adversarial_loss(ProbabilityMap(np.full((2, 2), 0.5)))
        assert got == pytest.approx(4 * math.log(2), rel=1e-12)

    def test_adversarial_loss_clamps_zero(self):
        assert math.isfinite(adversarial_loss(ProbabilityMap(np.zeros((2, 2)))))

    def test_adversarial_loss_monotone(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(0.1, 0.9, (4, 4))
        base = adversarial_loss(ProbabilityMap(v))
        for _ in range(10):
            i, j = rng.integers(0, 4, 2)
            bumped = v.copy()
            bumped[i, j] = min(1.0, bumped[i, j] + 0.05)
            assert adversarial_loss(ProbabilityMap(bumped)) < base

    def test_discriminator_loss_perfect_source(self):
        assert discriminator_loss(ProbabilityMap(np.ones((3, 3))), True) == 0.0

    def test_discriminator_loss_perfect_target(self):
        assert discriminator_loss(ProbabilityMap(np.zeros((3, 3))), False) == 0.0

    def test_discriminator_loss_half_either_domain(self):
        p = ProbabilityMap(np.full((3, 5), 0.5))
        expected = 15 * math.log(2)
        assert discriminator_loss(p, True) == pytest.approx(expected, rel=1e-12)
        assert discriminator_loss(p, False) == pytest.approx(expected, rel=1e-12)

    def test_combined_loss(self):
        assert combined_loss(1.0, 5.0, 0.0) == 1.0
        assert combined_loss(1.0, 2.0, 0.5) == 2.0
        # linear in lambda: two-point check
        l0 = combined_loss(0.7, 1.3, 0.0)
        l1 = combined_loss(0.7, 1.3, 1.0)
        lmid = combined_loss(0.7, 1.3, 0.5)
        assert lmid == pytest.approx((l0 + l1) / 2)
