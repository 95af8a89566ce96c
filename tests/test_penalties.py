import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcm import DomainError, huber, huber_prime, smoothed_hinge, smoothed_hinge_prime
from oracles import nested_smoothed_hinge, nested_smoothed_hinge_prime

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0)


class TestHuber:
    def test_zero(self):
        assert huber(0.0, 1.0) == 0.0

    def test_saturated_branch(self):
        assert huber(2.0, 1.0) == 1.5

    def test_quadratic_branch(self):
        assert huber(0.5, 1.0) == 0.125

    def test_rejects_nonpositive_epsilon(self):
        for eps in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                huber(1.0, eps)
            with pytest.raises(DomainError):
                huber_prime(1.0, eps)

    @given(t=finite, eps=st.floats(min_value=1e-6, max_value=1e3))
    def test_bounded_by_absolute_value(self, t, eps):
        assert huber(t, eps) <= abs(t) + 1e-12

    @given(t=finite, eps=st.floats(min_value=1e-6, max_value=1e3))
    def test_quadratic_inside_band(self, t, eps):
        if abs(t) <= eps:
            assert huber(t, eps) == t * t / (2.0 * eps)

    @given(t1=finite, t2=finite, alpha=unit,
           eps=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=300)
    def test_convexity_chord(self, t1, t2, alpha, eps):
        mid = alpha * t1 + (1 - alpha) * t2
        assert huber(mid, eps) <= alpha * huber(t1, eps) + \
            (1 - alpha) * huber(t2, eps) + 1e-9 * max(1.0, abs(t1), abs(t2))


class TestHuberPrime:
    def test_zero(self):
        assert huber_prime(0.0, 1.0) == 0.0

    def test_saturated(self):
        assert huber_prime(3.0, 0.5) == 1.0

    def test_linear_branch(self):
        assert huber_prime(-0.25, 1.0) == -0.25

    def test_odd_function(self, rng):
        t = rng.normal(size=100) * 3
        assert np.allclose(huber_prime(t, 0.7), -huber_prime(-t, 0.7))

    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.5])
    def test_continuous_at_band_edges(self, eps):
        for edge in (eps, -eps):
            inner = huber_prime(edge, eps)
            outer = huber_prime(math.nextafter(edge, math.copysign(10, edge)), eps)
            assert abs(inner - outer) < 1e-12

    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.5])
    def test_matches_finite_differences(self, eps, rng):
        ts = rng.uniform(-4, 4, size=200)
        h = 1e-6
        keep = np.abs(np.abs(ts) - eps) > 1e-3
        fd = (huber(ts + h, eps) - huber(ts - h, eps)) / (2 * h)
        assert np.allclose(huber_prime(ts, eps)[keep], fd[keep], atol=1e-6)


class TestSmoothedHinge:
    def test_margin_cost_ratio_is_8_at_half(self):
        assert smoothed_hinge(-0.5, 0.5) / smoothed_hinge(0.5, 0.5) == 8.0

    def test_margin_cost_ratio_is_3_for_exact_hinge(self):
        assert smoothed_hinge(-0.5, 0.0) / smoothed_hinge(0.5, 0.0) == 3.0

    def test_zero_region(self):
        assert smoothed_hinge(1.7, 0.5) == 0.0

    def test_linear_branch(self):
        assert smoothed_hinge(0.0, 0.5) == 0.5

    def test_delta_zero_is_exact_hinge(self, rng):
        t = rng.uniform(-3, 3, size=500)
        assert np.array_equal(smoothed_hinge(t, 0.0), np.maximum(0.0, 1.0 - t))

    def test_rejects_negative_delta(self):
        for delta in (-0.1, np.nan, np.inf):
            with pytest.raises(DomainError):
                smoothed_hinge(0.0, delta)
            with pytest.raises(DomainError):
                smoothed_hinge_prime(0.0, delta)

    @given(t=finite, delta=st.floats(min_value=1e-6, max_value=10.0))
    def test_within_delta_of_hinge(self, t, delta):
        slack = delta + 1e-12 * max(1.0, abs(t))
        assert abs(smoothed_hinge(t, delta) - max(0.0, 1.0 - t)) <= slack

    @given(t1=finite, t2=finite, alpha=unit,
           delta=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=300)
    def test_convexity_chord(self, t1, t2, alpha, delta):
        mid = alpha * t1 + (1 - alpha) * t2
        bound = alpha * smoothed_hinge(t1, delta) + \
            (1 - alpha) * smoothed_hinge(t2, delta)
        assert smoothed_hinge(mid, delta) <= bound + 1e-9 * max(1.0, abs(t1), abs(t2))

    def test_nonnegative(self, rng):
        t = rng.uniform(-10, 10, size=1000)
        for delta in (0.0, 0.25, 1.0):
            assert np.all(smoothed_hinge(t, delta) >= 0.0)


class TestSmoothedHingePrime:
    def test_boundary_at_one(self):
        assert smoothed_hinge_prime(1.0, 0.5) == 0.0

    def test_linear_branch(self):
        assert smoothed_hinge_prime(0.0, 0.5) == -1.0

    def test_quadratic_branch(self):
        assert smoothed_hinge_prime(0.5, 0.5) == -0.5

    def test_delta_zero_subgradient_choice(self):
        assert smoothed_hinge_prime(0.999, 0.0) == -1.0
        assert smoothed_hinge_prime(1.0, 0.0) == 0.0
        assert smoothed_hinge_prime(1.5, 0.0) == 0.0

    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
    def test_continuous_at_region_edges(self, delta):
        # the quadratic branch meets both neighbors up to rounding of 1 - 2*delta
        for edge in (1.0, 1.0 - 2.0 * delta):
            below = smoothed_hinge_prime(math.nextafter(edge, -10.0), delta)
            at = smoothed_hinge_prime(edge, delta)
            above = smoothed_hinge_prime(math.nextafter(edge, 10.0), delta)
            assert abs(at - below) < 1e-12 and abs(above - at) < 1e-12

    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
    def test_matches_finite_differences(self, delta, rng):
        ts = rng.uniform(-3, 3, size=300)
        keep = (np.abs(ts - 1.0) > 1e-3) & (np.abs(ts - (1 - 2 * delta)) > 1e-3)
        h = 1e-6
        fd = (smoothed_hinge(ts + h, delta) - smoothed_hinge(ts - h, delta)) / (2 * h)
        assert np.allclose(smoothed_hinge_prime(ts, delta)[keep], fd[keep], atol=1e-6)

    def test_value_continuity_at_region_edges(self):
        for delta in (0.1, 0.5, 1.0):
            for edge in (1.0, 1.0 - 2.0 * delta):
                below = smoothed_hinge(math.nextafter(edge, -10.0), delta)
                at = smoothed_hinge(edge, delta)
                assert abs(at - below) < 1e-12


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def ulps_around(x: float, k: int = 20) -> list[float]:
    """``x`` and the ``k`` floats on either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


SPECIAL_T = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, -1e308]
SPECIAL_DELTA = [0.0, 5e-324, 0.1, 0.5, 1.0, 1e308, float(np.finfo(np.float64).max)]


class TestSingleSelect:
    """The one-select penalties give the nested-select values bit for bit."""

    @staticmethod
    def assert_same_bits(t, delta):
        with np.errstate(all="ignore"):  # overflow and inf - inf are inputs here
            for fn, oracle in ((smoothed_hinge, nested_smoothed_hinge),
                               (smoothed_hinge_prime, nested_smoothed_hinge_prime)):
                assert np.array_equal(bits(fn(t, delta)), bits(oracle(t, delta)))
                for x in t:
                    got, want = fn(x, delta), oracle(x, delta)
                    assert isinstance(got, float)
                    assert bits(got) == bits(want)

    @pytest.mark.parametrize("delta", SPECIAL_DELTA)
    def test_special_values(self, delta):
        t = SPECIAL_T + ulps_around(1.0 - 2.0 * delta) + ulps_around(1.0)
        self.assert_same_bits(np.array(t), delta)

    @given(t=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=8),
           delta=st.floats(min_value=0.0, allow_infinity=False))
    @settings(max_examples=300)
    def test_finite_property(self, t, delta):
        self.assert_same_bits(np.array(t), delta)
