"""Central moments: frozen oracles, algebraic properties, gradients."""

from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from gradutil import fd_gradient, rel_gap
from oracle import central_moments, moment_gradients

CHECKERBOARD = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def exact_moments(values, n):
    """Rational-arithmetic oracle, immune to float summation error."""
    xs = [Fraction(v) for v in values]
    m = len(xs)
    mean = sum(xs) / m
    out = [float(mean)]
    for i in range(2, n + 1):
        out.append(float(sum((x - mean) ** i for x in xs) / m))
    return out


def test_checkerboard_oracle_values():
    mv = central_moments(CHECKERBOARD, 4)
    expected = exact_moments(CHECKERBOARD, 4)
    assert expected == pytest.approx(
        [5 / 9, 20 / 81, -20 / 729, 3780 / 59049], abs=0)
    got = [mv.m1, mv.m2, mv.m3, mv.m4]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
    assert mv.count == 9


def test_solid_color_annihilates_central_moments():
    for c in (0.0, 7.0, -3.25):
        mv = central_moments([c] * 6, 4)
        assert (mv.m1, mv.m2, mv.m3, mv.m4) == (c, 0.0, 0.0, 0.0)


def test_two_point_symmetric():
    mv = central_moments([0.0, 1.0], 4)
    assert (mv.m1, mv.m2, mv.m3, mv.m4) == (0.5, 0.25, 0.0, 0.0625)


def test_orders_above_n_left_zero():
    mv = central_moments([1.0, 2.0, 4.0], 2)
    assert mv.m3 == 0.0 and mv.m4 == 0.0
    assert central_moments([1.0, 2.0], 1).m2 == 0.0


def test_single_element_window():
    mv = central_moments([3.5], 4)
    assert (mv.m1, mv.m2, mv.m3, mv.m4) == (3.5, 0.0, 0.0, 0.0)


def test_input_validation():
    with pytest.raises(ValueError):
        central_moments([], 2)
    with pytest.raises(ValueError):
        central_moments([1.0], 0)
    with pytest.raises(ValueError):
        central_moments([1.0], 5)
    with pytest.raises(ValueError):
        moment_gradients([], 2)


def test_mean_gradient_is_uniform():
    g1 = moment_gradients(CHECKERBOARD, 1)[0]
    assert np.array_equal(g1, np.full(9, 1.0 / 9.0))


def test_constant_input_gradients_vanish_above_order_one():
    grads = moment_gradients([2.0] * 8, 4)
    for g in grads[1:]:
        assert not g.any()


def test_gradients_match_finite_differences_random_windows():
    """d m_i / d x_j agrees with central differences per order."""
    rng = np.random.default_rng(2024)
    for _ in range(25):
        x = rng.uniform(-3, 3, 16)
        grads = moment_gradients(x, 4)
        for order in range(1, 5):
            numeric = fd_gradient(
                lambda v, o=order: np.array([central_moments(v, o).by_order(o)]),
                x, np.ones(1))
            assert rel_gap(grads[order - 1], numeric) < 1e-6


class TestAlgebraicProperties:
    """Criterion-style property sweep: 1000 windows, sizes 2..64, seed 7."""

    def _windows(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = int(rng.integers(2, 65))
            yield rng.uniform(-10, 10, m), rng

    def test_permutation_invariance_is_exact(self):
        # exact summation makes the result order-independent outright
        for x, rng in self._windows():
            a = central_moments(x, 4)
            b = central_moments(rng.permutation(x), 4)
            assert (a.m1, a.m2, a.m3, a.m4) == (b.m1, b.m2, b.m3, b.m4)

    def test_shift_equivariance(self):
        for x, rng in self._windows():
            c = float(rng.uniform(-5, 5))
            a = central_moments(x, 4)
            b = central_moments(x + c, 4)
            assert abs(b.m1 - a.m1 - c) < 1e-12 * (1 + abs(a.m1) + abs(c))
            assert abs(b.m2 - a.m2) < 1e-10
            assert abs(b.m3 - a.m3) < 1e-10
            assert abs(b.m4 - a.m4) < 1e-10

    def test_scale_covariance(self):
        for x, rng in self._windows():
            s = float(rng.uniform(0.5, 2.0))
            a = central_moments(x, 4)
            b = central_moments(s * x, 4)
            for i, (got, base) in enumerate(
                    [(b.m1, a.m1), (b.m2, a.m2), (b.m3, a.m3), (b.m4, a.m4)], 1):
                assert abs(got - base * s ** i) <= 1e-10 * max(1.0, abs(base * s ** i))

    def test_moment_vector_invariants(self):
        # m4 >= m2^2 is Cauchy-Schwarz; float rounding can flip true
        # equality cases by ~1 ulp, hence the relative 1e-12 guard
        for x, _ in self._windows():
            mv = central_moments(x, 4)
            assert mv.m2 >= 0.0
            assert mv.m4 >= 0.0
            assert mv.m4 - mv.m2 * mv.m2 >= -1e-12 * max(1.0, mv.m2 * mv.m2)

    def test_gradients_match_finite_differences_bulk(self):
        """1000 seeded windows, all orders, rel error < 1e-6."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(2, 65))
            x = rng.uniform(-10, 10, m)
            analytic = moment_gradients(x, 4)
            # one fused probe per order keeps this sweep fast: the numeric
            # gradient of sum_i u_i * m_i against per-order analytic parts
            u = rng.uniform(-1, 1, 4)
            combined = sum(u[i] * analytic[i] for i in range(4))
            numeric = fd_gradient(
                lambda v: np.array([central_moments(v, 4).by_order(i + 1)
                                    for i in range(4)]), x, u)
            worst = max(worst, rel_gap(combined, numeric))
        assert worst < 1e-6


def test_two_pass_matches_direct_fsum():
    rng = np.random.default_rng(5)
    x = rng.uniform(-100, 100, 32) + 1e6  # large mean stresses stability
    mv = central_moments(x, 4)
    mean = fsum(x) / x.size
    assert mv.m1 == mean
    for i, got in [(2, mv.m2), (3, mv.m3), (4, mv.m4)]:
        direct = fsum((v - mean) ** i for v in x) / x.size
        np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-18)
