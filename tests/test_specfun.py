import math
from fractions import Fraction

import numpy as np
import pytest

from biasedwave import (angular_integral, asymptotic_check, bessel_j0,
                        residual_probe_points, stationary_leading_term,
                        surface_wave_envelope)
from biasedwave import specfun


def angular_integral_quadrature(w: float) -> float:
    """Direct adaptive quadrature of cos(w cos(theta)); independent check path.

    The sine component vanishes by the theta -> -theta symmetry, so only the
    cosine part is integrated (over half the range, doubled).
    """
    integrate = pytest.importorskip("scipy.integrate")
    limit = max(60, int(10 * w / np.pi) + 10)
    val, _ = integrate.quad(lambda theta: np.cos(w * np.cos(theta)), 0.0, np.pi,
                            limit=limit, epsabs=1e-12, epsrel=1e-12)
    return 2.0 * val


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero_by_bisection(self):
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_j0(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(2.404825557695773, abs=1e-10)

    def test_matches_leading_asymptotic_at_50(self):
        # the leading-order deviation is the phase-quadrature correction of
        # relative size 1/(8z) = 2.5e-3 at z=50
        z = 50.0
        envelope = np.sqrt(2.0 / (np.pi * z))
        leading = envelope * np.cos(z - np.pi / 4.0)
        deviation = abs(bessel_j0(z) - leading)
        assert deviation <= envelope / (8.0 * z) * 1.05
        predicted = envelope / (8.0 * z) * abs(np.sin(z - np.pi / 4.0))
        assert deviation == pytest.approx(predicted, rel=0.05)

    def test_absolute_error_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        z = np.concatenate([rng.uniform(0.0, 20.0, 400),
                            rng.uniform(20.0, 10_000.0, 600)])
        reference = np.array([float(mpmath.besselj(0, x)) for x in z])
        assert np.max(np.abs(bessel_j0(z) - reference)) <= 1e-12

    def test_absolute_error_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        z = np.linspace(0.0, 2000.0, 400_001)
        assert np.max(np.abs(bessel_j0(z) - special.j0(z))) <= 1e-14

    def test_both_sides_of_the_switch(self):
        # the trapezoid rule ends and Hankel's expansion starts here
        mpmath = pytest.importorskip("mpmath")
        switch = specfun.J0_SWITCH
        ulp = np.spacing(switch)
        z = np.concatenate([switch + ulp * np.arange(-8, 9), [switch - 0.1, switch + 0.1]])
        reference = np.array([float(mpmath.besselj(0, x)) for x in z])
        assert np.max(np.abs(bessel_j0(z) - reference)) <= 1e-15

    def test_hankel_coefficients_and_truncation(self):
        # P = sum (-1)**k a_2k z**-2k and Q = sum (-1)**k a_(2k+1) z**-(2k+1),
        # a_k = 1**2 3**2 ... (2k-1)**2 (-1)**k / (k! 8**k) (DLMF 10.17.1)
        def a(k):
            return Fraction((-1) ** k * math.prod((2 * j - 1) ** 2 for j in range(1, k + 1)),
                            math.factorial(k) * 8 ** k)
        terms = len(specfun._HANKEL_P)
        assert len(specfun._HANKEL_Q) == terms
        for k in range(terms):
            assert specfun._HANKEL_P[k] == pytest.approx((-1) ** k * a(2 * k), rel=1e-15)
            assert specfun._HANKEL_Q[k] == pytest.approx((-1) ** k * a(2 * k + 1), rel=1e-15)
        # the first omitted term is below rounding at the switch
        assert abs(a(2 * terms)) / specfun.J0_SWITCH ** (2 * terms) <= 1e-17

    def test_bounded_by_one(self):
        z = np.linspace(0.0, 2000.0, 400_001)
        assert np.max(np.abs(bessel_j0(z))) <= 1.0

    def test_scalar_and_array_forms(self):
        z = np.array([0.3, 4.0, 42.0])
        out = bessel_j0(z)
        assert out.shape == z.shape
        assert bessel_j0(0.3) == out[0]

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(ValueError):
            bessel_j0(-1.0)
        with pytest.raises(ValueError):
            bessel_j0(np.array([1.0, np.inf]))


class TestAngularIntegral:
    def test_at_zero_is_full_circle(self):
        assert angular_integral(0.0) == pytest.approx(2 * np.pi, rel=1e-15)

    def test_small_argument_bounded_by_circle(self):
        w = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(angular_integral(w))) <= 2 * np.pi + 1e-12

    @pytest.mark.parametrize("w", [0.0, 0.37, 1.0, 5.5, 23.1, 87.3, 199.2])
    def test_matches_direct_quadrature(self, w):
        assert angular_integral(w) == pytest.approx(
            angular_integral_quadrature(w), abs=1e-8)

    def test_residual_decays_like_minus_three_halves(self):
        check = asymptotic_check(residual_probe_points(10.0, 1e4))
        fit = check.residual_slope()
        assert fit.slope == pytest.approx(-1.5, abs=0.1)
        assert fit.r_squared > 0.999

    def test_residual_constant_is_uniform_across_range(self):
        near = asymptotic_check(residual_probe_points(10.0, 100.0))
        far = asymptotic_check(residual_probe_points(100.0, 1e4))
        assert far.c_check <= 1.05 * near.c_check

    def test_probe_window_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            residual_probe_points(10.0, np.inf)
        with pytest.raises(ValueError, match="no probe points"):
            residual_probe_points(3.0, 3.1)  # between 0.75 pi and 1.75 pi

    def test_check_requires_oscillatory_regime(self):
        with pytest.raises(ValueError):
            asymptotic_check([0.5, 2.0])

    def test_leading_term_formula(self):
        w = 17.0
        expected = 2 * np.sqrt(2 * np.pi) / np.sqrt(w) * np.cos(w - np.pi / 4)
        assert stationary_leading_term(w) == pytest.approx(expected, rel=1e-15)


class TestSurfaceWaveEnvelope:
    def test_envelope_exponent(self):
        lam = 7.0
        radii = np.linspace(5.0, 500.0, 4000) / lam
        table = surface_wave_envelope(lam, radii)
        assert table.envelope_exponent == pytest.approx(-0.5, abs=0.05)

    def test_magnitude_at_tiny_radius(self):
        lam = 9.0
        radii = np.concatenate([[1e-12], np.linspace(0.5, 40.0, 800)])
        table = surface_wave_envelope(lam, radii)
        assert table.magnitudes[0] == pytest.approx(2 * np.pi * np.sqrt(lam), rel=1e-9)

    def test_explicit_sqrt_lambda_prefactor(self):
        # doubling lam at fixed lam * |x| scales |v| by sqrt(2)
        base = np.linspace(3.0, 60.0, 600)
        small = surface_wave_envelope(16.0, base / 16.0)
        large = surface_wave_envelope(32.0, base / 32.0)
        ratio = large.magnitudes / small.magnitudes
        assert np.max(np.abs(ratio - np.sqrt(2.0))) < 1e-9

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            surface_wave_envelope(8.0, np.array([1.0, 0.5, 2.0]))
        with pytest.raises(ValueError):
            surface_wave_envelope(8.0, np.array([-1.0, 0.5, 2.0]))
        with pytest.raises(ValueError):
            surface_wave_envelope(8.0, np.linspace(0.001, 0.002, 10))
        with pytest.raises(ValueError, match="at least 3"):
            surface_wave_envelope(8.0, np.array([1.0, 2.0]))
