import math

import numpy as np
import pytest

from biasedwave import (build_params, build_report, calibrate_constants,
                        coin_pair_moment, cutoff_mass, enumerate_moments,
                        exact_expectation, exact_variance,
                        exact_variance_generic, expectation_bounds,
                        grid_quadrature_mass, variance_bound)
from biasedwave.oscint import build_kernel


class TestCoinPairMoment:
    def test_values(self):
        assert coin_pair_moment(0.5) == 0.0
        assert coin_pair_moment(1.0) == 1.0
        assert coin_pair_moment(0.0) == 1.0
        assert coin_pair_moment(0.75) == pytest.approx(0.25, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            coin_pair_moment(1.2)


class TestExactExpectation:
    def test_fair_coin_is_pure_diagonal(self, kernels):
        kernel = kernels(128, 1, 0.5)
        assert exact_expectation(kernel) == kernel.size * kernel.diagonal

    @pytest.mark.parametrize("n_target,lam,alpha", [
        (10, 20, 0.4), (13, 13, 0.7), (8, 40, 0.0), (14, 9, 0.25)])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.77])
    def test_matches_enumeration(self, n_target, lam, alpha, p):
        kernel = build_kernel(build_params(lam, n_target / lam, alpha, p))
        assert kernel.size == n_target
        expected, _ = enumerate_moments(kernel, p)
        assert exact_expectation(kernel) == pytest.approx(expected, rel=1e-12)

    def test_fully_biased_matches_grid_quadrature(self, kernels):
        kernel = kernels(64, 1, 0.5, p=1.0)
        direct = grid_quadrature_mass(kernel.params, np.ones(kernel.size))
        assert exact_expectation(kernel) == pytest.approx(direct, rel=1e-4)

    def test_bias_symmetry_exact(self, kernels):
        # bitwise for dyadic p (1 - p and 2p - 1 are then exact); ulp-level
        # agreement for arbitrary p where 1 - p itself rounds
        for p in (0.0, 0.0625, 0.25, 0.375):
            assert (exact_expectation(kernels(128, 1, 0.5, p))
                    == exact_expectation(kernels(128, 1, 0.5, 1.0 - p)))
        for p in (0.15, 0.37, 0.62):
            a = exact_expectation(kernels(128, 1, 0.5, p))
            b = exact_expectation(kernels(128, 1, 0.5, 1.0 - p))
            assert a == pytest.approx(b, rel=1e-14)

    def test_monotone_in_bias_when_row_sum_positive(self, kernels):
        assert kernels(256, 8, 0.5).off_diagonal_row_sum > 0
        values = [exact_expectation(kernels(256, 8, 0.5, p))
                  for p in (0.5, 0.6, 0.75, 0.9, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestExactVariance:
    def test_degenerate_coins_have_zero_variance(self, kernels):
        assert exact_variance(kernels(128, 1, 0.5, 0.0)) == 0.0
        assert exact_variance(kernels(128, 1, 0.5, 1.0)) == 0.0

    def test_fair_coin_reduces_to_square_sum(self, kernels):
        kernel = kernels(128, 1, 0.5)
        expected = 2.0 * kernel.size * np.sum(kernel.values[1:] ** 2)
        assert exact_variance(kernel) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n_target,lam,alpha", [
        (10, 20, 0.4), (13, 13, 0.7), (12, 30, 0.55)])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.77])
    def test_matches_enumeration(self, n_target, lam, alpha, p):
        kernel = build_kernel(build_params(lam, n_target / lam, alpha, p))
        _, expected = enumerate_moments(kernel, p)
        assert exact_variance(kernel) == pytest.approx(expected, rel=1e-10)

    def test_bias_symmetry_exact(self, kernels):
        for p in (0.125, 0.25, 0.4375):
            assert (exact_variance(kernels(128, 1, 0.5, p))
                    == exact_variance(kernels(128, 1, 0.5, 1.0 - p)))
        for p in (0.1, 0.33, 0.45):
            a = exact_variance(kernels(128, 1, 0.5, p))
            b = exact_variance(kernels(128, 1, 0.5, 1.0 - p))
            assert a == pytest.approx(b, rel=1e-14)

    @pytest.mark.parametrize("lam,gamma,alpha", [
        (64, 1, 0.5), (127, 1, 0.3), (64, 8, 0.7), (256, 2, 0.5)])
    def test_fast_path_matches_generic_double_loop(self, kernels, lam, gamma, alpha):
        for p in (0.3, 0.5, 0.9):
            kernel = kernels(lam, gamma, alpha, p=p)
            fast = exact_variance(kernel)
            slow = exact_variance_generic(kernel)
            assert fast == pytest.approx(slow, rel=1e-11)

    def test_generic_path_size_guard(self, kernels):
        kernel = kernels(1024, 1, 0.5)
        with pytest.raises(ValueError):
            exact_variance_generic(kernel)


class TestEnumeration:
    def test_single_direction(self):
        kernel = build_kernel(build_params(8, 1 / 8, 0.3, 0.5))
        assert kernel.size == 1
        for p in (0.0, 0.4, 1.0):
            expectation, variance = enumerate_moments(kernel, p)
            assert expectation == pytest.approx(kernel.diagonal, rel=1e-15)
            assert variance == pytest.approx(0.0, abs=1e-18)

    def test_two_directions_hand_expansion(self):
        kernel = build_kernel(build_params(16, 1 / 8, 0.4, 0.5))
        assert kernel.size == 2
        i0, i1 = kernel.values
        expectation, variance = enumerate_moments(kernel, 0.5)
        assert expectation == pytest.approx(2 * i0, rel=1e-14)
        assert variance == pytest.approx(4 * i1 ** 2, rel=1e-12)
        expectation, variance = enumerate_moments(kernel, 1.0)
        assert expectation == pytest.approx(2 * i0 + 2 * i1, rel=1e-14)
        assert variance == pytest.approx(0.0, abs=1e-18)

    def test_biased_two_directions(self):
        kernel = build_kernel(build_params(16, 1 / 8, 0.4, 0.5))
        p = 0.8
        q = (2 * p - 1) ** 2
        i0, i1 = kernel.values
        expectation, variance = enumerate_moments(kernel, p)
        assert expectation == pytest.approx(2 * i0 + 2 * q * i1, rel=1e-13)
        assert variance == pytest.approx(4 * i1 ** 2 * (1 - q ** 2), rel=1e-12)

    def test_size_guard(self, kernels):
        kernel = kernels(64, 1, 0.5)
        with pytest.raises(ValueError):
            enumerate_moments(kernel, 0.5)


class TestBounds:
    def test_fair_coin_reduces_to_diagonal_scales(self, kernels):
        params = build_params(256, 8, 0.5, 0.5)
        constants = calibrate_constants(kernels(64, 8, 0.5))
        lower, upper = expectation_bounds(params, "two_sided", constants)
        diag_scale = 8 * 256 ** (1 - 2 * 0.5)
        assert lower == pytest.approx(math.pi * diag_scale, rel=1e-12)
        assert upper == pytest.approx(4 * math.pi * diag_scale, rel=1e-12)

    def test_two_sided_requires_dense_directions(self):
        constants = calibrate_constants(build_kernel(build_params(64, 2, 0.5, 0.5)))
        with pytest.raises(ValueError):
            expectation_bounds(build_params(64, 2, 0.5, 0.5), "two_sided",
                               constants)
        lower, upper = expectation_bounds(
            build_params(64, 2, 0.5, 0.5), "upper_only", constants)
        assert lower is None and upper > 0

    def test_mode_validation(self, kernels):
        with pytest.raises(ValueError):
            expectation_bounds(build_params(64, 8, 0.5, 0.5), "sideways",
                               calibrate_constants(kernels(64, 8, 0.5)))

    def test_envelope_holds_across_ladder(self, kernels):
        constants = calibrate_constants(kernels(64, 8, 0.5))
        for lam in (64, 128, 256):
            for p in (0.5, 0.75, 1.0):
                kernel = kernels(lam, 8, 0.5, p=p)
                value = exact_expectation(kernel)
                lower, upper = expectation_bounds(kernel.params, "two_sided",
                                                  constants)
                assert lower <= value <= upper

    def test_variance_bound_vanishes_for_degenerate_coins(self, kernels):
        constants = calibrate_constants(kernels(64, 8, 0.5))
        for p in (0.0, 1.0):
            params = build_params(256, 8, 0.5, p)
            assert variance_bound(params, constants) == 0.0

    def test_variance_bound_fair_coin_single_term(self, kernels):
        constants = calibrate_constants(kernels(64, 8, 0.5))
        params = build_params(256, 8, 0.5, 0.5)
        expected = constants.c1_diag * 256 ** (1 - 3 * 0.5) * 64
        assert variance_bound(params, constants) == pytest.approx(expected, rel=1e-12)

    def test_variance_bound_holds_across_ladder(self, kernels):
        constants = calibrate_constants(kernels(64, 8, 0.5))
        for lam in (64, 128, 256):
            for p in (0.5, 0.7, 0.95):
                kernel = kernels(lam, 8, 0.5, p=p)
                assert exact_variance(kernel) <= variance_bound(kernel.params,
                                                                constants)


class TestReportAndClassification:
    def test_fair_coin_point_is_strong(self, kernels):
        report = build_report(kernels(64, 8, 0.5),
                              constants=calibrate_constants(kernels(64, 8, 0.5)))
        assert report["class"] == "strong"
        assert report["E_norm"] / report["vol_norm"] == pytest.approx(1.0, abs=1e-9)
        assert report["threshold_ok"]

    def test_fully_biased_point_loses_equidistribution(self, kernels):
        report = build_report(kernels(256, 8, 0.5, p=1.0),
                              constants=calibrate_constants(kernels(64, 8, 0.5)))
        assert report["class"] == "none"
        assert not report["threshold_ok"]

    def test_threshold_bias_point_is_weak(self, kernels):
        lam = 512
        p = 0.5 + lam ** -0.25 / math.sqrt(8)
        report = build_report(kernels(lam, 8, 0.5, p=p),
                              constants=calibrate_constants(kernels(64, 8, 0.5)))
        assert report["class"] == "weak"
        assert report["threshold_ok"]

    def test_normalised_volume_matches_cutoff_mass(self, kernels):
        kernel = kernels(128, 1, 0.3)
        report = build_report(kernel,
                              constants=calibrate_constants(kernels(64, 1, 0.3)))
        assert report["vol_norm"] == cutoff_mass(kernel.params)
        assert report["E_norm"] == pytest.approx(
            report["E"] / (kernel.params.gamma * kernel.params.lam),
            rel=1e-15)

    def test_report_serialisation_keys(self, kernels):
        report = build_report(kernels(64, 8, 0.5),
                              constants=calibrate_constants(kernels(64, 8, 0.5)))
        assert list(report) == [
            "lambda", "gamma", "alpha", "p", "N", "E", "Var", "E_norm",
            "Var_norm", "vol_norm", "E_upper", "E_lower", "Var_upper",
            "class", "threshold_ok"]

    def test_custom_thresholds_change_verdict(self, kernels):
        lam = 512
        p = 0.5 + lam ** -0.25 / math.sqrt(8)
        strict = build_report(kernels(lam, 8, 0.5, p=p),
                              constants=calibrate_constants(kernels(64, 8, 0.5)),
                              kappa=1.5)
        assert strict["class"] == "none"
