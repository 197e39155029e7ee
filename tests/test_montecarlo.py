import math

import numpy as np
import pytest

from biasedwave import (build_params, cutoff_mass, darboux_error, e1_error_norm,
                        enumerate_moments, exact_expectation, exact_variance,
                        grid_quadrature_mass, mass_double_sum,
                        mass_quadratic_form, mc_moments, sample_coefficients)
from biasedwave import montecarlo
from biasedwave.oscint import build_kernel


class TestSampling:
    def test_degenerate_probabilities(self):
        params_one = build_params(64, 2, 0.5, 1.0)
        assert np.all(sample_coefficients(params_one, 5) == 1.0)
        params_zero = build_params(64, 2, 0.5, 0.0)
        assert np.all(sample_coefficients(params_zero, 5) == -1.0)

    def test_deterministic_per_key(self):
        params = build_params(512, 2, 0.5, 0.37)
        a = sample_coefficients(params, 123, sample_index=9)
        b = sample_coefficients(params, 123, sample_index=9)
        c = sample_coefficients(params, 123, sample_index=10)
        d = sample_coefficients(params, 124, sample_index=9)
        assert np.array_equal(a, b) and not a.flags.writeable
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_sample_mean_confidence_interval(self):
        params = build_params(100_000, 1, 0.5, 0.5)
        signs = sample_coefficients(params, 42)
        margin = 4 * math.sqrt(4 * 0.5 * 0.5 / params.n_dirs)
        assert abs(float(np.mean(signs)) - 0.0) <= margin

    @pytest.mark.parametrize("seed", [0, 811, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)])
    @pytest.mark.parametrize("n", [195, 256])
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_keyed_signs_match_one_generator_per_sample(self, kernels,
                                                        monkeypatch, seed, n, p):
        # a batch of 5 rows makes samples 3..12 cross two batch boundaries
        monkeypatch.setattr(montecarlo, "_MC_BATCH", 5 * n)
        kernel = kernels(n / 3, 3, 0.5, p=p)
        assert kernel.size == n
        expected = np.array([np.where(np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64))).random(n) < p, 1.0, -1.0)
            for i in range(3, 13)])
        block = montecarlo._keyed_signs(seed, 3, np.empty((10, n)), p)
        assert np.array_equal(block, expected)
        for i in (3, 12):
            assert np.array_equal(
                sample_coefficients(kernel.params, seed, i),
                expected[i - 3])
        stream = []

        def record(_, signs):
            stream.append(signs.copy())
            return np.zeros(len(signs))
        monkeypatch.setattr(montecarlo, "_block_masses", record)
        mc_moments(kernel, 100, seed)
        assert [len(b) for b in stream] == [5] * 20
        assert np.array_equal(np.concatenate(stream)[3:13], expected)

    @pytest.mark.parametrize("seed,index,key", [
        (2.9, 0, "seed"), (1.0, 0, "seed"), (True, 0, "seed"), (-1, 0, "seed"),
        (2 ** 64, 0, "seed"), ("3", 0, "seed"), (5, 2.9, "sample_index")])
    def test_seed_is_never_coerced(self, seed, index, key):
        with pytest.raises(ValueError, match=key):
            sample_coefficients(build_params(64, 2, 0.5, 0.37), seed, index)

    def test_bias_shows_in_mean(self):
        params = build_params(100_000, 1, 0.5, 0.8)
        signs = sample_coefficients(params, 42)
        margin = 4 * math.sqrt(4 * 0.8 * 0.2 / params.n_dirs)
        assert abs(float(np.mean(signs)) - 0.6) <= margin


class TestQuadraticForm:
    def test_all_ones_maps_to_fully_biased_expectation(self, kernels):
        kernel = kernels(128, 2, 0.5, p=1.0)
        value = mass_quadratic_form(kernel, np.ones(kernel.size))
        assert value == pytest.approx(exact_expectation(kernel), rel=1e-12)

    @pytest.mark.parametrize("lam,gamma,alpha", [(64, 1, 0.5), (64, 4, 0.3),
                                                 (128, 2, 0.7)])
    def test_matches_double_sum_oracle(self, kernels, lam, gamma, alpha):
        kernel = kernels(lam, gamma, alpha)
        rng = np.random.default_rng(lam + gamma)
        for _ in range(3):
            signs = rng.choice([-1.0, 1.0], size=kernel.size)
            fast = mass_quadratic_form(kernel, signs)
            slow = mass_double_sum(kernel, signs)
            assert fast == pytest.approx(slow, rel=1e-10)

    @pytest.mark.parametrize("lam", [64, 128, 256])
    def test_matches_grid_quadrature(self, kernels, lam):
        kernel = kernels(lam, 1, 0.5)
        params = kernel.params
        signs = sample_coefficients(params, 2024)
        fast = mass_quadratic_form(kernel, signs)
        grid = grid_quadrature_mass(params, signs)
        assert fast == pytest.approx(grid, rel=1e-3)

    def test_sign_flip_symmetry_exact(self, kernels):
        kernel = kernels(128, 2, 0.5)
        signs = sample_coefficients(kernel.params, 7)
        assert (mass_quadratic_form(kernel, signs)
                == mass_quadratic_form(kernel, -signs))

    def test_nonnegative_masses(self, kernels):
        kernel = kernels(128, 2, 0.5)
        floor = -1e-9 * kernel.size * kernel.diagonal
        rng = np.random.default_rng(0)
        for _ in range(50):
            signs = rng.choice([-1.0, 1.0], size=kernel.size)
            assert mass_quadratic_form(kernel, signs) >= floor

    @pytest.mark.parametrize("lam,gamma", [(65, 3), (64, 2)])
    def test_half_spectrum_masses(self, kernels, lam, gamma):
        # odd N has no Nyquist bin; even N counts it once
        kernel = kernels(lam, gamma, 0.5, p=0.6)
        assert kernel.size % 2 == lam % 2
        signs = montecarlo._keyed_signs(5, 0, np.empty((4, kernel.size)), 0.6)
        masses = montecarlo._block_masses(kernel, signs)
        for c, mass in zip(signs, masses):
            full = float(np.abs(np.fft.fft(c)) ** 2 @ kernel.spectrum) / kernel.size
            assert mass == pytest.approx(full, rel=1e-12)
            assert mass == pytest.approx(mass_double_sum(kernel, c), rel=1e-12)
            assert mass_quadratic_form(kernel, c) == pytest.approx(mass, rel=1e-14)

    def test_size_mismatch_rejected(self, kernels):
        kernel = kernels(128, 2, 0.5)
        with pytest.raises(ValueError):
            mass_quadratic_form(kernel, np.ones(kernel.size - 1))

    def test_exhaustive_mean_ties_to_exact_expectation(self):
        # weight every sign vector by its probability and push it through the
        # spectral quadratic form; must reproduce the closed-form expectation
        p = 0.73
        kernel = build_kernel(build_params(20, 0.5, 0.4, p))
        n = kernel.size
        assert n == 10
        total = 0.0
        for idx in range(1 << n):
            bits = (idx >> np.arange(n)) & 1
            signs = 2.0 * bits - 1.0
            weight = p ** bits.sum() * (1 - p) ** (n - bits.sum())
            total += weight * mass_quadratic_form(kernel, signs)
        assert total == pytest.approx(exact_expectation(kernel), rel=1e-12)
        expected, _ = enumerate_moments(kernel, p)
        assert total == pytest.approx(expected, rel=1e-12)


class TestGridQuadrature:
    def test_single_direction_gives_cutoff_mass(self):
        params = build_params(64, 1 / 64, 0.5, 0.5)
        assert params.n_dirs == 1
        for sign in (1.0, -1.0):
            value = grid_quadrature_mass(params, np.array([sign]))
            assert value == pytest.approx(cutoff_mass(params), rel=1e-4)

    def test_self_convergence(self):
        params = build_params(64, 1, 0.5, 0.5)
        signs = sample_coefficients(params, 3)
        coarse = grid_quadrature_mass(params, signs, points_per_wavelength=12)
        fine = grid_quadrature_mass(params, signs, points_per_wavelength=24)
        assert abs(coarse - fine) <= 1e-4 * abs(fine)

    def test_refuses_infeasible_parameters(self):
        params = build_params(600, 1, 0.0, 0.5)
        with pytest.raises(ValueError):
            grid_quadrature_mass(params, np.ones(params.n_dirs))

    def test_refuses_large_frequency_ratio_on_refined_grid(self, monkeypatch):
        # the stub keeps a missed refusal from allocating the ~9169**2 grid
        def no_grid(*_):
            raise AssertionError("grid was evaluated instead of refused")
        monkeypatch.setattr(montecarlo, "_field_on_grid", no_grid)
        params = build_params(600, 1 / 600, 0.0, 0.5)
        with pytest.raises(ValueError, match="grid evaluation needs"):
            grid_quadrature_mass(params, np.ones(params.n_dirs),
                                 points_per_wavelength=24)


class TestMcMoments:
    def test_degenerate_coin_has_zero_spread(self, kernels):
        kernel = kernels(128, 2, 0.5, p=1.0)
        summary = mc_moments(kernel, 200, seed=0)
        assert summary["mc_var"] == 0.0
        assert summary["mc_mean"] == pytest.approx(
            exact_expectation(kernel), rel=1e-12)

    def test_estimates_cover_exact_moments(self, kernels):
        kernel = kernels(128, 2, 0.5, p=0.6)
        summary = mc_moments(kernel, 4000, seed=11)
        assert abs(summary["mc_mean"] - exact_expectation(kernel)) \
            <= 4 * summary["mc_se_mean"]
        assert abs(summary["mc_var"] - exact_variance(kernel)) \
            <= 5 * summary["mc_se_var"]

    def test_deterministic_given_seed(self, kernels):
        kernel = kernels(128, 2, 0.5, p=0.6)
        a = mc_moments(kernel, 300, seed=5)
        b = mc_moments(kernel, 300, seed=5)
        assert a == b

    def test_standard_error_shrinks_with_more_samples(self, kernels):
        kernel = kernels(64, 2, 0.5, p=0.5)
        ratios = []
        for seed in range(20):
            small = mc_moments(kernel, 400, seed=seed)
            large = mc_moments(kernel, 800, seed=1000 + seed)
            ratios.append(small["mc_se_mean"] / large["mc_se_mean"])
        assert abs(float(np.mean(ratios)) - math.sqrt(2.0)) <= 0.15 * math.sqrt(2.0)

    def test_mean_is_mean_of_single_sample_masses(self, kernels):
        kernel = kernels(65, 3, 0.5, p=0.3)
        seed = 19
        summary = mc_moments(kernel, 100, seed)
        masses = [mass_quadratic_form(
            kernel, sample_coefficients(kernel.params, seed, i))
            for i in range(100)]
        assert summary["mc_mean"] == pytest.approx(np.mean(masses),
                                                       rel=1e-13)

    @pytest.mark.parametrize("seed", [1.5, True, np.bool_(True), -1, 2 ** 64])
    def test_seed_is_never_coerced(self, kernels, seed):
        with pytest.raises(ValueError, match="seed"):
            mc_moments(kernels(64, 2, 0.5), 100, seed)

    def test_minimum_sample_count(self, kernels):
        with pytest.raises(ValueError):
            mc_moments(kernels(64, 2, 0.5), 10, seed=0)


class TestDarbouxProbe:
    def test_constant_integrand_has_no_error(self):
        params = build_params(64, 2, 0.5, 0.5)
        probe = darboux_error(params, [0.0], n_doublings=2)
        assert np.all(probe.riemann_errors == 0.0)
        assert np.all(probe.gaps == 0.0)

    def test_gap_decays_inversely_with_density(self):
        params = build_params(256, 8, 0.5, 0.5)
        probe = darboux_error(params, [params.ball_radius], n_doublings=4)
        assert probe.gap_exponents[0] == pytest.approx(-1.0, abs=0.1)

    def test_riemann_error_is_spectrally_small(self):
        # equispaced full-circle sums are exact on trig polynomials of degree
        # below N, so the plain sum error sits at machine noise
        params = build_params(128, 4, 0.5, 0.5)
        probe = darboux_error(params, [params.ball_radius], n_doublings=2)
        assert np.max(probe.riemann_errors) < 1e-10

    def test_gap_obeys_calibrated_rate(self):
        params = build_params(128, 8, 0.5, 0.5)
        x = params.ball_radius
        probe = darboux_error(params, [x], n_doublings=3)
        constant = probe.gaps[0, 0] * probe.gammas[0] * params.lam ** params.alpha
        for gamma, gap in zip(probe.gammas, probe.gaps[0]):
            assert gap <= 1.01 * constant / (gamma * params.lam ** params.alpha)

    def test_rejects_points_outside_support(self):
        params = build_params(64, 2, 0.5, 0.5)
        with pytest.raises(ValueError):
            darboux_error(params, [3.0 * params.ball_radius])


class TestDiscretisationProbe:
    def test_literal_error_is_negligible(self):
        probe = e1_error_norm(build_params(128, 8, 0.5, 0.5), n_doublings=2)
        assert np.max(probe.literal_norms) < 1e-8

    def test_pairwise_bound_gamma_exponent(self):
        probe = e1_error_norm(build_params(256, 8, 0.5, 0.5), n_doublings=2)
        assert 0.4 <= probe.gamma_exponent <= 1.1

    def test_ladder_self_consistency(self):
        probe = e1_error_norm(build_params(128, 8, 0.5, 0.5), n_doublings=2)
        measured = probe.pairwise_bound_norms[-1] / probe.pairwise_bound_norms[0]
        predicted = (probe.gammas[-1] / probe.gammas[0]) ** probe.gamma_exponent
        assert abs(measured - predicted) <= 0.2 * predicted

    def test_norm_scale_bounded_across_frequencies(self):
        # bound-norm / lam**((1-alpha)/2) stays within a fixed band
        scaled = []
        for lam in (64, 128, 256, 512):
            probe = e1_error_norm(build_params(lam, 8, 0.5, 0.5), n_doublings=0)
            scaled.append(probe.pairwise_bound_norms[0] / lam ** 0.25)
        assert max(scaled) / min(scaled) < 1.5
