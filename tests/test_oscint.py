import csv
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from biasedwave import (build_cutoff, build_directions, build_params,
                        cutoff_mass, cutoff_value, decay_bound,
                        dyadic_sum_check, exact_expectation,
                        export_kernel_csv, oscint,
                        pair_integral, pair_integral_2d_oracle,
                        pair_integral_2d_parts, run_sweep)
from biasedwave.cli import parse_config
from biasedwave.oscint import (GL_REFINE_ORDER, S_CUT, TABLE_PANELS,
                               QuadratureError, _table_panel, build_kernel,
                               decay_constant, kernel_matrix, profile_table,
                               profile_table_source, reduced_pair_integral)


def profile_scale():
    """W(0) = 2*pi*m2, the profile's largest value."""
    return 2.0 * np.pi * build_cutoff()


def direct_profile(s_values):
    return np.array([reduced_pair_integral(s, GL_REFINE_ORDER) for s in s_values])


class TestPairIntegral:
    @pytest.mark.parametrize("lam,alpha", [(64, 0.0), (64, 0.5), (512, 0.3), (100, 0.8)])
    def test_zero_separation_equals_cutoff_mass(self, lam, alpha):
        params = build_params(lam, 1, alpha, 0.5)
        assert pair_integral(params, 0.0) == pytest.approx(
            cutoff_mass(params), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @pytest.mark.parametrize("d", [0.0, 0.02, 0.11, 0.5, 1.37, 2.0])
    def test_matches_planar_grid_oracle(self, alpha, d):
        params = build_params(64, 1, alpha, 0.5)
        scale = cutoff_mass(params)
        direct = pair_integral_2d_oracle(params, d)
        assert abs(pair_integral(params, d) - direct) <= 1e-6 * scale

    def test_rejects_out_of_range_separation(self):
        params = build_params(64, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            pair_integral(params, -0.1)
        with pytest.raises(ValueError):
            pair_integral(params, 2.5)

    def test_impossible_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(oscint, "PAIR_REL_TOL", 0.0)
        with pytest.raises(QuadratureError, match=r"d=0.0 \(s=0\)"):
            pair_integral(build_params(64, 1, 0.5, 0.5), 0.0)

    def test_lipschitz_in_separation(self):
        params = build_params(128, 1, 0.4, 0.5)
        m3, _ = quad(lambda t: cutoff_value(t) ** 2 * t * t, 0.0, 2.0, limit=100)
        lip = 2 * np.pi * params.lam ** (1 - 3 * params.alpha) * m3
        grid = np.linspace(0.0, 2.0, 160)
        vals = [pair_integral(params, d) for d in grid]
        steps = np.abs(np.diff(vals)) / np.diff(grid)
        assert np.max(steps) <= lip * (1 + 1e-6)


class TestProfileTable:
    def test_matches_direct_quadrature(self):
        s = np.random.default_rng(5).uniform(0.0, S_CUT, 300)
        direct = direct_profile(s)
        assert np.max(np.abs(profile_table(s) - direct)) <= 1e-13 * profile_scale()

    def test_zero_tail_is_below_roundoff(self):
        s = np.random.default_rng(6).uniform(S_CUT, 2.0 * S_CUT, 64)
        direct = direct_profile(s)
        assert np.max(np.abs(direct)) <= 1e-15 * profile_scale()
        assert np.all(profile_table(s) == 0.0)

    def test_committed_table_regenerates_byte_for_byte(self):
        committed = Path(oscint.__file__).with_name("_wtable.py").read_text()
        if profile_table_source() != committed:
            pytest.fail("src/biasedwave/_wtable.py differs from the table "
                        f"_table_panel generates; rewrite it with\n{oscint._REGENERATE}")

    def test_zero_tail_is_verified_when_first_read(self, monkeypatch):
        monkeypatch.setattr(oscint, "PAIR_REL_TOL", 0.0)
        with pytest.raises(QuadratureError, match=r"at s=\d"):
            _table_panel(TABLE_PANELS)
        monkeypatch.undo()
        assert np.all(profile_table([S_CUT, 1.5 * S_CUT, 3.0 * S_CUT]) == 0.0)

    def test_nan_is_refused_and_infinity_is_in_the_tail(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            profile_table([1.0, np.nan])
        assert np.all(profile_table([np.inf, -np.inf, S_CUT]) == 0.0)
        assert profile_table(np.inf) == 0.0 and isinstance(profile_table(np.inf), float)
        assert profile_table(-5.0) == profile_table([5.0])[0]
        grid = np.array([[1.0, 2.0], [3.0, 700.0]])
        assert np.array_equal(profile_table(grid),
                              profile_table(grid.ravel()).reshape(2, 2))

    def test_kernels_do_no_quadrature(self, monkeypatch, tmp_path):
        def no_quadrature(*_):
            raise AssertionError("kernel assembly ran a quadrature")
        oscint._geometry_row.cache_clear()  # no kernel built by an earlier test
        monkeypatch.setattr(oscint, "_rule_integrals", no_quadrature)
        monkeypatch.setattr(oscint, "_table_panel", no_quadrature)
        keys = [(lam, 8, alpha) for lam in (64, 128, 256, 512, 1024, 2048)
                for alpha in (0.3, 0.5, 0.7)] + [(4096, 8, 0.3)]
        for key in keys:
            assert build_kernel(build_params(*key, 0.5)).diagonal > 0.0
        doc = {"lambda_ladder": [64.0, 128.0], "gamma": {"mode": "fixed", "values": [8]},
               "alpha_list": [0.5], "p_rule": {"mode": "fixed", "values": [0.5]},
               "mc_samples": 0, "seed": 0, "output_stem": str(tmp_path / "run")}
        result = run_sweep(parse_config(doc))
        assert [row["error"] for row in result.rows] == ["", ""]


class TestPlanarOracle:
    def test_zero_separation(self):
        params = build_params(96, 1, 0.5, 0.5)
        assert pair_integral_2d_oracle(params, 0.0) == pytest.approx(
            cutoff_mass(params), rel=1e-4)

    def test_self_convergence_under_refinement(self):
        params = build_params(64, 1, 0.5, 0.5)
        coarse = pair_integral_2d_oracle(params, 0.73, points_per_wavelength=12)
        fine = pair_integral_2d_oracle(params, 0.73, points_per_wavelength=24)
        assert abs(coarse - fine) <= 1e-5 * abs(fine)

    def test_imaginary_part_vanishes(self):
        params = build_params(64, 1, 0.3, 0.5)
        _, sin_part = pair_integral_2d_parts(params, 0.9)
        assert abs(sin_part) < 1e-8 * cutoff_mass(params)

    def test_refuses_oversized_grid(self):
        params = build_params(20_000, 0.01, 0.0, 0.5)
        with pytest.raises(ValueError):
            pair_integral_2d_oracle(params, 0.5)

    def test_refuses_large_frequency_ratio(self, monkeypatch):
        # the stub keeps a missed refusal from summing the ~7641**2 grid
        def no_grid(*_):
            raise AssertionError("grid was evaluated instead of refused")
        monkeypatch.setattr(oscint, "cutoff_value", no_grid)
        params = build_params(1000, 0.01, 0.0, 0.5)
        with pytest.raises(ValueError, match="grid evaluation needs"):
            pair_integral_2d_parts(params, 0.5)


class TestDecayBound:
    def test_zero_separation_gives_constant_times_volume_scale(self):
        params = build_params(128, 1, 0.5, 0.5)
        c2 = decay_constant(2)
        assert decay_bound(params, 0.0, 2) == pytest.approx(
            c2 * params.lam ** (-2 * params.alpha), rel=1e-14)

    def test_monotone_in_separation_and_order(self):
        params = build_params(256, 1, 0.5, 0.5)
        ds = np.linspace(0.0, 2.0, 50)
        for n in (2, 3, 4):
            vals = decay_bound(params, ds, n)
            assert np.all(np.diff(vals) < 0)
        beyond = ds[ds > params.separation_scale]
        b2 = decay_bound(params, beyond, 2)
        b3 = decay_bound(params, beyond, 3)
        b4 = decay_bound(params, beyond, 4)
        assert np.all(b3 <= b2) and np.all(b4 <= b3)

    @pytest.mark.parametrize("d_factor", [64.0, 128.0, 500.0])
    def test_bounds_pair_integral_well_separated(self, d_factor):
        params = build_params(256, 1, 0.5, 0.5)
        d = min(d_factor * params.separation_scale, 2.0)
        assert abs(pair_integral(params, d)) <= decay_bound(params, d, 4)

    def test_bounds_pair_integral_spot_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lam = float(rng.uniform(32, 512))
            alpha = float(rng.uniform(0.0, 0.9))
            params = build_params(lam, 1, alpha, 0.5)
            d = float(rng.uniform(0.0, 2.0))
            value = abs(pair_integral(params, d))
            for n in (2, 3, 4):
                assert value <= decay_bound(params, d, n)

    def test_rejects_orders_outside_table(self):
        params = build_params(64, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            decay_bound(params, 0.5, -1)
        with pytest.raises(ValueError):
            decay_bound(params, 0.5, 9)


class TestDyadicSum:
    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            dyadic_sum_check(build_params(64, 1, 0.5, 0.5), 1.9)

    def test_four_direction_enumeration(self):
        # N=4, lam=4, alpha=0: chords (sqrt2, 2, sqrt2), scale lam**-1 = 1/4
        params = build_params(4, 1, 0.0, 0.5)
        for a_exp in (2, 3, 4):
            expected = 2 * (1 + 4 * math.sqrt(2)) ** -a_exp + 9.0 ** -a_exp
            total, ratio = dyadic_sum_check(params, a_exp)
            assert total == pytest.approx(expected, rel=1e-13)
            assert ratio == pytest.approx(expected, rel=1e-13)  # gamma*lam**alpha = 1

    def test_termwise_monotone_in_exponent(self):
        params = build_params(512, 4, 0.5, 0.5)
        s2, _ = dyadic_sum_check(params, 2)
        s3, _ = dyadic_sum_check(params, 3)
        s4, _ = dyadic_sum_check(params, 4)
        assert s4 <= s3 <= s2

    def test_ratio_uniformly_bounded(self):
        ratios = []
        for lam in (64, 128, 256, 1024):
            for gamma in (1, 4):
                for alpha in (0.3, 0.7):
                    for a_exp in (2, 4):
                        params = build_params(lam, gamma, alpha, 0.5)
                        ratios.append(dyadic_sum_check(params, a_exp)[1])
        assert max(ratios) < 0.4


class TestKernel:
    def test_trace_identity(self, kernels):
        kernel = kernels(256, 2, 0.5)
        trace = np.sum(kernel.spectrum)
        assert trace == pytest.approx(kernel.size * kernel.diagonal, rel=1e-8)

    def test_spectrum_nonnegative(self, kernels):
        for key in [(128, 1, 0.3), (256, 2, 0.5), (64, 8, 0.7)]:
            kernel = kernels(*key)
            assert np.min(kernel.spectrum) >= -1e-9 * kernel.diagonal

    def test_row_mirror_symmetry(self, kernels):
        kernel = kernels(128, 1, 0.3)
        n = kernel.size
        assert np.array_equal(kernel.values[1:], kernel.values[1:][::-1])
        assert n == 128

    def test_entries_dominated_by_diagonal(self, kernels):
        kernel = kernels(256, 2, 0.5)
        assert np.max(np.abs(kernel.values[1:])) <= kernel.diagonal

    @pytest.mark.parametrize("n_dirs", [2, 5, 8])
    def test_small_kernels_match_dense_eigensolver(self, n_dirs):
        params = build_params(8, n_dirs / 8.0, 0.3, 0.5)
        assert params.n_dirs == n_dirs
        kernel = build_kernel(params)
        dense = np.linalg.eigvalsh(kernel_matrix(kernel))
        assert np.allclose(np.sort(kernel.spectrum), dense,
                           atol=1e-8 * kernel.diagonal)

    def test_off_diagonal_row_sum_scale_for_dense_directions(self, kernels):
        # full off-diagonal sum N * R against gamma**2 * lam**(1-alpha)
        for lam in (256, 512):
            kernel = kernels(lam, 8, 0.5)
            total = kernel.size * np.sum(kernel.values[1:])
            ratio = total / (8 ** 2 * lam ** 0.5)
            assert 0.2 <= ratio <= 10.0

    def test_table_drift_check_names_s(self, monkeypatch):
        monkeypatch.setattr(oscint, "PAIR_REL_TOL", 0.0)
        with pytest.raises(QuadratureError, match=r"at s=\d"):
            _table_panel(3)
        monkeypatch.undo()
        assert build_kernel(build_params(256, 2, 0.5, 0.5)).diagonal > 0.0

    @pytest.mark.parametrize("key", [(256, 8, 0.5), (65, 3, 0.3)])
    def test_coins_of_one_geometry_share_one_read_only_row(self, key):
        fair = build_kernel(build_params(*key, 0.5))
        biased = build_kernel(build_params(*key, 0.9))
        assert fair.values is biased.values and fair.spectrum is biased.spectrum
        assert not fair.values.flags.writeable and not fair.spectrum.flags.writeable
        assert (fair.params.p, biased.params.p) == (0.5, 0.9)
        assert exact_expectation(biased) > exact_expectation(fair)
        # the shared row is the table read at the chords of build_directions
        lam, alpha, half = fair.params.lam, fair.params.alpha, fair.size // 2
        chord = build_directions(fair.params).chord[:half + 1]
        assert np.array_equal(fair.values[:half + 1], lam ** (-2.0 * alpha)
                              * profile_table(lam ** (1.0 - alpha) * chord))

    def test_refuses_oversized_kernel(self):
        params = build_params(2e5, 10, 0.5, 0.5)
        with pytest.raises(ValueError):
            build_kernel(params)

    def test_csv_export_round_trips(self, kernels, tmp_path):
        kernel = kernels(64, 1, 0.5)
        path = tmp_path / "kernel.csv"
        export_kernel_csv(kernel, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == kernel.size
        chord = build_directions(kernel.params).chord
        for k in (0, 1, kernel.size // 2, kernel.size - 1):
            assert float(rows[k]["I_k"]) == kernel.values[k]
            assert float(rows[k]["mu_k"]) == kernel.spectrum[k]
            assert float(rows[k]["d_k"]) == chord[k]
