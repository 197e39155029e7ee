import csv
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from biasedwave import (build_cutoff, build_directions, build_params, cli,
                        cutoff_mass, cutoff_value, decay_bound,
                        dyadic_sum_check, exact_expectation,
                        export_kernel_csv, oscint,
                        pair_integral, pair_integral_2d_oracle, run_sweep)
from biasedwave.cli import parse_config
from biasedwave.model import SUPPORT_RADIUS, _panel_rule
from biasedwave.oscint import (GL_ORDER, GL_REFINE_ORDER, S_CUT, TABLE_PANEL_WIDTH,
                               TABLE_PANELS, QuadratureError, _clenshaw, _table_panel,
                               build_kernel,
                               decay_constant, kernel_matrix,
                               profile_table, profile_table_source,
                               quarter_grid, reduced_pair_integral)


def profile_scale():
    """W(0) = 2*pi*m2, the profile's largest value."""
    return 2.0 * np.pi * build_cutoff()


def direct_profile(s_values):
    return np.array([reduced_pair_integral(s, GL_REFINE_ORDER) for s in s_values])


def full_grid_pair_integral(params, d):
    """The literal full-grid quadrature: h**2 * sum of a_lam**2 exp(i lam d x1)
    over every node, cos and sin parts both."""
    t, h, _, _ = quarter_grid(params)
    axis = np.concatenate([-t[:0:-1], t])
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    weight = cutoff_value(params.lam ** params.alpha * np.hypot(x1, x2)) ** 2
    phase = params.lam * d * x1
    return h * h * complex(np.sum(weight * np.cos(phase)),
                           np.sum(weight * np.sin(phase)))


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
        # each oracle evaluates one d; 72 entries, as many as the grid's half
        # axis, would broadcast into one number that mixes the separations
        params = build_params(64, 1, 0.3, 0.5)
        assert quarter_grid(params)[0].size == 72
        for oracle in (pair_integral, pair_integral_2d_oracle):
            for d in (np.linspace(0.0, 2.0, 72), np.array([0.1, 0.5]),
                      [0.5], [0.1, 0.5], np.array(0.5)):
                with pytest.raises(ValueError, match=r"\bd\b"):
                    oracle(params, d)

    @pytest.mark.parametrize("oracle", [pair_integral, pair_integral_2d_oracle])
    @pytest.mark.parametrize("d", [10 ** 400, -10 ** 400], ids=["big", "-big"])
    def test_refuses_an_int_beyond_the_float_range(self, oracle, d):
        with pytest.raises(ValueError, match=r"^d must be a finite real number"):
            oracle(build_params(64, 1, 0.5, 0.5), d)

    @pytest.mark.parametrize("s", [math.inf, math.nan, True, "3", 10 ** 400, -3.0, -1000],
                             ids=["inf", "nan", "bool", "str", "big", "-3", "-1000"])
    def test_reduced_pair_integral_refuses_s_by_name(self, s):
        # pair_integral passes s >= 0 only; the refusals used to come from
        # int(), bessel_j0 or np.empty, or not at all (True read as 1)
        match = "be >= 0" if s in (-3.0, -1000) else "be a finite real number"
        with pytest.raises(ValueError, match=f"^s must {match}"):
            reduced_pair_integral(s)

    def test_panel_rule_arrays_are_the_callers_own(self):
        # writing into a returned rule must not reach a later integral, as
        # it would through a cache that hands every caller the same arrays
        before = reduced_pair_integral(5.0)
        nodes, weights = _panel_rule(0.0, SUPPORT_RADIUS, oscint._panel_count(5.0),
                                     GL_ORDER)
        nodes[:] = 0.0
        weights[:] = 0.0
        assert reduced_pair_integral(5.0) == before

    def test_impossible_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(oscint, "PAIR_REL_TOL", 0.0)
        with pytest.raises(QuadratureError, match=r"d=0.0 \(s=0\)"):
            pair_integral(build_params(64, 1, 0.5, 0.5), 0.0)

    def test_lipschitz_in_separation(self):
        params = build_params(128, 1, 0.4, 0.5)
        integrate = pytest.importorskip("scipy.integrate")
        m3, _ = integrate.quad(lambda t: cutoff_value(t) ** 2 * t * t, 0.0, 2.0,
                               limit=100)
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

    @pytest.mark.parametrize("block", [oscint._BLOCK_NODES, 7])
    def test_unsorted_and_repeated_panels(self, block, monkeypatch):
        # a block of 7 splits panels and repeats across blocks
        monkeypatch.setattr(oscint, "_BLOCK_NODES", block)
        s = np.random.default_rng(8).uniform(0.0, 1.2 * S_CUT, 200)
        s = np.concatenate([s, s[::-1], s[:7]]).reshape(11, 37)
        one_by_one = np.array([profile_table(v) for v in s.ravel()]).reshape(s.shape)
        assert np.array_equal(profile_table(s), one_by_one)
        # every panel and the tail, shuffled together
        s = np.random.default_rng(9).permutation(np.linspace(0.0, 1.1 * S_CUT, 2000))
        panels = np.minimum(s // TABLE_PANEL_WIDTH, TABLE_PANELS)
        assert set(panels) == set(range(TABLE_PANELS + 1))
        one_by_one = np.array([profile_table(v) for v in s])
        assert np.array_equal(profile_table(s), one_by_one)

    def test_temporaries_stay_within_a_block(self):
        # eight blocks of arguments: the output, which holds |s| until each
        # panel writes W over it, and about 33 bytes of temporaries per block
        # argument; a block-sized copy of |s| beside the output would not fit
        s = np.random.default_rng(10).uniform(-1.1 * S_CUT, 1.1 * S_CUT,
                                              8 * oscint._BLOCK_NODES)
        tracemalloc.start()
        try:
            values = profile_table(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == s.shape
        assert peak < s.nbytes + 37 * oscint._BLOCK_NODES

    def test_sum_is_chebval_bit_for_bit(self, monkeypatch):
        # numpy's chebval is the oracle: the same Clenshaw operations in the
        # same order, so every table value must carry the same bits, whether
        # all pieces share one sub-block of _BLOCK_NODES // 16 arguments, the
        # walk crosses sub-block edges, or each argument is a sub-block (7 // 16
        # is 0, so one); the tail, S_CUT and infinity included, is +0.0
        for block, draws in ((oscint._BLOCK_NODES, 5_000), (oscint._BLOCK_NODES, 20_000),
                             (7, 500)):
            monkeypatch.setattr(oscint, "_BLOCK_NODES", block)
            rng = np.random.default_rng(37)
            edges = TABLE_PANEL_WIDTH * np.arange(TABLE_PANELS + 1)
            s = np.concatenate([rng.uniform(0.0, 1.05 * S_CUT, draws), edges,
                                np.nextafter(edges, -np.inf)[1:], [S_CUT, np.inf]])
            s = rng.permutation(np.concatenate([s, -s]))
            assert (s.size <= block // 16) == (draws == 5_000)
            clipped = np.minimum(np.abs(s), S_CUT)
            index = np.floor(clipped / TABLE_PANEL_WIDTH).astype(int)
            assert set(index) == set(range(TABLE_PANELS + 1))
            expected = np.zeros_like(s)  # +0.0 on the tail
            for k in range(TABLE_PANELS):
                x = clipped[index == k] / (0.5 * TABLE_PANEL_WIDTH) - (2 * k + 1)
                expected[index == k] = chebval(x, oscint._TABLE[k])
            assert profile_table(s).tobytes() == expected.tobytes()

    def test_clenshaw_sums_each_run_with_its_own_piece(self):
        # runs of 40, 0 and 61 arguments: the empty run takes no argument
        rng = np.random.default_rng(38)
        coef = rng.normal(size=(3, 4))
        x = rng.uniform(-1.0, 1.0, 101)
        expected = np.concatenate([chebval(x[:40], coef[0]), chebval(x[40:], coef[2])])
        assert _clenshaw(x, coef, [40, 0, 61]).tobytes() == expected.tobytes()

    def test_every_piece_matches_order_20_quadrature(self):
        # five s per panel, its left edge and the double below its right edge
        # included, against the direct rule sized as _table_panel sizes it
        worst = 0.0
        for k in range(TABLE_PANELS):
            s = TABLE_PANEL_WIDTH * (k + np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
            s[-1] = np.nextafter(s[-1], 0.0)
            npanels = oscint._panel_count(TABLE_PANEL_WIDTH * (k + 1))
            direct = oscint._rule_integrals(s, npanels, 20)
            worst = max(worst, float(np.max(np.abs(profile_table(s) - direct))))
        assert worst <= 5e-15 * profile_scale()
        assert oscint.TABLE_MAX_DRIFT <= 5e-15

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

    @pytest.mark.parametrize("s,match", [
        (True, "dtype bool"), (np.array([2.0, 3.0]) > 2.5, "dtype bool"),
        ("1", "dtype <U1"), (["1"], "dtype <U1"), ([1.0 + 0.0j], "dtype complex128"),
        ([[1.0], [1.0, 2.0]], "convert to one array")])
    def test_refuses_what_is_not_a_real_array(self, s, match):
        # W(1) would come back for each of these if s were coerced to float
        with pytest.raises(ValueError, match=f"^s must .*{re.escape(match)}"):
            profile_table(s)

    def test_kernels_do_no_quadrature(self, monkeypatch, tmp_path):
        def no_quadrature(*_):
            raise AssertionError("kernel assembly ran a quadrature")
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

    @pytest.mark.parametrize("lam,alpha", [(64, 0.3), (96, 0.5)])
    @pytest.mark.parametrize("d", [0.0, 0.11, 0.9, 2.0])
    def test_half_plane_fold_matches_full_grid(self, lam, alpha, d):
        # entries off each axis count twice per axis, and the sine part of
        # the full grid vanishes
        params = build_params(lam, 1, alpha, 0.5)
        literal = full_grid_pair_integral(params, d)
        assert abs(pair_integral_2d_oracle(params, d) - literal) <= (
            1e-13 * cutoff_mass(params))

    def test_peak_memory_is_bounded(self):
        # about seven doubles per node of the quarter grid x1, x2 >= 0
        params = build_params(256, 1, 0.3, 0.5)
        quarter_nodes = quarter_grid(params)[0].size ** 2
        tracemalloc.start()
        try:
            pair_integral_2d_oracle(params, 0.37)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * quarter_nodes

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
        with pytest.raises(ValueError, match="tensor grid would need"):
            pair_integral_2d_oracle(params, 0.5)

    def test_admits_the_largest_default_grid_with_its_largest_field(self):
        # lam**(1-alpha) 512 at 12 points per wavelength: 3913**2 nodes of at
        # most MAX_GRID_NODES, and 4096 directions on 1957 half-axis nodes,
        # 8015872 direction-node pairs of at most MAX_GRID_FIELD
        params = build_params(512, 1, 0.0, 0.5)
        t, _, r, window = quarter_grid(params, fields=(4096,))
        assert t.size == 1957
        assert r.shape == window.shape == (1957, 1957)
        assert (2 * t.size - 1) ** 2 <= oscint.MAX_GRID_NODES
        assert 4096 * t.size <= oscint.MAX_GRID_FIELD


    @pytest.mark.parametrize("points", [0, -12, 2.5, True, 12.0])
    def test_refuses_points_per_wavelength_that_is_not_a_positive_integer(self, points):
        params = build_params(64, 8, 0.5, 0.5)
        for call in (lambda: quarter_grid(params, points),
                     lambda: pair_integral_2d_oracle(params, 0.5, points)):
            with pytest.raises(ValueError, match="points_per_wavelength"):
                call()


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


    @pytest.mark.parametrize("d,match", [
        (-1.0, r"lie in \[0, 2\]"), (-64 ** -0.5, r"lie in \[0, 2\]"),
        (3.0, r"lie in \[0, 2\]"), (math.nan, "be finite, got nan"),
    ], ids=["-1.0", "-0.125", "3.0", "nan"])
    def test_rejects_separation_outside_zero_to_two(self, d, match):
        params = build_params(64, 8, 0.5, 0.5)
        for value in (d, np.array([0.0, d, 1.0])):
            with pytest.raises(ValueError, match=f"chord separation must {match}"):
                decay_bound(params, value, 2)

    def test_rejects_fractional_order(self):
        with pytest.raises(ValueError, match="decay order"):
            decay_constant(2.5)


class TestDyadicSum:
    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            dyadic_sum_check(build_params(64, 1, 0.5, 0.5), 1.9)

    def test_rejects_nan_exponent(self):
        with pytest.raises(ValueError, match="exponent A >= 2"):
            dyadic_sum_check(build_params(64, 1, 0.5, 0.5), math.nan)

    @pytest.mark.parametrize("a_exp", ["3", 10 ** 400, True, math.inf, [3.0], 2.0 + 0.0j])
    def test_refuses_an_exponent_that_is_not_one_real_number(self, a_exp):
        with pytest.raises(ValueError, match=r"^dyadic bound needs a finite real exponent A >= 2"):
            dyadic_sum_check(build_params(64, 1, 0.5, 0.5), a_exp)

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

    @pytest.mark.parametrize("lam,gamma,n", [(2, 0.5, 1), (2, 1, 2), (3, 1, 3),
                                             (64, 8, 512), (100.3, 8, 802),
                                             (512, 8, 4096)])
    def test_spectrum_is_the_mirror_symmetric_dft_of_the_row(self, lam, gamma, n):
        # rfft of the even row, mirrored: exactly symmetric, which the real
        # part of the complex FFT is not
        kernel = build_kernel(build_params(lam, gamma, 0.5, 0.5))
        assert kernel.size == n
        spectrum = kernel.spectrum
        assert np.array_equal(spectrum[1:], spectrum[1:][::-1])
        dft = np.fft.fft(kernel.values).real
        assert np.max(np.abs(spectrum - dft)) <= 1e-15 * np.max(np.abs(spectrum))

    def test_dense_matrix_refused_above_4096(self):
        kernel = build_kernel(build_params(4097, 1, 0.5, 0.5))
        with pytest.raises(ValueError, match="4096"):
            kernel_matrix(kernel)

    def test_off_diagonal_row_sum_scale_for_dense_directions(self, kernels):
        # full off-diagonal sum N * R against gamma**2 * lam**(1-alpha)
        for lam in (256, 512):
            kernel = kernels(lam, 8, 0.5)
            total = kernel.size * np.sum(kernel.values[1:])
            ratio = total / (8 ** 2 * lam ** 0.5)
            assert 0.2 <= ratio <= 10.0

    def test_spectrum_below_the_psd_floor_is_refused(self, tmp_path, monkeypatch):
        # the row [1, -0.9, ..., -0.9] has the eigenvalue 1 - 0.9 (N - 1) < 0
        monkeypatch.setattr(oscint, "profile_table",
                            lambda s: np.where(s == 0, 1.0, -0.9))
        with pytest.raises(RuntimeError, match="positive-semidefinite floor"):
            build_kernel(build_params(64, 1, 0.5, 0.5))
        doc = {"lambda_ladder": [64.0], "gamma": {"mode": "fixed", "values": [1]},
               "alpha_list": [0.5], "p_rule": {"mode": "fixed", "values": [0.5]},
               "output_stem": str(tmp_path / "run")}
        [row] = run_sweep(parse_config(doc)).rows
        assert row["error"].startswith("RuntimeError: kernel spectrum")
        assert "positive-semidefinite floor" in row["error"]

    @pytest.mark.parametrize("key", [
        # N 131072 to 10**6 near alpha 1, where a row error of eps * W(0)
        # moves an eigenvalue by up to N * eps * I_0; smallest eigenvalue / I_0
        # measured -4.11e-11, -5.17e-11, -6.86e-11, -2.99e-11 and -1.02e-11,
        # so each clears the floor -PSD_TOL * I_0 tenfold
        (20000, 32, 0.97), (31250, 32, 0.95), (62500, 16, 0.98), (20000, 32, 0.93),
        (16384, 8, 0.99)])
    def test_large_kernels_clear_the_psd_floor(self, key):
        kernel = build_kernel(build_params(*key, 0.5))
        assert kernel.size in (640_000, 1_000_000, 131_072)
        assert np.min(kernel.spectrum) >= -1e-10 * kernel.diagonal

    def test_table_drift_check_names_s(self, monkeypatch):
        monkeypatch.setattr(oscint, "PAIR_REL_TOL", 0.0)
        with pytest.raises(QuadratureError, match=r"at s=\d"):
            _table_panel(3)
        monkeypatch.undo()
        assert build_kernel(build_params(256, 2, 0.5, 0.5)).diagonal > 0.0

    @pytest.mark.parametrize("key", [(256, 8, 0.5), (65, 3, 0.3)])
    def test_coins_of_one_geometry_share_one_read_only_row(self, key, tmp_path,
                                                            monkeypatch):
        kernels = []
        report = cli.build_report

        def recorded(kernel, **kwargs):
            kernels.append(kernel)
            return report(kernel, **kwargs)

        monkeypatch.setattr(cli, "build_report", recorded)
        lam, gamma, alpha = key
        doc = {"lambda_ladder": [lam], "gamma": {"mode": "fixed", "values": [gamma]},
               "alpha_list": [alpha], "p_rule": {"mode": "fixed", "values": [0.5, 0.9]},
               "output_stem": str(tmp_path / "run")}
        run_sweep(parse_config(doc))
        fair, biased = kernels
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

    def test_refuses_a_row_of_the_wrong_shape(self):
        params = build_params(64, 1, 0.5, 0.5)  # N 64: separations k = 0..32
        [row] = oscint.profile_rows([params])
        assert np.array_equal(build_kernel(params, row).values,
                              build_kernel(params).values)
        for bad in (row[:-1], np.append(row, 0.0), row.reshape(1, -1), 1.0):
            with pytest.raises(ValueError, match=r"row must have shape \(33,\)"):
                build_kernel(params, bad)
        # a non-finite row passes the PSD floor check, since NaN < floor is False
        for value, match in ((np.nan, "row must be finite, got nan"),
                             (np.inf, "row must be finite, got inf"),
                             (-np.inf, "row must be finite, got -inf")):
            with pytest.raises(ValueError, match=match):
                build_kernel(params, np.where(np.arange(33) == 5, value, row))
        # a list or tuple of numbers is read like the array, shape and all
        for same in (row.tolist(), tuple(row), list(row)):
            assert np.array_equal(build_kernel(params, same).values,
                                  build_kernel(params).values)
        with pytest.raises(ValueError, match=r"row must have shape \(33,\)"):
            build_kernel(params, row.tolist()[:-1])
        with pytest.raises(ValueError, match="row must be finite, got nan"):
            build_kernel(params, row.tolist()[:-1] + [math.nan])
        # a complex row would lose its imaginary part, a bool row would be
        # read as 0 and 1, and strings and objects are no numbers at all
        for bad in (row + 0j, row.astype(complex) + 1e-3j, row > 0.0,
                    [True] * 33, "row", ["1.0"] * 33, [None] * 33):
            with pytest.raises(ValueError, match="row must hold integers or floats"):
                build_kernel(params, bad)
        # numpy cannot make one array of a ragged nest of sequences
        for bad in ([[1.0, 1.0], [1.0]], [1.0] * 32 + [[1.0]], [row, row[:-1]]):
            with pytest.raises(ValueError, match=r"row must convert to one array "
                                                 r"of shape \(33,\): "):
                build_kernel(params, bad)

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

    @pytest.mark.parametrize("key,parity", [((64, 1, 0.5), 0), ((65, 3, 0.3), 1)],
                             ids=["even", "odd"])
    def test_csv_export_bytes(self, kernels, tmp_path, key, parity):
        # decimal k, 17 significant digits in every float cell, LF line ends
        kernel = kernels(*key)
        assert kernel.size % 2 == parity
        path = tmp_path / "kernel.csv"
        export_kernel_csv(kernel, path)
        chord = build_directions(kernel.params).chord
        expected = "k,d_k,I_k,mu_k\n" + "".join(
            f"{k},{chord[k]:.16e},{kernel.values[k]:.16e},{kernel.spectrum[k]:.16e}\n"
            for k in range(kernel.size))
        assert path.read_bytes() == expected.encode()
