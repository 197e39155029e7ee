import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from biasedwave import (build_params, cutoff_mass, darboux_error, e1_error_norm,
                        enumerate_moments, exact_expectation, exact_variance,
                        grid_quadrature_mass, mass_double_sum,
                        mass_quadratic_form, mc_moments, pair_integral_2d_oracle,
                        sample_coefficients)
from biasedwave import montecarlo, oscint
from biasedwave.model import build_directions, cutoff_value
from biasedwave.oscint import build_kernel, kernel_matrix, quarter_grid
from biasedwave.specfun import bessel_j0


def full_axis(params):
    """The symmetric 2m + 1 node axis that quarter_grid's half axis t folds,
    with the step h."""
    t, h, _, _ = quarter_grid(params)
    return np.concatenate([-t[:0:-1], t]), h


def full_grid_field(params, signs):
    """The literal field u on every grid node: two exp phase arrays and one
    complex GEMM over all N directions."""
    axis, _ = full_axis(params)
    unit = build_directions(params).unit_vectors
    phase_x = np.exp(1j * params.lam * np.outer(axis, unit[:, 0]))
    phase_y = np.exp(1j * params.lam * np.outer(axis, unit[:, 1]))
    return (phase_x * signs[None, :]) @ phase_y.T


def full_grid_mass(params, signs):
    """The literal full-grid quadrature: h**2 * sum of a_lam**2 |u|**2 over
    every node of full_grid_field."""
    axis, h = full_axis(params)
    u = full_grid_field(params, signs)
    r = np.hypot(axis[:, None], axis[None, :])
    weight = cutoff_value(params.lam ** params.alpha * r) ** 2
    return h * h * float(np.sum(weight * (u.real ** 2 + u.imag ** 2)))


def advanced_signs(seed, i, n, threshold):
    """Sample i of seed by the stream contract, from a fresh PCG64DXSM advanced
    to its own first word: the low, then the high 32 bits of each of its
    ceil(n / 2) words, +1 below threshold."""
    words = -(-n // 2)
    bitgen = np.random.PCG64DXSM(seed)
    bitgen.advance(i * words)
    raw = bitgen.random_raw(words)
    return np.where(raw.astype("<u8", copy=False).view("<u4")[:n] < threshold, 1.0, -1.0)


def sequential_signs(seed, count, n, threshold):
    """Samples 0 .. count - 1 of seed from one sequential random_raw of
    PCG64DXSM(seed), with no advance: row i holds words i * M ... (i + 1) * M - 1
    for M = ceil(n / 2)."""
    words = -(-n // 2)
    raw = np.random.PCG64DXSM(seed).random_raw(count * words)
    halves = raw.astype("<u8", copy=False).view("<u4").reshape(count, 2 * words)[:, :n]
    return np.where(halves < threshold, 1.0, -1.0)


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
        monkeypatch.setattr(oscint, "_BLOCK_NODES", 5 * n)
        kernel = kernels(n / 3, 3, 0.5, p=p)
        assert kernel.size == n
        threshold = math.ceil(p * 2 ** 32)
        expected = np.array([advanced_signs(seed, i, n, threshold) for i in range(3, 13)])
        assert np.array_equal(sequential_signs(seed, 13, n, threshold)[3:], expected)
        block = montecarlo._keyed_signs(seed, 3, np.empty((10, n)), p)
        assert np.array_equal(block, expected)
        for i in (3, 12):
            assert np.array_equal(
                sample_coefficients(kernel.params, seed, i),
                expected[i - 3])
        # the pool fills blocks in no fixed order: key each by its first sample
        blocks = {}
        keyed_signs = montecarlo._keyed_signs

        def record(seed_, start, out, p_):
            blocks[start] = keyed_signs(seed_, start, out, p_).copy()
            return out
        monkeypatch.setattr(montecarlo, "_keyed_signs", record)
        mc_moments(kernel, 100, seed)
        stream = [blocks[start] for start in sorted(blocks)]
        assert sorted(blocks) == list(range(0, 100, 5))
        assert [len(b) for b in stream] == [5] * 20
        assert np.array_equal(np.concatenate(stream)[3:13], expected)

    @pytest.mark.parametrize("block_nodes", [8, 3 * 8 * 2048, oscint._BLOCK_NODES])
    @pytest.mark.parametrize("n,start", [(195, 3), (4096, 2 ** 64 - 5)])
    @pytest.mark.parametrize("p,threshold", [(0.0, 0), (0.5, 2 ** 31), (0.37, 1589137900),
                                             (1.0, 2 ** 32)])
    def test_samples_sit_end_to_end_in_one_stream(self, monkeypatch, block_nodes, n,
                                                  start, p, threshold):
        # the chunks hold one row, three rows (at n = 4096) or the whole block; the
        # last sample at n = 4096 is 2**64 - 1, whose first word is past 2**74
        monkeypatch.setattr(oscint, "_BLOCK_NODES", block_nodes)
        block = montecarlo._keyed_signs(811, start, np.empty((5, n)), p)
        expected = [advanced_signs(811, i, n, threshold) for i in range(start, start + 5)]
        assert np.array_equal(block, expected)
        if start < 5:
            assert np.array_equal(sequential_signs(811, start + 5, n, threshold)[start:],
                                  expected)

    def test_sign_pairs_follow_the_product_law(self):
        # two signs share a word: the (low, high) pairs of 102400 words and the
        # pairs across each word boundary must be independent draws of the coin
        signs = montecarlo._keyed_signs(33, 0, np.empty((50, 4096)), 0.37) > 0.0
        q = 1589137900 / 2 ** 32
        for first, second in [(signs[:, 0::2], signs[:, 1::2]),
                              (signs[:, 1:-1:2], signs[:, 2::2])]:
            assert first.size >= 10 ** 5
            for a in (False, True):
                for b in (False, True):
                    prob = (q if a else 1.0 - q) * (q if b else 1.0 - q)
                    freq = float(np.mean((first == a) & (second == b)))
                    assert abs(freq - prob) <= 5.0 * math.sqrt(prob * (1.0 - prob) / first.size)

    def test_no_os_entropy_is_drawn(self, kernels, monkeypatch):
        import secrets
        import numpy.random.bit_generator as bit_generator

        def boom(*args, **kwargs):
            raise AssertionError("OS entropy drawn")
        monkeypatch.setattr(os, "urandom", boom)
        for name in ("randbits", "token_bytes", "token_hex", "randbelow", "choice"):
            monkeypatch.setattr(secrets, name, boom)
        # SeedSequence draws fresh entropy through its own module's randbits
        monkeypatch.setattr(bit_generator, "randbits", boom)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.SeedSequence()
        kernel = kernels(64, 2, 0.5, p=0.37)
        montecarlo._keyed_signs(7, 3, np.empty((4, kernel.size)), 0.37)
        sample_coefficients(kernel.params, 2 ** 64 - 1, 2 ** 64 - 1)
        mc_moments(kernel, 100, 7)

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

    def test_double_sum_matches_dense_form_and_lag_loop_at_odd_n(self, kernels):
        # N 195 has no Nyquist lag; real non-sign coefficients weight every lag
        kernel = kernels(65, 3, 0.5)
        n = kernel.size
        assert n == 195
        c = np.random.default_rng(195).standard_normal(n)
        value = mass_double_sum(kernel, c)
        assert value == pytest.approx(float(c @ kernel_matrix(kernel) @ c), rel=1e-12)
        ext = np.concatenate([c, c])
        loop = 0.0
        for k in range(n):  # the per-lag loop: np.roll(c, k) is ext[n - k:2n - k]
            loop += kernel.values[k] * float(c @ ext[n - k:2 * n - k])
        assert abs(value - loop) <= 1e-14 * abs(loop)

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

    @pytest.mark.parametrize("lam,gamma", [(65, 3), (43, 7), (256, 8), (512, 8)])
    def test_masses_do_not_depend_on_the_block_shape(self, kernels, lam, gamma):
        # N 195, 301 (odd), 2048 and 4096: every slice of one to five rows, and
        # every single sample, gives the full block's masses bit for bit
        kernel = kernels(lam, gamma, 0.5, p=0.37)
        n = kernel.size
        assert n == lam * gamma
        signs = montecarlo._keyed_signs(33, 0, np.empty((64, n)), 0.37)
        full = montecarlo._block_masses(kernel, signs)
        for rows in range(1, 6):
            for first in (0, 7, 21, 38, 50, 64 - rows):
                assert np.array_equal(
                    montecarlo._block_masses(kernel, signs[first:first + rows]),
                    full[first:first + rows]), (rows, first)
        assert [mass_quadratic_form(kernel, c) for c in signs] == full.tolist()

    def test_size_mismatch_rejected(self, kernels):
        kernel = kernels(128, 2, 0.5)
        with pytest.raises(ValueError):
            mass_quadratic_form(kernel, np.ones(kernel.size - 1))

    @pytest.mark.parametrize("entry", ["quadratic_form", "double_sum", "grid"])
    @pytest.mark.parametrize("coeffs,message", [
        (["1", "-1"] * 4, "integers or floats, got dtype <U2"),
        ([True, False] * 4, "integers or floats, got dtype bool"),
        ([1.0, math.nan] * 4, "finite, got nan"),
        ([1.0, math.inf] * 4, "finite, got inf"),
        ([[1.0, -1.0] * 4], r"shape \(8,\) for 8 directions, got shape \(1, 8\)"),
        ([1.0, [1.0, -1.0]] + [1.0] * 6, r"convert to one array of shape \(8,\)"),
    ], ids=["strings", "bools", "nan", "inf", "shape", "ragged"])
    def test_refuses_bad_coefficients(self, kernels, entry, coeffs, message):
        kernel = kernels(8, 1, 0.5)
        assert kernel.size == 8
        mass = {"quadratic_form": lambda c: mass_quadratic_form(kernel, c),
                "double_sum": lambda c: mass_double_sum(kernel, c),
                "grid": lambda c: grid_quadrature_mass(kernel.params, c)}[entry]
        with pytest.raises(ValueError, match=f"coeffs must .*{message}"):
            mass(coeffs)
        signs = np.array([1, -1, -1, 1, 1, 1, -1, 1])  # integer signs stay accepted
        assert mass(signs) == mass(signs.astype(float))

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

    @pytest.mark.parametrize("gamma,n", [(4, 256), (4 + 1 / 64, 257)])
    @pytest.mark.parametrize("biased", [True, False])
    def test_half_plane_fold_matches_full_grid(self, gamma, n, biased):
        # the quarter-plane fold: entries off each axis count twice per axis
        params = build_params(64, gamma, 0.3, 0.37)
        assert params.n_dirs == n
        signs = sample_coefficients(params, 31) if biased else np.ones(n)
        assert grid_quadrature_mass(params, signs) == pytest.approx(
            full_grid_mass(params, signs), rel=1e-13)

    @pytest.mark.parametrize("lam,n", [
        pytest.param(64, 256, id="256"), pytest.param(64, 258, id="258"),
        pytest.param(64, 257, id="257"), pytest.param(1024, 64, id="lam1024-64"),
        pytest.param(1024, 66, id="lam1024-66"), pytest.param(1024, 65, id="lam1024-65")]
        + [pytest.param(64, n, id=str(n)) for n in (1, 2, 3, 4, 5, 6, 7, 8, 10)])
    @pytest.mark.parametrize("biased", [True, False])
    def test_quarter_blocks_rebuild_the_field_on_every_quadrant(self, lam, n, biased):
        # N = 0 and 2 (mod 4) fold antipodal directions; odd N uses every one.
        # The slots then pair with their mirror images: N = 1 and 2 have no
        # partner, N = 4 and 8 keep theta = 0 and pi/2 unpaired, and N mod 4
        # takes every residue.  At lam 1024 the phases reach about 256 rad and
        # the half axis has 490 nodes, so the last block of the angle-addition
        # tables is ragged.  A window of ones keeps every column of every row
        # block
        params = build_params(lam, n / lam, 0.3, 0.37)
        assert params.n_dirs == n
        signs = sample_coefficients(params, 31) if biased else np.ones(n)
        t, _, _, _ = quarter_grid(params)
        power = montecarlo._grid_power(params, signs, t, np.ones((t.size, t.size)))
        m = t.size - 1
        u = full_grid_field(params, signs)
        # |u|**2 on the four quadrants, each read from (|x1|, |x2|): the folded
        # power is their mean, and real signs make |u(-x)| = |u(x)|
        images = [np.abs(u[m:, m:]) ** 2, np.abs(u[m:, m::-1]) ** 2,
                  np.abs(u[m::-1, m:]) ** 2, np.abs(u[m::-1, m::-1]) ** 2]
        # |u| <= n and u is within 1e-12 n, so |u|**2 is within 2e-12 n**2
        assert np.max(np.abs(power - sum(images) / 4)) <= 2e-12 * n * n
        for got, want in [(images[0], images[3]), (images[1], images[2])]:
            assert np.max(np.abs(got - want)) <= 2e-12 * n * n

    @pytest.mark.parametrize("lam,n", [(64, 256), (64, 257), (1024, 64), (1024, 65)])
    def test_row_blocks_do_not_change_the_power(self, monkeypatch, lam, n):
        # a budget of 1 walks the half axis in blocks of one angle-addition
        # step: eight of 9 rows at lam 64, 22 of 23 rows at lam 1024 (the last
        # ragged), each GEMM stopping at its own last column in the window
        params = build_params(lam, n / lam, 0.3, 0.37)
        signs = sample_coefficients(params, 31)
        t, _, _, window = quarter_grid(params)
        whole = montecarlo._grid_power(params, signs, t, window)
        everywhere = montecarlo._grid_power(params, signs, t, np.ones_like(window))
        live = window > 0.0
        assert np.array_equal(whole[live], everywhere[live])
        # smaller GEMMs may round differently, so the blocked power agrees to
        # rounding on the window and is 0 beyond each block's last live column
        monkeypatch.setattr(oscint, "_BLOCK_NODES", 1)
        blocked = montecarlo._grid_power(params, signs, t, window)
        assert np.max(np.abs(blocked - whole)[live]) <= 1e-14 * np.max(whole)
        assert np.all(blocked[:, -1] == 0.0)

    @pytest.mark.parametrize("q", [1, 2, 16, 17, 490])
    def test_angle_addition_matches_the_direct_tables(self, q):
        # 490 = 22 * 23 - 16: a ragged last block of K = 23 rows
        h = 2.0 * np.pi / 1024 / 12
        t = h * np.arange(q)
        f = 1024 * np.cos(np.linspace(0.0, np.pi, 41))
        step, table = montecarlo._angle_addition(t, f)
        assert step == math.isqrt(q - 1) + 1
        for sine, trig in [(False, np.cos), (True, np.sin)]:
            fill = table(sine)
            got = fill(np.empty((q, f.size)))
            want = trig(np.outer(h * np.arange(q), f))
            # a block of rows from the second step on is the same rows
            assert np.array_equal(fill(np.empty((q - step, f.size)), first=step),
                                  got[step:])
            # a weight scales each column of the table, to rounding of the
            # products of magnitude up to 2
            weight = np.linspace(-2.0, 2.0, f.size)
            assert np.max(np.abs(table(sine, weight)(np.empty((q, f.size)))
                                 - got * weight), initial=0.0) <= 2e-15
            # rows k = 0, K, 2K, ... take one coarse row times cos 0 = 1
            # and sin 0 = 0, so they equal the direct table bit for bit
            assert np.array_equal(got[::step], want[::step])
            # elsewhere both round a phase of up to 256 rad (ulp 5.7e-14)
            assert np.max(np.abs(got - want), initial=0.0) <= 2e-13

    @pytest.mark.parametrize("n,biased,tables", [(64, False, 2), (65, False, 3),
                                                  (64, True, 6), (65, True, 6)])
    def test_all_zero_weights_leave_their_rows_out(self, monkeypatch, n, biased, tables):
        # all-ones signs give d = 0 on even N, so only A's rows and the cos b
        # table are filled, and equal mirror partners on odd N, so C = D = 0
        # and the sin b pass is skipped; biased signs fill the two x2 tables
        # and four weighted a tables.  Each fill is one einsum per
        # angle-addition step: 22 steps of the 490 rows at lam 1024
        params = build_params(1024, n / 1024, 0.3, 0.37)
        signs = sample_coefficients(params, 31) if biased else np.ones(n)
        t = quarter_grid(params)[0]
        einsum, count = np.einsum, [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return einsum(*args, **kwargs)
        monkeypatch.setattr(np, "einsum", counted)
        montecarlo._grid_power(params, signs, t, np.ones((t.size, t.size)))
        monkeypatch.undo()
        assert count[0] == tables * 22

    def test_a_shift_keeps_the_rows_of_a_zero_a_weight(self):
        # signs (1, -1) give s = 0: A is 0, and a shift enters as (0 - shift)**2
        params = build_params(64, 2 / 64, 0.3, 0.37)
        t = quarter_grid(params)[0]
        window, shift = np.ones((t.size, t.size)), np.full((t.size, t.size), 0.5)
        signs = np.array([1.0, -1.0])
        bare = montecarlo._grid_power(params, signs, t, window)
        shifted = montecarlo._grid_power(params, signs, t, window, shift)
        assert np.array_equal(shifted, bare + 0.25)

    def test_field_evaluates_few_trig_values(self, monkeypatch):
        params = build_params(1024, 64 / 1024, 0.3, 0.5)
        t = quarter_grid(params)[0]
        n, q = params.n_dirs, t.size
        assert (n, q) == (64, 490)
        count = [0]

        def counted(trig):
            def call(x, *args, **kwargs):
                count[0] += np.size(x)
                return trig(x, *args, **kwargs)
            return call
        monkeypatch.setattr(np, "cos", counted(np.cos))
        monkeypatch.setattr(np, "sin", counted(np.sin))
        montecarlo._grid_power(params, np.ones(n), t, np.ones((q, q)))
        monkeypatch.undo()
        # direct tables would evaluate 2 q N: cos and sin of q x N/2 phases
        # on each axis; the mirror pairs leave N/4 + 1 columns per axis
        assert 0 < count[0] < q * n / 8

    def test_peak_memory_is_bounded(self):
        # at most 1.0 complex (side x N) array alive at once: the GEMM operand
        # the two GEMMs share holds (side/2) x (N/4 + 1) doubles twice, the
        # x2 trig once
        params = build_params(256, 4, 0.3, 0.5)
        side = 2 * quarter_grid(params)[0].size - 1
        assert (params.n_dirs, side) == (1024, 373)
        tracemalloc.start()
        try:
            grid_quadrature_mass(params, np.ones(params.n_dirs))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * side * params.n_dirs * 16

    def test_block_walk_holds_one_table_and_one_block(self):
        # the oracle_audit geometry, 5 row blocks of five 23-row steps: the
        # q x (N/4 + 1) x2 table of the mirror-paired slots, about 8 q**2
        # doubles of grid arrays (quarter_grid's window build peaks near 7)
        # and one block; one 2q x N/2 GEMM operand with four q x q output
        # blocks would peak near 36.9 MiB
        params = build_params(1024, 4, 0.3, 0.5)
        q, slots = quarter_grid(params)[0].size, params.n_dirs // 4 + 1
        assert (params.n_dirs, q) == (4096, 490)
        tracemalloc.start()
        try:
            grid_quadrature_mass(params, np.ones(params.n_dirs))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (q * slots + 8 * q * q + oscint._BLOCK_NODES)

    def test_refuses_infeasible_parameters(self):
        params = build_params(600, 1, 0.0, 0.5)
        with pytest.raises(ValueError):
            grid_quadrature_mass(params, np.ones(params.n_dirs))

    def test_refuses_large_frequency_ratio_on_refined_grid(self, monkeypatch):
        # the stub keeps a missed refusal from allocating the ~9169**2 grid,
        # or the 11737**2 node grid of lam 512 at 36 points per wavelength
        def no_grid(*_):
            raise AssertionError("grid was evaluated instead of refused")
        monkeypatch.setattr(montecarlo, "_grid_power", no_grid)
        for lam, points, match in [(600, 24, "tensor grid would need"),
                                   (512, 36, "tensor grid would need 137757169 ")]:
            params = build_params(lam, 1 / lam, 0.0, 0.5)
            with pytest.raises(ValueError, match=match):
                grid_quadrature_mass(params, np.ones(params.n_dirs),
                                     points_per_wavelength=points)

    def test_node_bound_refuses_a_fine_grid_that_few_directions_admit(self,
                                                                      monkeypatch):
        # N * q = 64 * 4891 is far below MAX_GRID_FIELD, but the 9781**2 node
        # grid is above MAX_GRID_NODES; the stubs keep a missed refusal from
        # building the window or the field
        def no_grid(*_):
            raise AssertionError("grid was evaluated instead of refused")
        monkeypatch.setattr(oscint, "cutoff_value", no_grid)
        monkeypatch.setattr(montecarlo, "_grid_power", no_grid)
        params = build_params(262144, 64 / 262144, 0.5, 0.5)
        assert params.n_dirs == 64
        for call in (lambda: grid_quadrature_mass(params, np.ones(64),
                                                  points_per_wavelength=30),
                     lambda: pair_integral_2d_oracle(params, 0.5,
                                                     points_per_wavelength=30)):
            with pytest.raises(ValueError, match="tensor grid would need 95667961 nodes"):
                call()


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

    @pytest.mark.parametrize("samples", [150.0, 100.5, True, np.float64(200), "200"])
    def test_samples_is_never_coerced(self, kernels, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            mc_moments(kernels(64, 2, 0.5), samples, 0)

    def test_minimum_sample_count(self, kernels):
        with pytest.raises(ValueError):
            mc_moments(kernels(64, 2, 0.5), 10, seed=0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_columns_do_not_depend_on_the_worker_count(self, kernels, monkeypatch,
                                                        workers):
        # 16-row blocks, so 120 samples cross seven block boundaries; the
        # literals are the columns of the serial loop over the same blocks
        monkeypatch.setattr(oscint, "_BLOCK_NODES", 16 * 256)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        kernel = kernels(128, 2, 0.5, p=0.6)
        assert kernel.size == 256
        summary = mc_moments(kernel, 120, 2026)
        assert summary == {
            "mc_samples": 120, "mc_seed": 2026,
            "mc_mean": float.fromhex("0x1.08907b64ffe8ep+4"),
            "mc_var": float.fromhex("0x1.0d0e882ae82b1p+4"),
            "mc_se_mean": float.fromhex("0x1.7f54239dbf424p-2"),
            "mc_se_var": float.fromhex("0x1.15e7cd12f3d64p+1")}
        masses = [mass_quadratic_form(kernel, sample_coefficients(kernel.params, 2026, i))
                  for i in range(120)]
        assert summary["mc_mean"] == pytest.approx(np.mean(masses), rel=1e-13)
        assert summary["mc_var"] == pytest.approx(np.var(masses, ddof=1), rel=1e-12)

    @pytest.mark.parametrize("rows", [1, 3, 5, 8, 1024])
    def test_columns_do_not_depend_on_the_block_size(self, kernels, monkeypatch, rows):
        # neither the signs nor the masses depend on the block: each mass is
        # summed over its own row alone, so any row count gives the 16-row
        # blocks' columns bit for bit
        kernel = kernels(128, 2, 0.5, p=0.6)
        monkeypatch.setattr(oscint, "_BLOCK_NODES", 16 * 256)
        reference = mc_moments(kernel, 120, 2026)
        monkeypatch.setattr(oscint, "_BLOCK_NODES", rows * 256)
        assert mc_moments(kernel, 120, 2026) == reference

    def test_more_workers_than_cores_fill_every_sample(self, kernels, monkeypatch):
        # 60 two-row blocks on 8 threads that switch as often as they can; an
        # unwritten slot of the masses would leave garbage in the columns
        monkeypatch.setattr(oscint, "_BLOCK_NODES", 2 * 256)
        kernel = kernels(128, 2, 0.5, p=0.6)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 1)
        serial = mc_moments(kernel, 120, 2026)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert mc_moments(kernel, 120, 2026) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_an_error_in_a_worker_is_raised(self, kernels, monkeypatch):
        # with two workers, the second block (samples 16..31) is worker 1's
        monkeypatch.setattr(oscint, "_BLOCK_NODES", 16 * 256)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
        keyed_signs = montecarlo._keyed_signs

        def fail_second_block(seed, start, out, p):
            if start == 16:
                raise ValueError("second block failed")
            return keyed_signs(seed, start, out, p)
        monkeypatch.setattr(montecarlo, "_keyed_signs", fail_second_block)
        with pytest.raises(ValueError, match="^second block failed$"):
            mc_moments(kernels(128, 2, 0.5, p=0.6), 120, 2026)


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    # os.sched_getaffinity does not exist on macOS or Windows
    if hasattr(os, "sched_getaffinity"):
        assert montecarlo._worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert montecarlo._worker_count() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert montecarlo._worker_count() == 1


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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_point(self, x):
        # NaN compares false with both bounds of the range
        params = build_params(64, 2, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"^\|x\| must be finite"):
            darboux_error(params, [0.0, x], n_doublings=2)

    def test_matches_a_loop_over_each_point(self):
        # the literal probe: one complex exp per |x| and gamma; the gaps take
        # the same arithmetic, the sums may differ by rounding of the phases
        params = build_params(100.3, 3, 0.3, 0.7)
        xs = np.linspace(0.0, 2.0 * params.ball_radius, 5)
        probe = darboux_error(params, xs, n_doublings=2)
        for g, gamma in enumerate(probe.gammas):
            pg = build_params(params.lam, gamma, params.alpha, params.p)
            theta = build_directions(pg).angles
            dtheta = 2.0 * np.pi / pg.n_dirs
            fine = theta[:, None] + np.linspace(0.0, dtheta, montecarlo._OSC_SUBSAMPLES)
            for i, x in enumerate(xs):
                w = params.lam * x
                riemann = abs(dtheta * np.sum(np.exp(1j * w * np.cos(theta)))
                              - 2.0 * np.pi * bessel_j0(w))
                assert abs(probe.riemann_errors[i, g] - riemann) <= 8 * np.pi * 2.0 ** -52
                fine_vals = w * np.cos(fine)
                gap = dtheta * float(np.sum(np.ptp(np.cos(fine_vals), axis=1)
                                            + np.ptp(np.sin(fine_vals), axis=1)))
                assert probe.gaps[i, g] == gap


@pytest.mark.parametrize("probe", [
    lambda params, n: darboux_error(params, [params.ball_radius], n_doublings=n),
    lambda params, n: e1_error_norm(params, n_doublings=n),
], ids=["darboux", "e1"])
@pytest.mark.parametrize("n_doublings", [-1, 1.5, True])
def test_probes_refuse_a_bad_doubling_count(probe, n_doublings):
    with pytest.raises(ValueError, match="n_doublings"):
        probe(build_params(64, 8, 0.5, 0.5), n_doublings)


class TestDiscretisationProbe:
    def test_literal_error_is_negligible(self):
        probe = e1_error_norm(build_params(128, 8, 0.5, 0.5), n_doublings=2)
        assert np.max(probe.literal_norms) < 1e-8

    def test_literal_error_vanishes_at_fractional_gamma_lam(self):
        # N = round(gamma * lam) is 802, 1605 and 3210, never gamma * lam
        probe = e1_error_norm(build_params(100.3, 8, 0.5, 0.5), n_doublings=2)
        assert np.max(probe.literal_norms) < 1e-8

    def test_pairwise_bound_gamma_exponent(self):
        probe = e1_error_norm(build_params(256, 8, 0.5, 0.5), n_doublings=2)
        assert 0.4 <= probe.gamma_exponent <= 1.1

    def test_ladder_self_consistency(self):
        probe = e1_error_norm(build_params(128, 8, 0.5, 0.5), n_doublings=2)
        measured = probe.pairwise_bound_norms[-1] / probe.pairwise_bound_norms[0]
        predicted = (probe.gammas[-1] / probe.gammas[0]) ** probe.gamma_exponent
        assert abs(measured - predicted) <= 0.2 * predicted

    def test_refuses_a_field_beyond_the_bound_before_allocating_it(self):
        # rung 0 has N 32768 on a half axis of 1292 nodes: the x2 table would
        # hold 1292 * 8193 doubles, about 85 MB, and |x| and the window
        # 1292**2 doubles each; the refusal builds none of them
        params = build_params(4096, 8, 0.3, 0.5)
        q = quarter_grid(params)[0].size
        assert (params.n_dirs, q) == (32768, 1292)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=rf"N \* q = 32768 \* 1292 = {32768 * q} "):
                e1_error_norm(params, n_doublings=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("lam,gamma,n_doublings,q", [(4096, 8, 2, 1292),
                                                         (1024, 4, 3, 490)])
    def test_refuses_a_field_before_any_j0_or_field_work(self, monkeypatch, lam,
                                                          gamma, n_doublings, q):
        # the refused rung is the first at (4096, 8) and the last at (1024, 4)
        def no_work(*_):
            raise AssertionError("work ran before the field size was checked")
        monkeypatch.setattr(montecarlo, "bessel_j0", no_work)
        monkeypatch.setattr(montecarlo, "_grid_power", no_work)
        monkeypatch.setattr(oscint, "cutoff_value", no_work)
        with pytest.raises(ValueError, match=rf"N \* q = 32768 \* {q} = {32768 * q} "):
            e1_error_norm(build_params(lam, gamma, 0.3, 0.5), n_doublings=n_doublings)

    def test_norm_scale_bounded_across_frequencies(self):
        # bound-norm / lam**((1-alpha)/2) stays within a fixed band
        scaled = []
        for lam in (64, 128, 256, 512):
            probe = e1_error_norm(build_params(lam, 8, 0.5, 0.5), n_doublings=0)
            scaled.append(probe.pairwise_bound_norms[0] / lam ** 0.25)
        assert max(scaled) / min(scaled) < 1.5
