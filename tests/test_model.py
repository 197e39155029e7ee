import math
import re

import numpy as np
import pytest

from biasedwave import (asymptotic_check, bessel_j0, build_cutoff, build_directions,
                        build_kernel, build_params, cutoff_mass, cutoff_value,
                        darboux_error, decay_bound, e1_error_norm, fit_exponent,
                        grid_quadrature_mass, mass_double_sum, mass_quadratic_form,
                        mc_moments, sample_coefficients,
                        stationary_leading_term, surface_wave_envelope)
from biasedwave.model import (_check_integer, _derivative_bounds, _gauss_legendre,
                              _real_array)
from biasedwave.oscint import decay_constant, quarter_grid


class TestBuildParams:
    def test_direction_count(self):
        assert build_params(100, 2, 0.5, 0.5).n_dirs == 200

    def test_alpha_boundary(self):
        assert build_params(64, 1, 0.99, 0.5).alpha == 0.99
        with pytest.raises(ValueError):
            build_params(64, 1, 1.0, 0.5)

    def test_half_rounds_to_even(self):
        # 0.35 * 10 = 3.5 resolves upward to the even neighbour
        assert build_params(10, 0.35, 0.3, 0.7).n_dirs == 4
        assert build_params(10, 0.45, 0.3, 0.7).n_dirs == 4

    @pytest.mark.parametrize("kwargs", [
        dict(lam=1.0), dict(lam=0.5), dict(lam=float("nan")),
        dict(lam=float("inf")), dict(gamma=0.0), dict(gamma=-2.0),
        dict(alpha=-0.1), dict(alpha=1.5), dict(p=-0.01), dict(p=1.01),
        dict(lam=1e300, gamma=1e10),  # gamma * lam overflows to inf
        dict(p=True), dict(alpha=False), dict(gamma=np.bool_(True)),
        dict(lam="64"), dict(gamma="1"), dict(alpha=None), dict(p=0.5 + 0j),
        dict(lam=10 ** 400), dict(p=-10 ** 400),  # beyond the float range
    ])
    def test_rejects_bad_inputs(self, kwargs):
        good = dict(lam=64.0, gamma=2.0, alpha=0.5, p=0.5)
        good.update(kwargs)
        with pytest.raises(ValueError, match=rf"\b{next(iter(kwargs))}\b"):
            build_params(**good)

    def test_accepts_numpy_integers_and_floats(self):
        params = build_params(np.int64(64), np.float32(2.0), np.float64(0.5), 0.5)
        assert params == build_params(64, 2.0, 0.5, 0.5)

    def test_rejects_zero_directions(self):
        with pytest.raises(ValueError):
            build_params(10, 0.04, 0.3, 0.5)

    def test_derived_scales(self):
        p = build_params(256, 4, 0.25, 0.5)
        assert p.ball_radius == pytest.approx(256 ** -0.25, rel=1e-15)
        assert p.separation_scale == pytest.approx(256 ** -0.75, rel=1e-15)


class TestDirections:
    def test_quarter_turns(self):
        dirs = build_directions(build_params(4, 1, 0.0, 0.5))
        expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert np.allclose(dirs.unit_vectors, expected, atol=1e-15)

    def test_chords_for_four_directions(self):
        dirs = build_directions(build_params(4, 1, 0.0, 0.5))
        assert dirs.chord[1] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert dirs.chord[2] == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 257])
    def test_chord_table_palindrome_and_range(self, n):
        dirs = build_directions(build_params(n * 10, 0.1, 0.2, 0.5))
        assert dirs.size == n
        assert np.max(dirs.chord) <= 2.0 + 1e-15
        assert np.allclose(dirs.chord[1:], dirs.chord[1:][::-1], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 128, 401])
    def test_unit_norms_and_balance(self, n):
        dirs = build_directions(build_params(n * 8, 0.125, 0.5, 0.5))
        norms = np.linalg.norm(dirs.unit_vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.linalg.norm(dirs.unit_vectors.sum(axis=0)) < 1e-9

    def test_uniform_angular_gap(self):
        dirs = build_directions(build_params(150, 1, 0.5, 0.5))
        gaps = np.diff(dirs.angles)
        assert np.max(np.abs(gaps - 2.0 * np.pi / 150)) < 1e-12

    def test_chords_match_euclidean_distances(self):
        dirs = build_directions(build_params(97, 1, 0.5, 0.5))
        dist = np.linalg.norm(dirs.unit_vectors - dirs.unit_vectors[0], axis=1)
        assert np.max(np.abs(dist - dirs.chord)) < 1e-12


class TestCutoff:
    def test_flat_region(self):
        assert cutoff_value(0.5) == 1.0
        assert cutoff_value(1.0) == 1.0
        assert cutoff_value(-0.999) == 1.0

    def test_support(self):
        assert cutoff_value(3.0) == 0.0
        assert cutoff_value(2.0) == 0.0
        assert cutoff_value(-2.5) == 0.0

    def test_transition_value_and_slope(self):
        v = cutoff_value(1.5)
        assert 0.0 < v < 1.0
        h = 1e-6
        derivative = (cutoff_value(1.5 + h) - cutoff_value(1.5 - h)) / (2 * h)
        assert derivative < 0.0

    def test_even_exactly(self):
        t = np.concatenate([np.linspace(0, 2.5, 1001), [0.1, 1.3, 1.9]])
        assert np.array_equal(cutoff_value(t), cutoff_value(-t))

    def test_range_and_monotone_tail(self):
        t = np.linspace(0.0, 2.2, 20001)
        v = cutoff_value(t)
        assert np.all((0.0 <= v) & (v <= 1.0))
        tail = v[(t >= 1.0) & (t <= 2.0)]
        assert np.all(np.diff(tail) <= 1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cutoff_value(float("nan"))


class TestCutoffMass:
    def test_pure_scaling_in_lambda(self):
        alpha = 0.6
        m1 = cutoff_mass(build_params(50, 1, alpha, 0.5))
        m2 = cutoff_mass(build_params(800, 1, alpha, 0.5))
        assert m1 / m2 == pytest.approx((800 / 50) ** (2 * alpha), rel=1e-12)

    @pytest.mark.parametrize("lam,alpha", [(64, 0.0), (64, 0.5), (1024, 0.9)])
    def test_volume_sandwich(self, lam, alpha):
        mass = cutoff_mass(build_params(lam, 1, alpha, 0.5))
        assert math.pi * lam ** (-2 * alpha) <= mass <= 4 * math.pi * lam ** (-2 * alpha)

    def test_radial_mass_against_trapezoid_oracle(self):
        m2 = build_cutoff()
        t = np.linspace(0.0, 2.0, 1_000_001)
        oracle = np.trapezoid(cutoff_value(t) ** 2 * t, t)
        assert m2 == pytest.approx(oracle, rel=1e-8)
        assert 0.5 <= m2 <= 2.0

    def test_radial_mass_against_adaptive_quadrature(self):
        integrate = pytest.importorskip("scipy.integrate")
        m2, _ = integrate.quad(lambda t: cutoff_value(t) ** 2 * t, 0.0, 2.0,
                               points=[1.0], epsabs=0.0, epsrel=1e-10, limit=200)
        assert build_cutoff() == pytest.approx(m2, rel=1e-14)

    def test_cached_gauss_legendre_rule_refuses_writes(self):
        # every caller gets the same cached arrays, so a write would reach
        # every later panel rule, m2 and W(s) alike
        nodes, weights = _gauss_legendre(12)
        for array in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0.0
        assert np.sum(weights) == pytest.approx(2.0, rel=1e-14)


class TestDerivativeBounds:
    def test_table_shape_and_normalisation(self):
        bounds = _derivative_bounds()
        assert bounds.shape == (9,)
        assert bounds[0] == 1.0
        assert np.all(np.diff(bounds) > 0)

    def test_against_symbolic_differentiation(self):
        sympy = pytest.importorskip("sympy")
        s = sympy.symbols("s", positive=True)
        a2 = (sympy.exp(-1 / (2 - s))
              / (sympy.exp(-1 / (2 - s)) + sympy.exp(-1 / (s - 1)))) ** 2
        grid = np.linspace(1.0 + 1e-9, 2.0 - 1e-9, 20_000)
        table = _derivative_bounds(order=4, grid_size=20_000)
        expr = a2
        for m in range(1, 5):
            expr = sympy.diff(expr, s)
            f = sympy.lambdify(s, expr, "numpy")
            sup = np.max(np.abs(f(grid)))
            assert table[m] == pytest.approx(sup, rel=1e-6)

    def test_high_orders_match_frozen_symbolic_values(self):
        # values from an order-8 symbolic differentiation on a 1e5 grid
        frozen = [2.767048e0, 1.808141e1, 2.178896e2, 4.553234e3,
                  1.545302e5, 9.719449e6, 8.560666e8, 9.672977e10]
        bounds = _derivative_bounds()
        for m, value in enumerate(frozen, start=1):
            assert bounds[m] == pytest.approx(value, rel=1e-5)


def _small_kernel():
    kernel = build_kernel(build_params(8, 1, 0.5, 0.5))
    assert kernel.size == 8
    return kernel


# each public array argument: the name its refusals give, and a call with it
ARRAY_ARGUMENTS = {
    "bessel_j0": ("z", bessel_j0),
    "cutoff_value": ("t", cutoff_value),
    "decay_bound": ("chord separation",
                    lambda a: decay_bound(build_params(64, 8, 0.5, 0.5), a, 2)),
    "darboux_error": ("|x|", lambda a: darboux_error(build_params(64, 2, 0.5, 0.5), a)),
    "asymptotic_check": ("w", asymptotic_check),
    "stationary_leading_term": ("w", stationary_leading_term),
    "surface_wave_envelope": ("radii", lambda a: surface_wave_envelope(8.0, a)),
    "fit_exponent.x": ("x", lambda a: fit_exponent(a, [1.0, 2.0, 3.0])),
    "fit_exponent.y": ("y", lambda a: fit_exponent([1.0, 2.0, 3.0], a)),
    "mass_quadratic_form": ("coeffs", lambda a: mass_quadratic_form(_small_kernel(), a)),
    "mass_double_sum": ("coeffs", lambda a: mass_double_sum(_small_kernel(), a)),
    "grid_quadrature_mass": ("coeffs",
                             lambda a: grid_quadrature_mass(_small_kernel().params, a)),
    "build_kernel.row": ("row", lambda a: build_kernel(build_params(64, 1, 0.5, 0.5), a)),
}


@pytest.mark.parametrize("entry", sorted(ARRAY_ARGUMENTS))
@pytest.mark.parametrize("bad,refusal", [
    (["2", "3", "4"], "hold integers or floats, got dtype <U1"),
    ([True, False, True], "hold integers or floats, got dtype bool"),
    ([2.0 + 0j, 3.0, 4.0], "hold integers or floats, got dtype complex128"),
    ([2.0, [3.0, 4.0], 4.0], "convert to one array"),
], ids=["strings", "bools", "complex", "ragged"])
def test_array_arguments_are_never_coerced(entry, bad, refusal):
    name, call = ARRAY_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must {refusal}"):
        call(bad)


# each integer argument: the name its refusals give, its least value, and a call
INTEGER_ARGUMENTS = {
    "seed": ("seed", 0, lambda n: sample_coefficients(build_params(64, 2, 0.5, 0.5), n)),
    "sample_index": ("sample_index", 0,
                     lambda n: sample_coefficients(build_params(64, 2, 0.5, 0.5), 0, n)),
    "samples": ("samples", 100, lambda n: mc_moments(_small_kernel(), n, 0)),
    "n_doublings": ("n_doublings", 0,
                    lambda n: e1_error_norm(build_params(64, 8, 0.5, 0.5), n)),
    "points_per_wavelength": ("points_per_wavelength", 1,
                              lambda n: quarter_grid(build_params(64, 8, 0.5, 0.5), n)),
    "decay_order": ("decay order", 0, decay_constant),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
@pytest.mark.parametrize("bad", [True, np.True_, 2.5, np.float64(3.0), "3", None, "low"])
def test_integer_arguments_are_never_coerced(entry, bad):
    name, low, call = INTEGER_ARGUMENTS[entry]
    value = low - 1 if bad == "low" else bad
    with pytest.raises(ValueError, match=rf"^{name} must be an integer \(not a bool\)"):
        call(value)


def test_integer_check_bounds():
    _check_integer("n", 5, 5)
    _check_integer("n", np.uint64(2 ** 64 - 1), 0, 2 ** 64)
    for value, match in ((4, r"^n must be an integer \(not a bool\) >= 5, got 4$"),
                         (10, r"^n must be an integer \(not a bool\) in \[5, 10\), got 10$")):
        with pytest.raises(ValueError, match=match):
            _check_integer("n", value, 5, 10 if value == 10 else None)
    with pytest.raises(ValueError, match="decay order must be an integer"):
        decay_constant(9)  # the table holds orders 0..8


def test_real_array_reads_numbers_without_coercing_them():
    floats = np.linspace(0.0, 1.0, 4)
    assert _real_array("a", floats) is floats  # float input is not copied
    ints = _real_array("a", [1, 2, 3], (3,))
    assert ints.dtype == np.float64 and ints.tolist() == [1.0, 2.0, 3.0]
    assert _real_array("a", np.float32(0.5)).dtype == np.float64
    for bad, match in (([1.0, 2.0], r"^a must have shape \(3,\) for N, got shape \(2,\)$"),
                       ([1.0, math.inf, 2.0], r"^a must be finite, got inf$"),
                       ([1.0, [2.0], 3.0], r"^a must convert to one array of shape \(3,\): "),
                       ([10 ** 400] * 3, r"^a must hold integers or floats, got dtype object$")):
        with pytest.raises(ValueError, match=match):
            _real_array("a", bad, (3,), " for N")
