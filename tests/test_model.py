import math

import numpy as np
import pytest

from biasedwave import build_cutoff, build_directions, build_params, cutoff_mass, \
    cutoff_value
from biasedwave.model import _derivative_bounds, _gauss_legendre


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
