import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasedwave import fit_exponent


def test_exact_square_law():
    x = np.linspace(1.0, 9.0, 12)
    fit = fit_exponent(x, x ** 2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.point_count == 12


def test_noisy_decay_recovered():
    rng = np.random.default_rng(3)
    x = np.logspace(0.0, 2.0, 40)
    y = 7.0 * x ** -1.5 * (1.0 + 0.01 * rng.standard_normal(40))
    fit = fit_exponent(x, y)
    assert fit.slope == pytest.approx(-1.5, abs=0.05)


def test_two_points_rejected():
    with pytest.raises(ValueError):
        fit_exponent(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_non_positive_rejected():
    with pytest.raises(ValueError):
        fit_exponent(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        fit_exponent(np.array([1.0, -2.0, 3.0]), np.array([1.0, 1.0, 2.0]))


@pytest.mark.parametrize("y", [[1.0, 2.0, 3.0], [3.0, 3.0, 3.0]])
def test_constant_x_rejected(y):
    with pytest.raises(ValueError, match="two distinct"):
        fit_exponent(np.array([2.0, 2.0, 2.0]), np.array(y))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        fit_exponent(np.ones(4), np.ones(5))


def test_constant_series_has_unit_r_squared():
    fit = fit_exponent(np.array([1.0, 2.0, 4.0]), np.array([3.0, 3.0, 3.0]))
    assert fit.slope == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=1e-3, max_value=1e3),
    b=st.floats(min_value=1e-3, max_value=1e3),
    slope=st.floats(min_value=-3.0, max_value=3.0),
)
def test_slope_invariant_under_axis_rescaling(a, b, slope):
    x = np.array([1.0, 2.0, 5.0, 11.0, 31.0])
    y = 2.0 * x ** slope
    base = fit_exponent(x, y).slope
    rescaled = fit_exponent(a * x, b * y).slope
    assert rescaled == pytest.approx(base, abs=1e-9)
