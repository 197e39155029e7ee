"""Wave-model parameters, equispaced direction sets, and the radial cutoff.

The model is a planar superposition of ``N = round(gamma * lam)`` unit plane
waves ``exp(i * lam * x . xi_j)`` whose directions ``xi_j`` sit equally spaced
on the unit circle.  The local mass near the origin is smoothed by a fixed
radial bump ``a`` that equals 1 on ``[-1, 1]`` and vanishes outside
``(-2, 2)``; rescaling its argument by ``lam**alpha`` confines the mass window
to a ball of radius ``2 * lam**-alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np
from numpy.polynomial.legendre import leggauss

FLAT_RADIUS = 1.0
SUPPORT_RADIUS = 2.0
DERIVATIVE_ORDER = 8
_BOUNDS_GRID_SIZE = 100_000
MASS_RULE_ORDER = 40
MASS_RULE_PANELS = 64


@dataclass(frozen=True)
class WaveParams:
    """Experiment parameters (lam, gamma, alpha, p) plus the derived count N.

    lam    : frequency, > 1
    gamma  : direction-density factor, > 0
    alpha  : shrink exponent of the observation ball radius lam**-alpha, in [0, 1)
    p      : probability that a sign coefficient equals +1, in [0, 1]
    n_dirs : number of directions, round-half-even(gamma * lam), >= 1
    """

    lam: float
    gamma: float
    alpha: float
    p: float
    n_dirs: int

    @property
    def ball_radius(self) -> float:
        """Radius scale lam**-alpha of the smoothed observation ball."""
        return self.lam ** (-self.alpha)

    @property
    def separation_scale(self) -> float:
        """Direction-separation scale lam**(-1 + alpha) of the decay bounds."""
        return self.lam ** (-1.0 + self.alpha)


def _is_integer(value) -> bool:
    """An int or numpy integer that is not a bool; nothing else is coerced."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_real(name: str, value) -> None:
    """Refuse value, by name, if it is a bool or not a real number with a finite float value."""
    try:
        real = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        real = False
    if not real:
        raise ValueError(f"{name} must be a finite real number (not a bool), got {value!r}")


def _check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Refuse value, by name, unless _is_integer holds and low <= value (< high, if given)."""
    if not (_is_integer(value) and low <= value and (high is None or value < high)):
        span = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer (not a bool) {span}, got {value!r}")


def _real_array(name: str, value, shape: tuple | None = None, what: str = "") -> np.ndarray:
    """value as a float array (float input uncopied), refused by name if it is a ragged
    nest, holds anything but integers or floats (bools, strings, complex, objects), has
    a shape other than `shape` (if given; `what` follows it in the message) or a NaN or inf."""
    of_shape = "" if shape is None else f" of shape {shape}"
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # numpy refuses a ragged nest of sequences
        raise ValueError(f"{name} must convert to one array{of_shape}: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold integers or floats, got dtype {arr.dtype}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}{what}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
    return arr.astype(float, copy=False)


def build_params(lam: float, gamma: float, alpha: float, p: float) -> WaveParams:
    """Validate raw inputs and derive the direction count.

    Rejects alpha >= 1 (the moment asymptotics hold only below the wavelength
    scale), inputs that _check_real refuses, and parameter combinations that
    round to zero directions.  The count uses round-half-to-even so that
    fractional gamma * lam resolves deterministically.
    """
    for name, value in (("lam", lam), ("gamma", gamma), ("alpha", alpha), ("p", p)):
        _check_real(name, value)
    if lam <= 1.0:
        raise ValueError(f"lam must exceed 1, got {lam}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not math.isfinite(gamma * lam):
        raise ValueError(f"gamma * lam = {gamma * lam} is not finite")
    n_dirs = int(round(gamma * lam))
    if n_dirs < 1:
        raise ValueError(f"gamma * lam = {gamma * lam} rounds to zero directions")
    return WaveParams(lam=float(lam), gamma=float(gamma), alpha=float(alpha),
                      p=float(p), n_dirs=n_dirs)


@dataclass(frozen=True)
class DirectionSet:
    """Equispaced unit directions with their chord-distance table.

    angles[j] = 2*pi*j/N, unit_vectors[j] = (cos, sin) of that angle, and
    chord[k] = |xi_j - xi_{j+k}| = 2*sin(pi*k/N), which depends only on the
    index separation k mod N.
    """

    angles: np.ndarray
    unit_vectors: np.ndarray
    chord: np.ndarray

    @property
    def size(self) -> int:
        return self.angles.shape[0]


def build_directions(params: WaveParams) -> DirectionSet:
    """Place N = params.n_dirs directions at angles 2*pi*j/N, phase origin 0."""
    n = params.n_dirs
    j = np.arange(n)
    angles = 2.0 * np.pi * j / n
    unit_vectors = np.column_stack([np.cos(angles), np.sin(angles)])
    chord = 2.0 * np.sin(np.pi * j / n)
    for arr in (angles, unit_vectors, chord):
        arr.setflags(write=False)
    return DirectionSet(angles=angles, unit_vectors=unit_vectors, chord=chord)


def cutoff_value(t):
    """The fixed smooth even bump: 1 on [-1, 1], 0 outside (-2, 2).

    Uses the classic partition construction a = g(2-|t|) / (g(2-|t|) + g(|t|-1))
    with g(s) = exp(-1/s) for s > 0 and 0 otherwise, so both support conditions
    hold exactly and the profile is monotone on [1, 2].
    """
    u = np.abs(_real_array("t", t))
    out = np.zeros_like(u)
    out[u <= FLAT_RADIUS] = 1.0
    mid = (u > FLAT_RADIUS) & (u < SUPPORT_RADIUS)
    if np.any(mid):
        um = u[mid]
        g_outer = np.exp(-1.0 / (SUPPORT_RADIUS - um))
        g_inner = np.exp(-1.0 / (um - FLAT_RADIUS))
        out[mid] = g_outer / (g_outer + g_inner)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Taylor-jet arithmetic.  A jet holds the Taylor coefficients f^(m)(t)/m! of a
# function at every grid point, shape (order + 1, npts).  Propagating jets
# through the bump's formula gives high-order derivatives without the roundoff
# blowup of repeated finite differencing.
# ---------------------------------------------------------------------------

def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    order = a.shape[0] - 1
    out = np.zeros_like(a)
    for m in range(order + 1):
        for i in range(m + 1):
            out[m] += a[i] * b[m - i]
    return out


def _jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    order = a.shape[0] - 1
    out = np.zeros_like(a)
    out[0] = a[0] / b[0]
    for m in range(1, order + 1):
        acc = a[m].copy()
        for i in range(1, m + 1):
            acc -= b[i] * out[m - i]
        out[m] = acc / b[0]
    return out


def _jet_exp(v: np.ndarray) -> np.ndarray:
    order = v.shape[0] - 1
    out = np.zeros_like(v)
    out[0] = np.exp(v[0])
    for m in range(1, order + 1):
        acc = np.zeros_like(v[0])
        for i in range(1, m + 1):
            acc += i * v[i] * out[m - i]
        out[m] = acc / m
    return out


def _squared_cutoff_jet(t: np.ndarray, order: int) -> np.ndarray:
    """Jet of a(t)**2 on grid points strictly inside (1, 2).

    The exponents have closed-form jets: coefficient m of -1/(2 - t) is
    -(2 - t)**-(m+1), and that of -1/(t - 1) is -(-1)**m * (t - 1)**-(m+1).
    """
    m = np.arange(order + 1.0)[:, None]
    g_outer = _jet_exp(-(SUPPORT_RADIUS - t) ** (-m - 1.0))
    g_inner = _jet_exp((-1.0) ** (m + 1.0) * (t - FLAT_RADIUS) ** (-m - 1.0))
    a = _jet_div(g_outer, g_outer + g_inner)
    return _jet_mul(a, a)


@lru_cache
def _derivative_bounds(order: int = DERIVATIVE_ORDER,
                       grid_size: int = _BOUNDS_GRID_SIZE) -> np.ndarray:
    """sup |d^m/dt^m a(t)^2| for m = 0..order, tabulated on a dense grid.

    Derivatives vanish identically outside (1, 2) by flatness, so the grid
    covers only the transition band.  Entry 0 is sup a^2 = 1.  Only the
    decay-bound constants read the table, so it is built on first use.
    """
    t = np.linspace(1.0, 2.0, grid_size + 2)[1:-1]
    jet = _squared_cutoff_jet(t, order)
    bounds = np.empty(order + 1)
    bounds[0] = 1.0
    fact = 1.0
    for m in range(1, order + 1):
        fact *= m
        bounds[m] = fact * np.max(np.abs(jet[m]))
    bounds.setflags(write=False)
    return bounds


@lru_cache  # build_cutoff tiles two intervals at one order
def _gauss_legendre(order: int):
    x, w = leggauss(order)  # read-only: every caller gets the cached arrays
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_rule(a: float, b: float, npanels: int, order: int):
    """Gauss-Legendre nodes/weights of `order` tiled over npanels equal panels of [a, b].

    The one quadrature rule of the bump: build_cutoff reads it for m2 and
    oscint for the pair integrals W(s).
    """
    x, w = _gauss_legendre(order)
    h = (b - a) / npanels
    starts = a + h * np.arange(npanels)
    nodes = (starts[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * w, npanels)
    return nodes, weights


@lru_cache(maxsize=1)
def build_cutoff() -> float:
    """The bump's squared radial mass m2 = integral_0^2 a(t)^2 t dt, computed once.

    The panel rule of MASS_RULE_ORDER nodes on the flat part [0, 1] and on
    each of MASS_RULE_PANELS equal panels of the transition band [1, 2]; it
    agrees with adaptive quadrature to rounding (tests/test_model.py).
    The planar mass of a(lam**alpha |x|)^2 equals 2*pi*lam**(-2*alpha)*m2.
    """
    x_flat, w_flat = _panel_rule(0.0, FLAT_RADIUS, 1, MASS_RULE_ORDER)
    x_band, w_band = _panel_rule(FLAT_RADIUS, SUPPORT_RADIUS, MASS_RULE_PANELS,
                                 MASS_RULE_ORDER)
    nodes, weights = np.concatenate([x_flat, x_band]), np.concatenate([w_flat, w_band])
    return float(np.sum(cutoff_value(nodes) ** 2 * nodes * weights))


def cutoff_mass(params: WaveParams) -> float:
    """L1 mass of a(lam**alpha |x|)^2 over the plane: 2*pi*lam**(-2*alpha)*m2."""
    return 2.0 * np.pi * params.lam ** (-2.0 * params.alpha) * build_cutoff()
