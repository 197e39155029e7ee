"""Bessel J0, the angular oscillatory integral, and its large-argument form.

The angular integral over the unit circle of exp(+-i w cos(theta)) equals
2*pi*J0(w); for w > 1 it is approximated by the stationary-phase leading term
2*sqrt(2*pi) * w**-0.5 * cos(w - pi/4) with an O(w**-1.5) remainder.  J0 itself
is evaluated in numpy from two classical forms (DLMF 10.9.1 and 10.17.3; Watson,
A Treatise on the Theory of Bessel Functions, 2.2 and 7.21): Bessel's integral
by the trapezoid rule below J0_SWITCH, Hankel's asymptotic expansion from it on.
The tests check it against mpmath, against a second library's J0 and against
adaptive quadrature of the angular integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import FitResult, fit_exponent

J0_SWITCH = 25.0
TRAPEZOID_NODES = 72
HANKEL_TERMS = 10


def _hankel_coefficients():
    """The coefficients of P and Q in Hankel's expansion of J0, lowest first.

    a_k = a_{k-1} * (-(2k - 1)**2) / (8k) with a_0 = 1 (DLMF 10.17.1 at nu = 0);
    P(z) = sum_k (-1)**k a_{2k} z**-2k and Q(z) = sum_k (-1)**k a_{2k+1} z**-(2k+1).
    """
    a = [1.0]
    for k in range(1, 2 * HANKEL_TERMS):
        a.append(a[-1] * -(2 * k - 1) ** 2 / (8 * k))
    signed = [c * (-1) ** (k // 2) for k, c in enumerate(a)]
    return signed[0::2], signed[1::2]


# sin(theta) at the midpoints of the quarter period [0, pi/2]: by the
# symmetries of |sin|, each stands for 4 of the TRAPEZOID_NODES nodes.
_QUARTER_SINES = np.sin(np.pi * (np.arange(TRAPEZOID_NODES // 4) + 0.5)
                        / (TRAPEZOID_NODES // 2))
_HANKEL_P, _HANKEL_Q = _hankel_coefficients()


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    out = x * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        out += c
        out *= x
    out += coeffs[0]
    return out


def _j0_trapezoid(z: np.ndarray) -> np.ndarray:
    """Bessel's integral J0(z) = (1/pi) integral_0^pi cos(z sin(theta)) dtheta.

    The trapezoid rule on a periodic integrand converges exponentially: with
    TRAPEZOID_NODES nodes over the period its error is about
    2*J_TRAPEZOID_NODES(z), below 1e-25 for z < J0_SWITCH.
    """
    acc = np.zeros_like(z)
    term = np.empty_like(z)
    for s in _QUARTER_SINES:
        np.cos(np.multiply(z, s, out=term), out=term)
        acc += term
    return acc / _QUARTER_SINES.size


def _j0_hankel(z: np.ndarray) -> np.ndarray:
    """J0(z) = sqrt(2/(pi z)) (P cos(z - pi/4) - Q sin(z - pi/4)), z >= J0_SWITCH.

    Written with cos z and sin z of the argument itself, so no phase is lost
    to rounding z - pi/4.  The first omitted term is below 1e-17 at J0_SWITCH.
    """
    inv_sq = (1.0 / z) ** 2
    p = _horner(_HANKEL_P, inv_sq)
    q = _horner(_HANKEL_Q, inv_sq) / z
    return ((p + q) * np.cos(z) + (p - q) * np.sin(z)) / (np.sqrt(np.pi) * np.sqrt(z))


def bessel_j0(z):
    """J0(z) for finite z >= 0, to about 5e-16 absolute.

    Bessel's integral by the trapezoid rule below J0_SWITCH, Hankel's
    expansion from it on.  Returns a float for scalar z and raises ValueError
    on negative or non-finite input.
    """
    arr = np.asarray(z, dtype=float)
    if arr.size and (np.min(arr) < 0.0 or not np.all(np.isfinite(arr))):
        raise ValueError("bessel_j0 requires finite z >= 0")
    out = np.empty_like(arr)
    near = arr < J0_SWITCH
    out[near] = _j0_trapezoid(arr[near])
    far = ~near
    out[far] = _j0_hankel(arr[far])
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out


def angular_integral(w):
    """integral_{-pi}^{pi} exp(i w cos(theta)) dtheta = 2*pi*J0(w), real valued."""
    return 2.0 * np.pi * bessel_j0(w)


def stationary_leading_term(w):
    """Leading stationary-phase approximation 2*sqrt(2*pi)*w**-0.5*cos(w - pi/4)."""
    w = np.asarray(w, dtype=float)
    return 2.0 * np.sqrt(2.0 * np.pi) * w ** (-0.5) * np.cos(w - np.pi / 4.0)


@dataclass(frozen=True)
class AsymptoticCheck:
    """Sampled comparison of 2*pi*J0(w) against its leading asymptotic term.

    residual = exact - leading should decay like w**-1.5; c_check is the
    smallest single constant with |residual| <= c_check * w**-1.5 over the
    sampled arguments.
    """

    w: np.ndarray
    residual: np.ndarray
    c_check: float

    def residual_slope(self) -> FitResult:
        """Log-log slope of |residual| over the sampled w, expected -1.5."""
        mask = np.abs(self.residual) > 0
        return fit_exponent(self.w[mask], np.abs(self.residual[mask]))


def asymptotic_check(w) -> AsymptoticCheck:
    """Residual of 2*pi*J0 against its leading term at the arguments (all > 1)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.min(w) <= 1.0:
        raise ValueError("asymptotic comparison requires w > 1")
    residual = angular_integral(w) - stationary_leading_term(w)
    c_check = float(np.max(np.abs(residual) * w ** 1.5))
    return AsymptoticCheck(w=w, residual=residual, c_check=c_check)


def residual_probe_points(w_min: float, w_max: float) -> np.ndarray:
    """Arguments where |sin(w - pi/4)| = 1, i.e. w = 3*pi/4 + k*pi.

    The residual's leading contribution oscillates like sin(w - pi/4), so its
    envelope is cleanly sampled at these points; elsewhere sign changes make
    pointwise magnitudes unusable for slope fits.
    """
    if not (0.0 < w_min < w_max and np.isfinite(w_max)):
        raise ValueError(f"need finite 0 < w_min < w_max, got {w_min!r} and {w_max!r}")
    k_lo = int(np.ceil((w_min - 0.75 * np.pi) / np.pi))
    k_hi = int(np.floor((w_max - 0.75 * np.pi) / np.pi))
    if k_hi < k_lo:
        raise ValueError("window contains no probe points")
    return 0.75 * np.pi + np.pi * np.arange(k_lo, k_hi + 1)


@dataclass(frozen=True)
class EnvelopeTable:
    """Samples of the surface-measure wave magnitude and its fitted envelope."""

    magnitudes: np.ndarray
    envelope_fit: FitResult

    @property
    def envelope_exponent(self) -> float:
        return self.envelope_fit.slope


def surface_wave_envelope(lam: float, radii) -> EnvelopeTable:
    """Magnitude of the inverse transform of circle surface measure, rescaled.

    v(x) = lam**0.5 * 2*pi*J0(lam*|x|); its local maxima in lam*|x| follow the
    envelope ~ (lam*|x|)**-0.5, and the fitted log-log exponent of the sampled
    maxima is returned.  Radii must be positive and sorted, fine enough to
    resolve the oscillation (several samples per period pi/lam).
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 3:
        raise ValueError("radii must be a 1-d array with at least 3 entries")
    if np.min(radii) <= 0.0 or np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be positive and strictly increasing")
    w = lam * radii
    mags = np.sqrt(lam) * np.abs(angular_integral(w))
    interior = np.flatnonzero((mags[1:-1] > mags[:-2]) & (mags[1:-1] >= mags[2:])) + 1
    if interior.size < 3:
        raise ValueError("too few local maxima; sample the radii more densely")
    mags.setflags(write=False)
    return EnvelopeTable(magnitudes=mags,
                         envelope_fit=fit_exponent(w[interior], mags[interior]))
