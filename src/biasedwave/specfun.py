"""Bessel J0, the angular oscillatory integral, and its large-argument form.

The angular integral over the unit circle of exp(+-i w cos(theta)) equals
2*pi*J0(w); for w > 1 it is approximated by the stationary-phase leading term
2*sqrt(2*pi) * w**-0.5 * cos(w - pi/4) with an O(w**-1.5) remainder.  J0 itself
is scipy.special.j0 behind input validation; the tests check it against mpmath
and against adaptive quadrature of the angular integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import j0

from .fitting import FitResult, fit_exponent


def bessel_j0(z):
    """J0(z) for finite z >= 0: scipy.special.j0 behind input validation.

    Returns a float for scalar z and raises ValueError on negative or
    non-finite input.  The tests check it against mpmath and against adaptive
    quadrature of the angular integral.
    """
    arr = np.asarray(z, dtype=float)
    if arr.size and (np.min(arr) < 0.0 or not np.all(np.isfinite(arr))):
        raise ValueError("bessel_j0 requires finite z >= 0")
    out = j0(arr)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out


def angular_integral(w):
    """integral_{-pi}^{pi} exp(i w cos(theta)) dtheta = 2*pi*J0(w), real valued."""
    return 2.0 * np.pi * bessel_j0(w)


def angular_integral_quadrature(w: float) -> float:
    """Direct adaptive quadrature of cos(w cos(theta)); independent check path.

    The sine component vanishes by the theta -> -theta symmetry, so only the
    cosine part is integrated (over half the range, doubled).
    """
    w = float(w)
    if w < 0.0 or not np.isfinite(w):
        raise ValueError("angular_integral_quadrature requires finite w >= 0")
    limit = max(60, int(10 * w / np.pi) + 10)
    val, _ = quad(lambda theta: np.cos(w * np.cos(theta)), 0.0, np.pi,
                  limit=limit, epsabs=1e-12, epsrel=1e-12)
    return 2.0 * val


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
    if not (0.0 < w_min < w_max):
        raise ValueError("need 0 < w_min < w_max")
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
