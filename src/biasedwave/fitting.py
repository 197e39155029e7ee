"""Log-log power-law exponent fitting used by the scaling experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (log x, log y)."""

    slope: float
    intercept: float
    r_squared: float
    point_count: int


def fit_exponent(x, y) -> FitResult:
    """Fit y ~ C * x**slope by least squares on logarithms.

    Requires at least 3 strictly positive finite points and two distinct x
    values; the slope is invariant under rescaling either axis.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValueError(f"need at least 3 points to fit an exponent, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("fit data must be finite")
    if np.min(x) <= 0.0 or np.min(y) <= 0.0:
        raise ValueError("fit data must be strictly positive")
    lx = np.log(x)
    ly = np.log(y)
    if np.all(lx == lx[0]):
        raise ValueError("x must take at least two distinct values")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r_squared=r_squared, point_count=int(x.size))
