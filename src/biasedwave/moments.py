"""Exact moments of the smoothed local mass and the scaling-law bounds.

With sign coefficients that are +1 with probability p (independently per
direction), the local mass Q = sum_{j,l} C_j C_l I_jl has

    E[Q]   = N * I_0 + (2p-1)**2 * sum_{j != l} I_jl,
    Var[Q] = (1-q)**2 * [S2 + S2'] + (q - q**2) * [four row/column-sum products],

where q = (2p-1)**2, S2 = sum_{j != l} I_jl**2 and S2' = sum_{j != l} I_jl I_lj.
On the circulant kernel the row sums are constant, collapsing everything to
closed forms in the first row.  The asymptotic upper/lower bounds leave their
constants unspecified, so every bound function takes CalibratedConstants that
the caller fixes once from one reference kernel with calibrate_constants (the
sweep uses the smallest ladder frequency of each (gamma, alpha)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import WaveParams, cutoff_mass
from .oscint import PairKernel, kernel_matrix

ENUMERATION_LIMIT = 20
GENERIC_VARIANCE_LIMIT = 512
DEFAULT_GAMMA_MIN = 8.0
DEFAULT_DELTA = 0.2
DEFAULT_KAPPA = 10.0
HEADROOM = 1.25


def coin_pair_moment(p: float) -> float:
    """E[C_j C_l] for independent +-1 coefficients, j != l: (2p-1)**2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return (2.0 * p - 1.0) ** 2


def exact_expectation(kernel: PairKernel) -> float:
    """N * I_0 + (2p-1)**2 * N * R via the circulant row-sum identity."""
    n = kernel.size
    q = coin_pair_moment(kernel.params.p)
    return n * kernel.diagonal + q * n * kernel.off_diagonal_row_sum


def exact_variance(kernel: PairKernel) -> float:
    """Closed-form variance on the circulant fast path.

    Symmetry gives S2' = S2 = N * sum_{k != 0} I_k**2 and each of the four
    row/column-sum products equals N * R**2.  Both terms are products of
    nonnegative floats (q * q rounds to at most q for q in [0, 1]), so the
    result is never negative; the PSD floor in build_kernel guards the
    kernel itself.
    """
    n = kernel.size
    q = coin_pair_moment(kernel.params.p)
    s2 = n * kernel.off_diagonal_square_sum
    row_products = 4.0 * n * kernel.off_diagonal_row_sum ** 2
    return (1.0 - q) ** 2 * 2.0 * s2 + (q - q * q) * row_products


def exact_variance_generic(kernel: PairKernel, p: float | None = None) -> float:
    """Double-loop variance oracle making no symmetry or circulant assumptions.

    Evaluates every sum in the two-bracket formula from the dense matrix;
    limited to N <= 512.
    """
    n = kernel.size
    if n > GENERIC_VARIANCE_LIMIT:
        raise ValueError(f"generic variance path limited to N <= {GENERIC_VARIANCE_LIMIT}")
    q = coin_pair_moment(kernel.params.p if p is None else p)
    m = kernel_matrix(kernel, max_size=GENERIC_VARIANCE_LIMIT)
    diag = np.diag(m)
    s2 = float(np.sum(m * m) - np.sum(diag ** 2))
    s2_t = float(np.sum(m * m.T) - np.sum(diag ** 2))
    row = m.sum(axis=1) - diag
    col = m.sum(axis=0) - diag
    bracket = float(row @ row + 2.0 * (row @ col) + col @ col)
    return (1.0 - q) ** 2 * (s2 + s2_t) + (q - q * q) * bracket


def enumerate_moments(kernel: PairKernel, p: float):
    """Exhaustive expectation and variance over all 2**N sign vectors.

    Each vector c contributes weight p**(#+1) * (1-p)**(#-1) and mass
    c^T (I_jl) c evaluated through the dense matrix (independently of the
    spectral fast path).  Exact up to floating point; N <= 20 only.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    n = kernel.size
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to N <= {ENUMERATION_LIMIT}, got {n}")
    m = kernel_matrix(kernel, max_size=ENUMERATION_LIMIT)
    diagonal = n * kernel.diagonal
    # every +-1 vector contributes the same diagonal mass N * I_0 exactly, so
    # enumerating only the off-diagonal part avoids cancellation against it
    np.fill_diagonal(m, 0.0)
    total = 1 << n
    masses = np.empty(total)
    weights = np.empty(total)
    chunk = min(total, 1 << 16)
    bit_cols = np.arange(n, dtype=np.uint32)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = (idx[:, None] >> bit_cols[None, :]) & 1
        signs = 2.0 * bits - 1.0
        masses[start:start + chunk] = np.einsum("ij,jk,ik->i", signs, m, signs)
        n_pos = bits.sum(axis=1)
        weights[start:start + chunk] = p ** n_pos * (1.0 - p) ** (n - n_pos)
    off_mean = float(weights @ masses)
    variance = float(weights @ (masses - off_mean) ** 2)
    return diagonal + off_mean, variance


@dataclass(frozen=True)
class CalibratedConstants:
    """Bound constants fixed at a small reference frequency.

    The asymptotic bounds only pin powers of lam and gamma; the constants in
    front are calibrated from the exact kernel at the reference point, with the
    symmetric headroom factor HEADROOM absorbing finite-frequency oscillation
    of the normalised ratios.  upper-type constants are scaled up by the
    headroom, lower-type down.
    """

    k_upper: float
    c_lower: float
    c1_diag: float
    c2_cross: float
    headroom: float
    reference_lam: float
    reference_gamma: float
    reference_alpha: float


def calibrate_constants(kernel: PairKernel) -> CalibratedConstants:
    """Fix bound constants from one (small-lam) kernel, with headroom HEADROOM.

    k_upper / c_lower scale the off-diagonal expectation term against
    gamma**2 * lam**(1-alpha); c1_diag and c2_cross scale the two variance
    terms against gamma**2 * lam**(1-3*alpha) and gamma**3 * lam**(1-2*alpha).
    """
    pr = kernel.params
    n = kernel.size
    cross_scale = pr.gamma ** 2 * pr.lam ** (1.0 - pr.alpha)
    s_cross = n * kernel.off_diagonal_row_sum
    ratio = max(s_cross, 0.0) / cross_scale
    var_diag = 2.0 * n * kernel.off_diagonal_square_sum
    var_cross = 4.0 * n * kernel.off_diagonal_row_sum ** 2
    return CalibratedConstants(
        k_upper=HEADROOM * ratio,
        c_lower=ratio / HEADROOM,
        c1_diag=HEADROOM * var_diag / (pr.gamma ** 2 * pr.lam ** (1.0 - 3.0 * pr.alpha)),
        c2_cross=HEADROOM * var_cross / (pr.gamma ** 3 * pr.lam ** (1.0 - 2.0 * pr.alpha)),
        headroom=HEADROOM,
        reference_lam=pr.lam,
        reference_gamma=pr.gamma,
        reference_alpha=pr.alpha,
    )


def expectation_bounds(params: WaveParams, mode: str,
                       constants: CalibratedConstants,
                       gamma_min: float = DEFAULT_GAMMA_MIN):
    """Numeric (lower, upper) envelope for the exact expectation.

    upper = 4*pi*gamma*lam**(1-2*alpha) + K*(2p-1)**2*gamma**2*lam**(1-alpha);
    the lower bound has the diagonal constant pi and the calibrated constant c,
    and is only meaningful for dense direction sets, so two_sided mode requires
    gamma >= gamma_min.  Returns (None, upper) in upper_only mode.
    """
    if mode not in ("upper_only", "two_sided"):
        raise ValueError(f"mode must be 'upper_only' or 'two_sided', got {mode!r}")
    if mode == "two_sided" and params.gamma < gamma_min:
        raise ValueError(
            f"two-sided bounds need gamma >= {gamma_min}, got {params.gamma}")
    q = coin_pair_moment(params.p)
    diag_scale = params.gamma * params.lam ** (1.0 - 2.0 * params.alpha)
    cross_scale = params.gamma ** 2 * params.lam ** (1.0 - params.alpha)
    upper = 4.0 * np.pi * diag_scale + constants.k_upper * q * cross_scale
    if mode == "upper_only":
        return None, float(upper)
    lower = np.pi * diag_scale + constants.c_lower * q * cross_scale
    return float(lower), float(upper)


def variance_bound(params: WaveParams, constants: CalibratedConstants) -> float:
    """Two-term variance bound C1*lam**(1-3a)*g**2*(1-q)**2 + C2*g**3*lam**(1-2a)*q*(1-q)."""
    q = coin_pair_moment(params.p)
    term_diag = (constants.c1_diag * params.lam ** (1.0 - 3.0 * params.alpha)
                 * params.gamma ** 2 * (1.0 - q) ** 2)
    term_cross = (constants.c2_cross * params.gamma ** 3
                  * params.lam ** (1.0 - 2.0 * params.alpha) * q * (1.0 - q))
    return float(term_diag + term_cross)


def build_report(kernel: PairKernel,
                 constants: CalibratedConstants,
                 delta: float = DEFAULT_DELTA,
                 kappa: float = DEFAULT_KAPPA,
                 gamma_min: float = DEFAULT_GAMMA_MIN) -> dict:
    """The 15 moment columns of one sweep row, in SWEEP_COLUMNS order.

    Normalisation divides the mass by gamma * lam (the fair-coin expectation
    scale), so the fair-coin E_norm equals the reference volume
    vol_norm = 2*pi*m2*lam**(-2*alpha) up to direction-count rounding.
    E_lower is None below gamma_min, where only the upper envelope holds.
    With ratio = E_norm / vol_norm and Var_norm / vol_norm**2 <= delta, `class`
    is "strong" when |ratio - 1| <= delta and "weak" when
    1/kappa <= ratio <= kappa; otherwise it is "none".  threshold_ok records
    the analytic criterion |p - 0.5| <= lam**(-alpha/2) * gamma**(-1/2).
    """
    params = kernel.params
    expectation = exact_expectation(kernel)
    variance = exact_variance(kernel)
    mode = "two_sided" if params.gamma >= gamma_min else "upper_only"
    lower, upper = expectation_bounds(params, mode=mode, constants=constants,
                                      gamma_min=gamma_min)
    scale = params.gamma * params.lam
    e_norm = expectation / scale
    var_norm = variance / scale ** 2
    vol_norm = cutoff_mass(params)
    ratio = e_norm / vol_norm
    var_ok = var_norm / vol_norm ** 2 <= delta
    if abs(ratio - 1.0) <= delta and var_ok:
        label = "strong"
    elif 1.0 / kappa <= ratio <= kappa and var_ok:
        label = "weak"
    else:
        label = "none"
    threshold_scale = params.lam ** (-params.alpha / 2.0) / math.sqrt(params.gamma)
    return {"lambda": params.lam, "gamma": params.gamma, "alpha": params.alpha,
            "p": params.p, "N": params.n_dirs, "E": expectation, "Var": variance,
            "E_norm": e_norm, "Var_norm": var_norm, "vol_norm": vol_norm,
            "E_upper": upper, "E_lower": lower,
            "Var_upper": variance_bound(params, constants=constants),
            "class": label,
            # tiny slack keeps points constructed exactly on the boundary inside it
            "threshold_ok": bool(abs(params.p - 0.5)
                                 <= threshold_scale * (1.0 + 1e-12))}
