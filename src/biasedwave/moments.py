"""Exact moments of the smoothed local mass and the scaling-law bounds.

With sign coefficients that are +1 with probability p (independently per
direction), the local mass Q = sum_{j,l} C_j C_l I_jl has

    E[Q]   = N * I_0 + (2p-1)**2 * sum_{j != l} I_jl,
    Var[Q] = (1-q)**2 * [S2 + S2'] + (q - q**2) * [four row/column-sum products],

where q = (2p-1)**2, S2 = sum_{j != l} I_jl**2 and S2' = sum_{j != l} I_jl I_lj.
On the circulant kernel the row sums are constant, collapsing both to two-term
forms t0 + q*t1 and (1-q)**2*t2 + (q-q**2)*t3 in the first row
(_moment_terms).  The asymptotic bounds measure each term against a scale law
in lam and gamma (_law_scales) and leave the constants in front unspecified:
calibrate_constants fixes them from one reference kernel (the sweep uses the
smallest ladder frequency of each (gamma, alpha)) and every bound function
takes the dict it returns.
"""

from __future__ import annotations

import math

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


def _moment_terms(kernel: PairKernel):
    """(t0, t1, t2, t3) = (N*I_0, N*R, 2N*S, 4N*R**2) with E = t0 + q*t1 and
    Var = (1-q)**2 * t2 + (q - q**2) * t3.

    R = sum_{k != 0} I_k and S = sum_{k != 0} I_k**2.  Symmetry gives
    S2' = S2 = N * S and each of the four row/column-sum products equals
    N * R**2.  Both variance terms are products of nonnegative floats (q * q
    rounds to at most q for q in [0, 1]), so the variance is never negative;
    the PSD floor in build_kernel guards the kernel itself.
    """
    n = kernel.size
    off = kernel.values[1:]
    row_sum = float(np.sum(off))
    return (n * kernel.diagonal, n * row_sum, 2.0 * n * float(np.sum(off ** 2)),
            4.0 * n * row_sum ** 2)


def _law_scales(params: WaveParams):
    """(s0, s1, s2, s3), the lam and gamma scale law of each moment term t0..t3."""
    g, lam, a = params.gamma, params.lam, params.alpha
    return (g * lam ** (1.0 - 2.0 * a), g ** 2 * lam ** (1.0 - a),
            g ** 2 * lam ** (1.0 - 3.0 * a), g ** 3 * lam ** (1.0 - 2.0 * a))


def exact_expectation(kernel: PairKernel) -> float:
    """N * I_0 + (2p-1)**2 * N * R via the circulant row-sum identity."""
    t0, t1, _, _ = _moment_terms(kernel)
    return t0 + coin_pair_moment(kernel.params.p) * t1


def exact_variance(kernel: PairKernel) -> float:
    """Closed-form variance on the circulant fast path; see _moment_terms."""
    _, _, t2, t3 = _moment_terms(kernel)
    q = coin_pair_moment(kernel.params.p)
    return (1.0 - q) ** 2 * t2 + (q - q * q) * t3


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


def _half_table(k: int, p: float):
    """+-1 rows of all 2**k bit patterns (entry i is bit i) and their coin weights."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    n_pos = bits.sum(axis=1)
    return 2.0 * bits - 1.0, p ** n_pos * (1.0 - p) ** (k - n_pos)


def enumerate_moments(kernel: PairKernel, p: float):
    """Exhaustive expectation and variance over all 2**N sign vectors.

    Every mass comes from the dense M = (I_jl) with its diagonal zeroed, with no
    symmetry or circulant assumption.  Splitting c = (a, b) after lo = N//2 entries,
    Q_off(c) = a^T M_aa a + b^T M_bb b + b^T (M_ba + M_ab^T) a: one GEMM over the half
    sign tables gives all 2**N masses, and the weight p**(#+1) * (1-p)**(#-1)
    factors over the halves.  N * I_0, shared by every c, is added last and the
    variance taken in two passes, so nothing cancels.  N <= 20: three 2**N-double arrays.
    """
    coin_pair_moment(p)
    n = kernel.size
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to N <= {ENUMERATION_LIMIT}, got {n}")
    m = kernel_matrix(kernel, max_size=ENUMERATION_LIMIT)
    np.fill_diagonal(m, 0.0)
    lo = n // 2
    (a, wa), (b, wb) = _half_table(lo, p), _half_table(n - lo, p)
    qa = np.sum((a @ m[:lo, :lo]) * a, axis=1)
    qb = np.sum((b @ m[lo:, lo:]) * b, axis=1)
    masses = (b @ (m[lo:, :lo] + m[:lo, lo:].T)) @ a.T + qb[:, None] + qa[None, :]
    weights = np.outer(wb, wa)
    off_mean = float(np.vdot(weights, masses))
    return n * kernel.diagonal + off_mean, float(np.vdot(weights, (masses - off_mean) ** 2))


def calibrate_constants(kernel: PairKernel) -> dict:
    """The bound constants of one (small-lam) reference kernel, as the meta row.

    Each constant is a moment term over its scale law at the reference, with
    headroom HEADROOM absorbing finite-frequency oscillation of the ratios:
    k_upper / c_lower scale the off-diagonal expectation term t1 (clipped at
    0), c1_diag and c2_cross the two variance terms t2 and t3.  Upper-type
    constants are scaled up by the headroom, lower-type down.
    """
    pr = kernel.params
    _, t1, t2, t3 = _moment_terms(kernel)
    _, s1, s2, s3 = _law_scales(pr)
    ratio = max(t1, 0.0) / s1
    return {"k_upper": HEADROOM * ratio, "c_lower": ratio / HEADROOM,
            "c1_diag": HEADROOM * t2 / s2, "c2_cross": HEADROOM * t3 / s3,
            "headroom": HEADROOM, "reference_lam": pr.lam,
            "reference_gamma": pr.gamma, "reference_alpha": pr.alpha}


def expectation_bounds(params: WaveParams, constants: dict,
                       gamma_min: float = DEFAULT_GAMMA_MIN):
    """Numeric (lower, upper) envelope for the exact expectation.

    upper = 4*pi*s0 + K*(2p-1)**2*s1; the lower bound has the diagonal
    constant pi and the calibrated constant c, and is only meaningful for
    dense direction sets, so it is None below gamma_min.
    """
    q = coin_pair_moment(params.p)
    s0, s1, _, _ = _law_scales(params)
    upper = 4.0 * np.pi * s0 + constants["k_upper"] * q * s1
    if params.gamma < gamma_min:
        return None, float(upper)
    return float(np.pi * s0 + constants["c_lower"] * q * s1), float(upper)


def variance_bound(params: WaveParams, constants: dict) -> float:
    """Two-term variance bound C1*s2*(1-q)**2 + C2*s3*q*(1-q)."""
    q = coin_pair_moment(params.p)
    _, _, s2, s3 = _law_scales(params)
    return float(constants["c1_diag"] * s2 * (1.0 - q) ** 2
                 + constants["c2_cross"] * s3 * q * (1.0 - q))


def build_report(kernel: PairKernel,
                 constants: dict,
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
    lower, upper = expectation_bounds(params, constants, gamma_min)
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
