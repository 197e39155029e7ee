"""Oscillatory pair integrals, their decay bounds, and the circulant kernel.

The pair integral between directions separated by chord distance d is

    I(d) = integral a(lam**alpha |x|)**2 * exp(i*lam*x.(xi_j - xi_l)) dx
         = 2*pi * integral_0^{2 lam**-alpha} a(lam**alpha r)**2 J0(lam d r) r dr,

real by radial symmetry.  Substituting t = lam**alpha * r reduces everything to
one frequency-free profile W(s) = 2*pi*integral_0^2 a(t)^2 J0(s t) t dt with
s = lam**(1-alpha) * d, so I(d) = lam**(-2*alpha) * W(s).  For equispaced
directions the matrix (I_jl) is a symmetric circulant, positive semidefinite as
the Gram matrix of the windowed plane waves, and is diagonalised by the DFT.

Kernels read W from one piecewise-Chebyshev table on [0, S_CUT], filled panel
by panel on first use and shared by every kernel of the process; the pair
integral itself stays a direct quadrature, the oracle for that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (SUPPORT_RADIUS, CutoffSpec, WaveParams, build_cutoff,
                    build_directions, cutoff_mass, cutoff_value)
from .specfun import bessel_j0

GL_ORDER = 12
GL_REFINE_ORDER = 16
PAIR_REL_TOL = 1e-8
KERNEL_CHECK_STRIDE = 64
MAX_KERNEL_SIZE = 1_000_000
MAX_GRID_NODES = 100_000_000
PSD_TOL = 1e-9
TABLE_PANEL_WIDTH = 32.0
TABLE_PANELS = 19
TABLE_DEGREE = 64
S_CUT = TABLE_PANELS * TABLE_PANEL_WIDTH
_BLOCK_NODES = 1 << 18  # J0 arguments per block; bounds the temporaries


class QuadratureError(RuntimeError):
    """Raised when an oscillatory quadrature misses its accuracy target."""


def _panel_count(s: float) -> int:
    """Spec'd panel budget: 8 panels per J0 period across [0, 2] plus 16 base."""
    return 8 * int(math.ceil(s / math.pi)) + 16


@lru_cache(maxsize=64)
def _panel_rule(npanels: int, order: int):
    """Gauss-Legendre nodes/weights tiled over npanels equal panels of [0, 2]."""
    x, w = np.polynomial.legendre.leggauss(order)
    h = SUPPORT_RADIUS / npanels
    starts = h * np.arange(npanels)
    nodes = (starts[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * w, npanels)
    return nodes, weights


def _rule_integrals(s_values, npanels: int, order: int) -> np.ndarray:
    """W(s) for every s by one shared panel rule, in row blocks of bounded size."""
    s_values = np.asarray(s_values, dtype=float)
    nodes, weights = _panel_rule(npanels, order)
    f = cutoff_value(nodes) ** 2 * nodes * weights
    out = np.empty_like(s_values)
    rows = max(1, _BLOCK_NODES // nodes.size)
    for start in range(0, s_values.size, rows):
        block = s_values[start:start + rows]
        out[start:start + rows] = 2.0 * np.pi * (bessel_j0(np.outer(block, nodes)) @ f)
    return out


def reduced_pair_integral(s: float, order: int = GL_ORDER) -> float:
    """W(s) = 2*pi * integral_0^2 a(t)^2 J0(s t) t dt by panel quadrature."""
    return float(_rule_integrals([s], _panel_count(s), order)[0])


@lru_cache(maxsize=None)
def _table_panel(index: int) -> np.ndarray:
    """Chebyshev coefficients of W on [index, index + 1] * TABLE_PANEL_WIDTH.

    The node values come from one order-GL_ORDER panel rule sized for the
    panel's largest s.  Built the first time a kernel needs the panel.
    """
    h = TABLE_PANEL_WIDTH
    npanels = _panel_count(h * (index + 1))
    coeffs = np.polynomial.chebyshev.chebinterpolate(
        lambda x: _rule_integrals(h * (index + 0.5 + 0.5 * x), npanels, GL_ORDER),
        TABLE_DEGREE)
    coeffs.setflags(write=False)
    return coeffs


def profile_table(s_values) -> np.ndarray:
    """W(s) from the cached piecewise-Chebyshev table, exactly 0 beyond S_CUT.

    Direct quadrature puts |W(s)| at the roundoff level (below 1e-15 * W(0))
    from s = S_CUT on, so the zero tail loses nothing.  W is even in s.
    """
    s_values = np.abs(np.asarray(s_values, dtype=float))
    out = np.zeros_like(s_values)
    panel = np.minimum(np.floor(s_values / TABLE_PANEL_WIDTH),
                       TABLE_PANELS - 1).astype(int)
    panel[s_values > S_CUT] = -1
    for index in np.unique(panel[panel >= 0]):
        sel = np.flatnonzero(panel == index)
        x = s_values[sel] / (0.5 * TABLE_PANEL_WIDTH) - (2 * index + 1)
        out[sel] = np.polynomial.chebyshev.chebval(x, _table_panel(int(index)))
    return out


def pair_integral(params: WaveParams, d: float, rtol: float = PAIR_REL_TOL) -> float:
    """I(d) for chord separation d in [0, 2], accurate to rtol relative to I(0).

    Every call cross-checks the panel rule against a higher-order rule; a
    disagreement beyond rtol * I(0) raises QuadratureError rather than
    returning a silently degraded value.
    """
    if not 0.0 <= d <= 2.0:
        raise ValueError(f"chord separation must lie in [0, 2], got {d}")
    s = params.lam ** (1.0 - params.alpha) * d
    coarse = reduced_pair_integral(s)
    fine = reduced_pair_integral(s, GL_REFINE_ORDER)
    scale = 2.0 * np.pi * build_cutoff().squared_radial_mass
    if abs(coarse - fine) > rtol * scale:
        raise QuadratureError(
            f"pair integral at d={d} (s={s:.3g}) disagrees with the "
            f"order-{GL_REFINE_ORDER} refinement by {abs(coarse - fine):.3e}")
    return params.lam ** (-2.0 * params.alpha) * fine


def pair_integral_2d_parts(params: WaveParams, d: float,
                           points_per_wavelength: int = 12):
    """Direct tensor-grid quadrature of the planar integral; oracle path.

    Returns the cosine (real) and sine (imaginary) parts separately; the sine
    part must vanish by symmetry.  Refuses grids above MAX_GRID_NODES nodes.
    """
    if not 0.0 <= d <= 2.0:
        raise ValueError(f"chord separation must lie in [0, 2], got {d}")
    half = SUPPORT_RADIUS * params.ball_radius
    h = (2.0 * np.pi / params.lam) / points_per_wavelength
    m = int(math.ceil(half / h))
    side = 2 * m + 1
    if side * side > MAX_GRID_NODES:
        raise ValueError(
            f"2-d oracle grid would need {side * side} nodes "
            f"(> {MAX_GRID_NODES}); reduce lam**(1-alpha)")
    axis = h * np.arange(-m, m + 1)
    scaled = params.lam ** params.alpha
    cos_total = 0.0
    sin_total = 0.0
    phase = params.lam * d * axis
    cos_x1 = np.cos(phase)
    sin_x1 = np.sin(phase)
    chunk = max(1, MAX_GRID_NODES // (50 * side))
    for start in range(0, side, chunk):
        rows = axis[start:start + chunk]
        r = np.hypot(rows[:, None], axis[None, :])
        a2 = cutoff_value(scaled * r) ** 2
        cos_total += float(np.sum(a2 * cos_x1[start:start + chunk, None]))
        sin_total += float(np.sum(a2 * sin_x1[start:start + chunk, None]))
    return h * h * cos_total, h * h * sin_total


def pair_integral_2d_oracle(params: WaveParams, d: float,
                            points_per_wavelength: int = 12) -> float:
    """Real part of the direct 2-d quadrature of the pair integral."""
    cos_part, _ = pair_integral_2d_parts(params, d, points_per_wavelength)
    return cos_part


def _lah_number(n: int, k: int) -> int:
    # B_{n,k}(1!, 2!, ...) = C(n-1, k-1) * n! / k!
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


def decay_constant(spec: CutoffSpec, n: int) -> float:
    """Constant c_n of the integration-by-parts decay bound, order n <= 8.

    The planar directional derivatives of a(|y|)^2 on the annulus |y| >= 1 are
    bounded by sum_k L(n,k) * sup|d^k a^2| with Lah numbers L(n,k), because the
    axis derivatives of |y| there are below k! (verified numerically).  The
    factor 2**cap merges the oscillatory and no-oscillation regimes into the
    single (1 + d/scale)**-n form, and 4*pi is the support volume factor.  One
    shared constant per band (n <= 4, n <= 8) keeps the bound monotone in n.
    """
    if n < 0:
        raise ValueError("decay order must be non-negative")
    order = spec.derivative_bounds.shape[0] - 1
    if n > order:
        raise ValueError(f"decay order {n} exceeds tabulated derivatives ({order})")
    cap = 4 if n <= 4 else order
    directional = 0.0
    for k in range(1, cap + 1):
        directional += _lah_number(cap, k) * spec.derivative_bounds[k]
    return 4.0 * np.pi * 2.0 ** cap * max(1.0, directional)


def decay_bound(params: WaveParams, d, n: int) -> float:
    """Upper bound c_n * lam**(-2*alpha) * (1 + d / lam**(alpha-1))**-n on |I(d)|."""
    spec = build_cutoff()
    c_n = decay_constant(spec, n)
    d = np.asarray(d, dtype=float)
    value = (c_n * params.lam ** (-2.0 * params.alpha)
             * (1.0 + d / params.separation_scale) ** (-float(n)))
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class DecayBoundParams:
    """Order and constant of one decay bound; order >= 2 inside dyadic sums."""

    order: int
    constant: float


def dyadic_sum_check(params: WaveParams, a_exponent: float):
    """Direct separation sum against its dyadic bound scale gamma * lam**alpha.

    Computes sum over l != j of (1 + |xi_j - xi_l| / lam**(alpha-1))**-A for
    fixed j (every j gives the same value on the circulant geometry) and its
    ratio to gamma * lam**alpha.  The dyadic-decomposition bound requires
    A >= 2; smaller A is rejected.
    """
    if a_exponent < 2.0:
        raise ValueError(f"dyadic bound needs exponent A >= 2, got {a_exponent}")
    chords = build_directions(params).chord[1:]
    direct_sum = float(np.sum((1.0 + chords / params.separation_scale)
                              ** (-float(a_exponent))))
    ratio = direct_sum / (params.gamma * params.lam ** params.alpha)
    return direct_sum, ratio


@dataclass(frozen=True)
class PairKernel:
    """First circulant row I_k and spectrum of the pair-integral matrix.

    values[k] applies to every direction pair with index separation k mod N;
    the spectrum holds the N real eigenvalues (DFT of the row), nonnegative up
    to roundoff because the matrix is a Gram matrix.
    """

    values: np.ndarray
    spectrum: np.ndarray
    params: WaveParams

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def diagonal(self) -> float:
        """I_0, the un-oscillated mass integral."""
        return float(self.values[0])

    @property
    def off_diagonal_row_sum(self) -> float:
        """R = sum_{k != 0} I_k; the full off-diagonal double sum is N * R."""
        return float(np.sum(self.values[1:]))

    @property
    def off_diagonal_square_sum(self) -> float:
        """sum_{k != 0} I_k**2; the double sum over j != l equals N times this."""
        return float(np.sum(self.values[1:] ** 2))


def build_kernel(params: WaveParams, rtol: float = PAIR_REL_TOL) -> PairKernel:
    """Assemble the circulant row from the profile table and diagonalise it.

    Only separations k = 0..N//2 are looked up; the rest mirror by the chord
    symmetry d_k = d_{N-k}, which also makes the DFT exactly real.  A strided
    subset of entries (always including the largest separation) is
    re-integrated directly at a finer quadrature order; any drift beyond rtol
    relative to I_0 raises QuadratureError naming the offending separations.
    """
    n = params.n_dirs
    if n > MAX_KERNEL_SIZE:
        raise ValueError(f"kernel size {n} exceeds {MAX_KERNEL_SIZE}")
    half = n // 2
    chords = build_directions(params).chord[:half + 1]
    s_values = params.lam ** (1.0 - params.alpha) * chords
    reduced = profile_table(s_values)

    check_idx = np.unique(np.r_[np.arange(0, half + 1, KERNEL_CHECK_STRIDE), half])
    refined = np.array([reduced_pair_integral(s, GL_REFINE_ORDER)
                        for s in s_values[check_idx]])
    scale = 2.0 * np.pi * build_cutoff().squared_radial_mass
    drift = np.abs(reduced[check_idx] - refined)
    if np.any(drift > rtol * scale):
        bad = check_idx[drift > rtol * scale]
        raise QuadratureError(
            f"kernel quadrature drift above {rtol:g} * I0 at separations {bad.tolist()}")

    values = np.empty(n)
    values[:half + 1] = params.lam ** (-2.0 * params.alpha) * reduced
    if n > 1:
        values[half + 1:] = values[1:n - half][::-1]
    spectrum = np.fft.fft(values).real.copy()
    floor = -PSD_TOL * values[0]
    if np.min(spectrum) < floor:
        raise RuntimeError(
            f"kernel spectrum has eigenvalue {np.min(spectrum):.3e} below the "
            f"positive-semidefinite floor {floor:.3e}")
    values.setflags(write=False)
    spectrum.setflags(write=False)
    return PairKernel(values=values, spectrum=spectrum, params=params)


def kernel_matrix(kernel: PairKernel, max_size: int = 4096) -> np.ndarray:
    """Dense circulant matrix (I_jl); only for modest N (oracle paths)."""
    n = kernel.size
    if n > max_size:
        raise ValueError(f"dense kernel of size {n} > {max_size} refused")
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return kernel.values[idx]


def export_kernel_csv(kernel: PairKernel, path) -> None:
    """Write k, d_k, I_k, mu_k rows with 17 significant digits."""
    chord = build_directions(kernel.params).chord
    with open(path, "w", newline="") as fh:
        fh.write("k,d_k,I_k,mu_k\n")
        for k in range(kernel.size):
            fh.write(f"{k},{chord[k]:.16e},{kernel.values[k]:.16e},"
                     f"{kernel.spectrum[k]:.16e}\n")
