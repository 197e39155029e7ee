"""Oscillatory pair integrals, their decay bounds, and the circulant kernel.

The pair integral between directions separated by chord distance d is

    I(d) = integral a(lam**alpha |x|)**2 * exp(i*lam*x.(xi_j - xi_l)) dx
         = 2*pi * integral_0^{2 lam**-alpha} a(lam**alpha r)**2 J0(lam d r) r dr,

real by radial symmetry.  Substituting t = lam**alpha * r reduces everything to
one frequency-free profile W(s) = 2*pi*integral_0^2 a(t)^2 J0(s t) t dt with
s = lam**(1-alpha) * d, so I(d) = lam**(-2*alpha) * W(s).  For equispaced
directions the matrix (I_jl) is a symmetric circulant, positive semidefinite as
the Gram matrix of the windowed plane waves, and is diagonalised by the DFT.

Kernels read W from one piecewise-Chebyshev table on [0, S_CUT], zero beyond.
The table is committed as float.hex literals in _wtable.py, so building a
kernel does no quadrature.  _table_panel generates each piece and verifies it
against direct quadrature; tests/test_oscint.py regenerates every piece under
that check and requires _wtable.py to equal profile_table_source() byte for
byte.  After a change to the generator, rewrite _wtable.py with the command in
its docstring.  The pair integral itself stays a direct quadrature, the oracle
for the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _wtable
from .model import (SUPPORT_RADIUS, WaveParams, _derivative_bounds, build_cutoff,
                    build_directions, cutoff_value)
from .specfun import bessel_j0

GL_ORDER = 12
GL_REFINE_ORDER = 16
PAIR_REL_TOL = 1e-8
MAX_KERNEL_SIZE = 1_000_000
KERNEL_MEMO_SIZE = 32  # > the 18 geometries of sweep_ladder, the largest in-repo sweep
MAX_GRID_NODES = 100_000_000
MAX_GRID_LAMBDA_RATIO = 512.0
GRID_POINTS_PER_WAVELENGTH = 12
PSD_TOL = 1e-9
TABLE_PANEL_WIDTH = 32.0
TABLE_PANELS = 19
TABLE_DEGREE = 64
S_CUT = TABLE_PANELS * TABLE_PANEL_WIDTH
_BLOCK_NODES = 1 << 18  # J0 arguments per block; bounds the temporaries
_REGENERATE = ('PYTHONPATH=src python -c "import pathlib, biasedwave.oscint as o; '
               "pathlib.Path(o.__file__).with_name('_wtable.py')"
               '.write_text(o.profile_table_source())"')


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


def _table_panel(index: int):
    """Chebyshev coefficients of W on [index, index + 1] * TABLE_PANEL_WIDTH.

    The generator of the committed table: runtime code reads _TABLE instead.
    The node values come from one order-GL_ORDER panel rule sized for the
    panel's largest s; index TABLE_PANELS is the zero tail on [S_CUT, 2 S_CUT].
    Each piece must match order GL_REFINE_ORDER to PAIR_REL_TOL * W(0) at its
    TABLE_DEGREE + 2 Chebyshev extrema, or QuadratureError names s.  Returns
    the coefficients and the worst drift / W(0).
    """
    h = TABLE_PANEL_WIDTH
    tail = index == TABLE_PANELS
    mid, half = (1.5 * index, 0.5 * index) if tail else (index + 0.5, 0.5)
    npanels = _panel_count(h * (mid + half))

    def direct(x, order):
        return _rule_integrals(h * (mid + half * x), npanels, order)

    coeffs = np.zeros(1) if tail else np.polynomial.chebyshev.chebinterpolate(
        lambda x: direct(x, GL_ORDER), TABLE_DEGREE)
    x = np.cos(np.pi * np.arange(TABLE_DEGREE + 2) / (TABLE_DEGREE + 1))
    drift = np.abs(np.polynomial.chebyshev.chebval(x, coeffs) - direct(x, GL_REFINE_ORDER))
    worst = int(np.argmax(drift))
    scale = 2.0 * np.pi * build_cutoff()
    if drift[worst] > PAIR_REL_TOL * scale:
        raise QuadratureError(
            f"profile table drift {drift[worst]:.3e} above {PAIR_REL_TOL:g} * W(0) "
            f"at s={h * (mid + half * x[worst]):.6g}")
    return coeffs, float(drift[worst] / scale)


def profile_table_source() -> str:
    """Text of _wtable.py: every piece from _table_panel, as float.hex literals.

    This module reads _wtable.py on import, so a change to the format below
    starts from a stub _wtable.py holding MAX_DRIFT = "0x0.0p+0" and PIECES = ().
    """
    pieces = [_table_panel(index) for index in range(TABLE_PANELS + 1)]
    lines = [
        f'"""Chebyshev coefficients of W(s) on {TABLE_PANELS} panels of width '
        f'{TABLE_PANEL_WIDTH:g} plus the zero tail.',
        "",
        "Generated by biasedwave.oscint.profile_table_source(); do not edit.",
        "Each piece is one string of float.hex literals, lowest degree first, which",
        "compiles faster than one literal per coefficient.  MAX_DRIFT is the worst",
        f"drift / W(0) of any piece against direct order-{GL_REFINE_ORDER} quadrature.  Regenerate",
        "from the repository root with",
        "",
        f"    {_REGENERATE}",
        '"""',
        "",
        f'MAX_DRIFT = "{max(drift for _, drift in pieces).hex()}"',
        "",
        "PIECES = (",
    ]
    for index, (coeffs, _) in enumerate(pieces):
        end = "inf" if index == TABLE_PANELS else f"{(index + 1) * TABLE_PANEL_WIDTH:g}"
        lines += [f"    # [{index * TABLE_PANEL_WIDTH:g}, {end})", '    """']
        hexes = [c.hex() for c in coeffs.tolist()]
        lines += ["    " + " ".join(hexes[i:i + 3]) for i in range(0, len(hexes), 3)]
        lines.append('    """,')
    lines.append(")")
    return "\n".join(lines) + "\n"


def _read_only(piece) -> np.ndarray:
    coeffs = np.array([float.fromhex(c) for c in piece.split()])
    coeffs.setflags(write=False)
    return coeffs


_TABLE = tuple(_read_only(piece) for piece in _wtable.PIECES)
TABLE_MAX_DRIFT = float.fromhex(_wtable.MAX_DRIFT)


def profile_table(s_values):
    """W(s) from the committed piecewise-Chebyshev table, exactly 0 from S_CUT on.

    Panel k covers [k, k + 1) * TABLE_PANEL_WIDTH; the zero tail covers
    [S_CUT, inf], infinity included, and was verified like a panel.  W is even
    in s; NaN raises ValueError.  Returns a float for scalar s and an array of
    the shape of s otherwise.
    """
    s_values = np.abs(np.asarray(s_values, dtype=float))
    if np.isnan(s_values).any():
        raise ValueError("profile_table: s must not be NaN")
    shape = s_values.shape
    s_values = np.minimum(s_values.ravel(), S_CUT)
    out = np.empty_like(s_values)
    panel = np.floor(s_values / TABLE_PANEL_WIDTH).astype(int)
    for index in np.unique(panel):
        sel = np.flatnonzero(panel == index)
        x = s_values[sel] / (0.5 * TABLE_PANEL_WIDTH) - (2 * index + 1)
        out[sel] = np.polynomial.chebyshev.chebval(x, _TABLE[index])
    return out.reshape(shape) if shape else float(out[0])


def pair_integral(params: WaveParams, d: float) -> float:
    """I(d) for chord separation d in [0, 2], accurate to PAIR_REL_TOL * I(0).

    Every call cross-checks the panel rule against a higher-order rule; a
    disagreement beyond PAIR_REL_TOL * I(0) raises QuadratureError rather than
    returning a silently degraded value.
    """
    if not 0.0 <= d <= 2.0:
        raise ValueError(f"chord separation must lie in [0, 2], got {d}")
    s = params.lam ** (1.0 - params.alpha) * d
    coarse = reduced_pair_integral(s)
    fine = reduced_pair_integral(s, GL_REFINE_ORDER)
    scale = 2.0 * np.pi * build_cutoff()
    if abs(coarse - fine) > PAIR_REL_TOL * scale:
        raise QuadratureError(
            f"pair integral at d={d} (s={s:.3g}) disagrees with the "
            f"order-{GL_REFINE_ORDER} refinement by {abs(coarse - fine):.3e}")
    return params.lam ** (-2.0 * params.alpha) * fine


def grid_axis(params: WaveParams,
              points_per_wavelength: int = GRID_POINTS_PER_WAVELENGTH):
    """Symmetric axis (and step h) of a tensor grid over the cutoff support.

    The step puts points_per_wavelength nodes on each wavelength 2*pi/lam.
    Refuses lam**(1-alpha) > MAX_GRID_LAMBDA_RATIO or more than MAX_GRID_NODES nodes.
    """
    ratio = params.lam ** (1.0 - params.alpha)
    if ratio > MAX_GRID_LAMBDA_RATIO:
        raise ValueError(f"grid evaluation needs lam**(1-alpha) <= "
                         f"{MAX_GRID_LAMBDA_RATIO}, got {ratio:.1f}")
    h = (2.0 * np.pi / params.lam) / points_per_wavelength
    m = int(math.ceil(SUPPORT_RADIUS * params.ball_radius / h))
    side = 2 * m + 1
    if side * side > MAX_GRID_NODES:
        raise ValueError(
            f"tensor grid would need {side * side} nodes "
            f"(> {MAX_GRID_NODES}); reduce lam**(1-alpha)")
    return h * np.arange(-m, m + 1), h


def pair_integral_2d_parts(params: WaveParams, d: float,
                           points_per_wavelength: int = GRID_POINTS_PER_WAVELENGTH):
    """Direct tensor-grid quadrature of the planar integral; oracle path.

    Returns the cosine (real) and sine (imaginary) parts separately; the sine
    part must vanish by symmetry.  The phase lam * d * x1 is constant along a
    grid row, so each part is h**2 times the phase's cos or sin dotted with
    the rows' window masses, which are summed in row blocks of bounded size.
    Refuses what grid_axis refuses.
    """
    if not 0.0 <= d <= 2.0:
        raise ValueError(f"chord separation must lie in [0, 2], got {d}")
    axis, h = grid_axis(params, points_per_wavelength)
    scaled = params.lam ** params.alpha
    rows = np.empty(axis.size)
    block = max(1, MAX_GRID_NODES // (50 * axis.size))
    for start in range(0, axis.size, block):
        r = np.hypot(axis[start:start + block, None], axis[None, :])
        rows[start:start + block] = np.sum(cutoff_value(scaled * r) ** 2, axis=1)
    phase = params.lam * d * axis
    return h * h * float(np.cos(phase) @ rows), h * h * float(np.sin(phase) @ rows)


def pair_integral_2d_oracle(params: WaveParams, d: float,
                            points_per_wavelength: int = GRID_POINTS_PER_WAVELENGTH) -> float:
    """Real part of the direct 2-d quadrature of the pair integral."""
    cos_part, _ = pair_integral_2d_parts(params, d, points_per_wavelength)
    return cos_part


def _lah_number(n: int, k: int) -> int:
    # B_{n,k}(1!, 2!, ...) = C(n-1, k-1) * n! / k!
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


def decay_constant(n: int) -> float:
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
    bounds = _derivative_bounds()
    order = bounds.shape[0] - 1
    if n > order:
        raise ValueError(f"decay order {n} exceeds tabulated derivatives ({order})")
    cap = 4 if n <= 4 else order
    directional = 0.0
    for k in range(1, cap + 1):
        directional += _lah_number(cap, k) * bounds[k]
    return 4.0 * np.pi * 2.0 ** cap * max(1.0, directional)


def decay_bound(params: WaveParams, d, n: int) -> float:
    """Upper bound c_n * lam**(-2*alpha) * (1 + d / lam**(alpha-1))**-n on |I(d)|."""
    c_n = decay_constant(n)
    d = np.asarray(d, dtype=float)
    value = (c_n * params.lam ** (-2.0 * params.alpha)
             * (1.0 + d / params.separation_scale) ** (-float(n)))
    return float(value) if value.ndim == 0 else value


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
    to roundoff because the matrix is a Gram matrix.  Both arrays are
    read-only and depend on the geometry (N, lam, alpha) alone: build_kernel
    hands the same pair to every coin of one geometry, and params carries the
    coin p that the moment functions read.
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


@lru_cache(maxsize=KERNEL_MEMO_SIZE)
def _geometry_row(n: int, lam: float, alpha: float):
    """Read-only circulant row and spectrum of one geometry; see build_kernel."""
    if n > MAX_KERNEL_SIZE:
        raise ValueError(f"kernel size {n} exceeds {MAX_KERNEL_SIZE}")
    half = n // 2
    chords = 2.0 * np.sin(np.pi * np.arange(half + 1) / n)  # build_directions' d_k
    reduced = profile_table(lam ** (1.0 - alpha) * chords)

    values = np.empty(n)
    values[:half + 1] = lam ** (-2.0 * alpha) * reduced
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
    return values, spectrum


def build_kernel(params: WaveParams) -> PairKernel:
    """The kernel of params: the circulant row from the profile table, diagonalised.

    Only separations k = 0..N//2 are looked up; the rest mirror by the chord
    symmetry d_k = d_{N-k}, which also makes the DFT exactly real.  The row
    does no quadrature: it reads the committed table, whose every piece the
    tests regenerate and check against the direct order-GL_REFINE_ORDER rule.
    The row depends on (N, lam, alpha) alone, so the last KERNEL_MEMO_SIZE
    geometries are memoised: kernels that differ only in the coin p share one
    read-only values/spectrum pair and carry their own params.
    """
    values, spectrum = _geometry_row(params.n_dirs, params.lam, params.alpha)
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
