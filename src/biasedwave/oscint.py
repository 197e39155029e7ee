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

import numpy as np
from numpy.fft import fft
from numpy.polynomial.chebyshev import chebinterpolate, chebval

from . import _wtable
from .model import (SUPPORT_RADIUS, WaveParams, _check_integer, _check_real,
                    _derivative_bounds, _panel_rule, _real_array, build_cutoff,
                    build_directions, cutoff_value)
from .specfun import bessel_j0

GL_ORDER = 12
GL_REFINE_ORDER = 16
PAIR_REL_TOL = 1e-8
MAX_KERNEL_SIZE = 1_000_000
MAX_GRID_NODES = 1 << 24  # full-grid nodes; lam**(1-alpha) 535 at 12 per wavelength
MAX_GRID_FIELD = 1 << 23  # N * t.size of a grid field; N 4096 fits q 2048
GRID_POINTS_PER_WAVELENGTH = 12
PSD_TOL = 1e-9
TABLE_PANEL_WIDTH = 32.0
TABLE_PANELS = 19
TABLE_DEGREE = 64
S_CUT = TABLE_PANELS * TABLE_PANEL_WIDTH
_BLOCK_NODES = 1 << 18  # per block: J0/table args, MC signs, grid GEMM operand, 2**N masses
_REGENERATE = ('PYTHONPATH=src python -c "import pathlib, biasedwave.oscint as o; '
               "pathlib.Path(o.__file__).with_name('_wtable.py')"
               '.write_text(o.profile_table_source())"')


class QuadratureError(RuntimeError):
    """Raised when an oscillatory quadrature misses its accuracy target."""


def _panel_count(s: float) -> int:
    """Spec'd panel budget: 8 panels per J0 period across [0, 2] plus 16 base."""
    return 8 * int(math.ceil(s / math.pi)) + 16


def _rule_integrals(s_values, npanels: int, order: int) -> np.ndarray:
    """W(s) for every s by one shared panel rule, in row blocks of bounded size."""
    s_values = np.asarray(s_values, dtype=float)
    nodes, weights = _panel_rule(0.0, SUPPORT_RADIUS, npanels, order)
    f = cutoff_value(nodes) ** 2 * nodes * weights
    out = np.empty_like(s_values)
    rows = max(1, _BLOCK_NODES // nodes.size)
    for start in range(0, s_values.size, rows):
        block = s_values[start:start + rows]
        out[start:start + rows] = 2.0 * np.pi * (bessel_j0(np.outer(block, nodes)) @ f)
    return out


def reduced_pair_integral(s: float, order: int = GL_ORDER) -> float:
    """W(s) = 2*pi * integral_0^2 a(t)^2 J0(s t) t dt by panel quadrature, s >= 0."""
    _check_real("s", s)
    if s < 0.0:
        raise ValueError(f"s must be >= 0, got {s!r}")
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

    coeffs = np.zeros(1) if tail else chebinterpolate(
        lambda x: direct(x, GL_ORDER), TABLE_DEGREE)
    x = np.cos(np.pi * np.arange(TABLE_DEGREE + 2) / (TABLE_DEGREE + 1))
    drift = np.abs(chebval(x, coeffs) - direct(x, GL_REFINE_ORDER))
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
    in s; NaN raises ValueError, as does an s that model._real_array refuses
    for its type (bools, strings, complex values, ragged nests).  |s| goes into
    the output, which is walked in blocks of _BLOCK_NODES, each panel writing W
    over the |s| it has read, so only block-sized temporaries live beside it.
    Returns a float for scalar s and an array of the shape of s otherwise.
    """
    s_values = _real_array("s", s_values, finite=False)
    out = np.abs(s_values.ravel())
    for start in range(0, out.size, _BLOCK_NODES):
        block = out[start:start + _BLOCK_NODES]
        if np.isnan(block).any():
            raise ValueError("profile_table: s must not be NaN")
        np.minimum(block, S_CUT, out=block)
        panel = np.floor(block / TABLE_PANEL_WIDTH).astype(int)
        # one sort groups the panels; np.unique would load numpy.ma
        order = np.argsort(panel, kind="stable")
        for index, sel in enumerate(np.split(order, np.cumsum(np.bincount(panel))[:-1])):
            if sel.size:
                x = block[sel] / (0.5 * TABLE_PANEL_WIDTH) - (2 * index + 1)
                block[sel] = chebval(x, _TABLE[index])
    return out.reshape(s_values.shape) if s_values.shape else float(out[0])


def _separations(d) -> np.ndarray:
    """d as a float array that _real_array admits; each entry must lie in [0, 2]."""
    arr = _real_array("chord separation", d)
    outside = (arr < 0.0) | (arr > 2.0)
    if outside.any():
        raise ValueError(f"chord separation must lie in [0, 2], got {arr[outside][0]}")
    return arr


def pair_integral(params: WaveParams, d: float) -> float:
    """I(d) for chord separation d in [0, 2], accurate to PAIR_REL_TOL * I(0).

    d is one real number, not an array or a bool.  Every call cross-checks
    the panel rule against a higher-order rule; a disagreement beyond
    PAIR_REL_TOL * I(0) raises QuadratureError rather than returning a
    silently degraded value.
    """
    _check_real("d", d)
    _separations(d)
    s = params.lam ** (1.0 - params.alpha) * d
    coarse = reduced_pair_integral(s)
    fine = reduced_pair_integral(s, GL_REFINE_ORDER)
    scale = 2.0 * np.pi * build_cutoff()
    if abs(coarse - fine) > PAIR_REL_TOL * scale:
        raise QuadratureError(
            f"pair integral at d={d} (s={s:.3g}) disagrees with the "
            f"order-{GL_REFINE_ORDER} refinement by {abs(coarse - fine):.3e}")
    return params.lam ** (-2.0 * params.alpha) * fine


def quarter_grid(params: WaveParams,
                 points_per_wavelength: int = GRID_POINTS_PER_WAVELENGTH,
                 fields=()):
    """The tensor grid over the cutoff support, folded onto x1, x2 >= 0.

    The step h puts points_per_wavelength nodes, a positive integer (not a
    bool), on each wavelength 2*pi/lam.  Returns the half axis
    t = h * arange(m + 1) of the full 2m + 1 node axis, h, and |x| and the
    folded window a_lam(x)**2 at x = (t[k], t[l]): entries off x1 = 0 count
    twice and entries off x2 = 0 twice again, so the full-grid sum of
    a_lam**2 f is the sum of window * f, f the mean over the mirror images
    (+-x1, +-x2).  Before it builds any array it refuses more than
    MAX_GRID_NODES full-grid nodes, then the first direction count N in
    fields (one per field the caller evaluates) with N * t.size > MAX_GRID_FIELD.
    """
    _check_integer("points_per_wavelength", points_per_wavelength, 1)
    h = (2.0 * np.pi / params.lam) / points_per_wavelength
    m = int(math.ceil(SUPPORT_RADIUS * params.ball_radius / h))
    side, q = 2 * m + 1, m + 1
    if side * side > MAX_GRID_NODES:
        raise ValueError(
            f"tensor grid would need {side * side} nodes "
            f"(> {MAX_GRID_NODES}); reduce lam**(1-alpha)")
    for n in fields:
        if n * q > MAX_GRID_FIELD:
            raise ValueError(f"grid field of N * q = {n} * {q} = {n * q} direction-node "
                             f"pairs exceeds {MAX_GRID_FIELD}; reduce N or lam**(1-alpha)")
    t = h * np.arange(q)
    r = np.hypot(t[:, None], t[None, :])
    window = cutoff_value(params.lam ** params.alpha * r) ** 2
    window[1:] *= 2.0
    window[:, 1:] *= 2.0
    return t, h, r, window


def pair_integral_2d_oracle(params: WaveParams, d: float,
                            points_per_wavelength: int = GRID_POINTS_PER_WAVELENGTH) -> float:
    """Direct tensor-grid quadrature of the planar pair integral; oracle path.

    The phase lam * d * x1 is constant along a grid row and even in x1, so the
    integral is h**2 times cos(lam * d * x1) over the rows x1 >= 0, dotted
    with the row sums of the quarter-plane window; the sine part cancels
    exactly.  d is one real number in [0, 2], as for pair_integral.  Refuses
    what quarter_grid refuses for a grid without fields.
    """
    _check_real("d", d)
    _separations(d)
    t, h, _, window = quarter_grid(params, points_per_wavelength)
    return h * h * float(np.cos(params.lam * d * t) @ np.sum(window, axis=1))


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
    bounds = _derivative_bounds()
    order = bounds.shape[0] - 1
    _check_integer("decay order", n, 0, order + 1)  # orders the table covers
    cap = 4 if n <= 4 else order
    directional = 0.0
    for k in range(1, cap + 1):
        directional += _lah_number(cap, k) * bounds[k]
    return 4.0 * np.pi * 2.0 ** cap * max(1.0, directional)


def decay_bound(params: WaveParams, d, n: int) -> float:
    """Bound c_n * lam**(-2*alpha) * (1 + d / lam**(alpha-1))**-n on |I(d)|, d in [0, 2]."""
    c_n = decay_constant(n)
    d = _separations(d)
    value = (c_n * params.lam ** (-2.0 * params.alpha)
             * (1.0 + d / params.separation_scale) ** (-float(n)))
    return float(value) if value.ndim == 0 else value


def dyadic_sum_check(params: WaveParams, a_exponent: float):
    """Direct separation sum against its dyadic bound scale gamma * lam**alpha.

    Computes sum over l != j of (1 + |xi_j - xi_l| / lam**(alpha-1))**-A for
    fixed j (every j gives the same value on the circulant geometry) and its
    ratio to gamma * lam**alpha.  The dyadic-decomposition bound requires
    A >= 2; smaller A, and any A that model._check_real refuses, raise
    ValueError naming the exponent.
    """
    try:
        _check_real("A", a_exponent)
        admitted = a_exponent >= 2.0
    except ValueError:
        admitted = False
    if not admitted:
        raise ValueError("dyadic bound needs a finite real exponent A >= 2 (not a bool), "
                         f"got {a_exponent!r}")
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
    read-only and depend on the geometry (N, lam, alpha) alone, so kernels
    that differ only in the coin may share them; params carries the coin p
    that the moment functions read.
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


def profile_rows(geometries) -> list:
    """W(lam**(1-alpha) * d_k), k = 0..N//2, for each geometry in geometries.

    Every geometry's arguments go to one profile_table call, which bounds its
    own temporaries; profile_table is elementwise, so each row is
    bit-identical to a call of its own.  A geometry that MAX_KERNEL_SIZE
    refuses gets None and allocates nothing; build_kernel refuses it.
    """
    sizes = [g.n_dirs // 2 + 1 if g.n_dirs <= MAX_KERNEL_SIZE else 0 for g in geometries]
    args = [g.lam ** (1.0 - g.alpha) * (2.0 * np.sin(np.pi * np.arange(size) / g.n_dirs))
            for g, size in zip(geometries, sizes)]  # build_directions' d_k
    values = profile_table(np.concatenate([np.empty(0), *args]))  # no geometries: empty
    return [row if size else None
            for row, size in zip(np.split(values, np.cumsum(sizes)[:-1]), sizes)]


def build_kernel(params: WaveParams, row=None) -> PairKernel:
    """The kernel of params: the circulant row from the profile table, diagonalised.

    row holds W at separations k = 0..N//2, as profile_rows gives it, and
    must pass model._real_array at that shape (finite, since the PSD floor
    check passes NaN); when row is None, build_kernel looks it up itself.
    The rest of the row mirrors by the chord symmetry d_k = d_{N-k}, which
    also makes the DFT exactly real.  The row does no quadrature: it reads
    the committed table, whose every piece the tests regenerate and check
    against the direct order-GL_REFINE_ORDER rule.  The read-only row and
    spectrum depend on (N, lam, alpha) alone, so a caller with several
    coins of one geometry builds once and gives each coin
    dataclasses.replace(kernel, params=...).
    """
    n, lam, alpha = params.n_dirs, params.lam, params.alpha
    if n > MAX_KERNEL_SIZE:
        raise ValueError(f"kernel size {n} exceeds {MAX_KERNEL_SIZE}")
    half = n // 2
    row = (profile_rows([params])[0] if row is None
           else _real_array("row", row, (half + 1,), f" for N = {n}"))
    values = np.empty(n)
    values[:half + 1] = lam ** (-2.0 * alpha) * row
    values[half + 1:] = values[1:n - half][::-1]  # an empty slice at N = 1
    spectrum = fft(values).real.copy()
    floor = -PSD_TOL * values[0]
    if np.min(spectrum) < floor:
        raise RuntimeError(
            f"kernel spectrum has eigenvalue {np.min(spectrum):.3e} below the "
            f"positive-semidefinite floor {floor:.3e}")
    values.setflags(write=False)
    spectrum.setflags(write=False)
    return PairKernel(values=values, spectrum=spectrum, params=params)


def kernel_matrix(kernel: PairKernel) -> np.ndarray:
    """Dense circulant matrix (I_jl); only for N <= 4096 (oracle paths)."""
    n = kernel.size
    if n > 4096:
        raise ValueError(f"dense kernel of size {n} > 4096 refused")
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return kernel.values[idx]
