"""Coefficient sampling, per-sample mass evaluation, and discretisation probes.

Sampling is random-access: under master seed s, sample i takes the
M = ceil(N / 2) raw words at positions i * M ... (i + 1) * M - 1 of
PCG64DXSM(s), so the samples sit end to end in one stream, and sign j is +1
where the j-th 32-bit half of those words (low half first) falls below
ceil(p * 2**32).  A sign is a pure function of (s, i, N, j), so results are
reproducible under any execution schedule, and the coin is
Bernoulli(ceil(p * 2**32) / 2**32), within 2**-32 of p.  A block of samples
seeds one PCG64DXSM bit generator through SeedSequence(s), jumps to its first
word by advance and draws the whole stretch; no OS entropy is drawn.  Monte
Carlo walks sign blocks of oscint._BLOCK_NODES doubles on a thread pool with
one worker per CPU of the process's affinity; the block boundaries depend only
on N and the sample count, so the mc_* columns do not depend on the worker
count.  Masses use the circulant diagonalisation
Q(c) = sum_m mu_m |c_hat_m|**2 / N, turning an O(N**2) quadratic form into a
real-input FFT over the half spectrum; Monte Carlo and single-sample masses
share both steps.  The planar-grid oracles sum over mirror-paired directions,
a quarter of N for even N, and walk row blocks of the quarter grid under the
same budget.  The module also probes how well equispaced direction sums
reproduce their angular integrals (Riemann/Darboux error and the pairwise
aggregate that the moment bounds are built from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft
from numpy.random import PCG64DXSM

from . import oscint
from .fitting import fit_exponent
from .model import (WaveParams, _check_integer, _real_array, build_directions,
                    build_params)
from .oscint import (GRID_POINTS_PER_WAVELENGTH, PairKernel, dyadic_sum_check,
                     quarter_grid)
from .specfun import bessel_j0

MIN_MC_SAMPLES = 100
_COIN_BITS = 32  # a 64-bit raw word gives two draws
# the sign stream of _keyed_signs, as a run's metadata records it beside the key
SAMPLING = {"bit_generator": "PCG64DXSM", "words_per_sample": "ceil(N / 2)",
            "draws_per_word": 64 // _COIN_BITS, "coin_resolution": 2.0 ** -_COIN_BITS}
_OSC_SUBSAMPLES = 17


def _keyed_signs(seed: int, start: int, out: np.ndarray, p: float) -> np.ndarray:
    """Signs of samples start, start+1, ... into the rows of `out`, in place.

    With M = ceil(N / 2), row r holds sample i = start + r: the M raw words at
    positions i * M ... (i + 1) * M - 1 of PCG64DXSM(seed), so the rows are one
    stretch of one stream.  Sign j is +1 where the j-th 32-bit half of those
    words, low half first, falls below ceil(p * 2**32).  One bit generator,
    seeded through SeedSequence(seed) without OS entropy, jumps to the block's
    first word by advance(start * M) and draws the stretch in chunks of whole
    rows of at most oscint._BLOCK_NODES // 8 words (or one row), each compared
    straight into its rows.  seed and start must be integers (not bools) in
    [0, 2**64); neither is coerced.
    """
    for name, value in (("seed", seed), ("sample_index", start)):
        _check_integer(name, value, 0, 2 ** 64)
    rows, n = out.shape
    words = -(-n // 2)
    bitgen = PCG64DXSM(seed)
    bitgen.advance(int(start) * words)  # the period is 2**128
    threshold = math.ceil(p * 2 ** _COIN_BITS)
    chunk = max(1, oscint._BLOCK_NODES // 8 // words)
    for first in range(0, rows, chunk):
        signs = out[first:first + chunk]
        draws = bitgen.random_raw(len(signs) * words).astype("<u8", copy=False).view("<u4")
        np.less(draws.reshape(len(signs), 2 * words)[:, :n], threshold, out=signs)
        signs *= 2.0
        signs -= 1.0
    return out


def _block_masses(kernel: PairKernel, signs: np.ndarray,
                  spectrum: np.ndarray | None = None) -> np.ndarray:
    """Masses of the sign vectors in the rows of `signs`.

    The spectrum of the symmetric kernel and |c_hat_m| of a real c are both
    even in m, so bins m and N-m of Q(c) = sum_m mu_m |c_hat_m|**2 / N agree:
    the real-input FFT gives bins 0..N//2, of which 1..(N-1)//2 count twice.
    The FFT writes into `spectrum` (complex, one row per sign row, N//2 + 1
    columns; overwritten) when one is given.  Each row's weighted sum is one
    einsum pass over that row alone, with no BLAS call, so a sample's mass is
    the same bit for bit in a block of any row count.
    """
    n = kernel.size
    weights = kernel.spectrum[:n // 2 + 1] / n
    weights[1:(n + 1) // 2] *= 2.0
    power = rfft(signs, axis=1, out=spectrum).view(np.float64)  # re, im
    np.square(power, out=power)
    return np.einsum("ij,j->i", power, np.repeat(weights, 2))


def sample_coefficients(params: WaveParams, seed: int,
                        sample_index: int = 0) -> np.ndarray:
    """One i.i.d. +-1 sign vector as a read-only array of N floats.

    Sample sample_index of the PCG64DXSM stream of seed (see _keyed_signs),
    each sign +1 with probability ceil(p * 2**32) / 2**32 for p = params.p;
    identical (seed, sample_index, N, p) reproduce it bit for bit, and no OS
    entropy is drawn.
    """
    signs = _keyed_signs(seed, sample_index, np.empty((1, params.n_dirs)),
                         params.p)[0]
    signs.setflags(write=False)
    return signs


def mass_quadratic_form(kernel: PairKernel, coeffs) -> float:
    """Smoothed local mass of one realisation via the kernel spectrum.

    Q(c) = sum_m mu_m |c_hat_m|**2 / N with c_hat the DFT of the sign vector,
    from a real-input FFT over the half spectrum (the code Monte Carlo uses);
    equals the direct double sum over pairs at O(N log N) cost.
    """
    n = kernel.size
    signs = _real_array("coeffs", coeffs, (n,), f" for {n} directions")
    return float(_block_masses(kernel, signs[None, :])[0])


def mass_double_sum(kernel: PairKernel, coeffs) -> float:
    """O(N**2) direct double sum sum_{j,l} c_j c_l I_jl; oracle path.

    The lag sums L_k = sum_j c_j c_{j-k mod N} are the N + 1 dot products of
    np.correlate over the doubled vector, with no FFT (lags[n - k] is L_k);
    the mass is sum_k I_k L_k.
    """
    n = kernel.size
    signs = _real_array("coeffs", coeffs, (n,), f" for {n} directions")
    lags = np.correlate(np.concatenate([signs, signs]), signs, mode="valid")
    return float(kernel.values @ lags[n:0:-1])


def _angle_addition(t: np.ndarray, f: np.ndarray):
    """cos and sin of np.outer(t, f) for an arithmetic half axis t = h * arange(q).

    Row k = K i + l, K = ceil(sqrt(q)), has the phase t[l] f + t[K i] f, so the
    cos and sin of the K fine rows t[:K] and the ceil(q/K) coarse rows t[::K],
    2 (K + ceil(q/K)) * f.size trig values in place of 2 q * f.size, give
    every row by cos(x+y) = cos x cos y - sin x sin y and
    sin(x+y) = sin x cos y + cos x sin y.  Returns K and
    table(sine, weight=1.0), which builds the fine-row pair of the cos table
    (sine false) or the sin table once, each column times weight (a scalar or
    an f.size vector), and returns fill(out, first=0): it writes rows first,
    first + 1, ... (first a multiple of K) of that weighted table into the
    rows of `out` and returns it.
    """
    step = math.isqrt(t.size - 1) + 1
    fine = np.outer(t[:step], f)
    cos_fine, sin_fine = np.cos(fine), np.sin(fine, out=fine)
    coarse = np.outer(t[::step], f)
    coarse = np.stack([np.cos(coarse), np.sin(coarse)], axis=1)  # cos y, sin y

    def table(sine: bool, weight=1.0):
        # cos(x+y) and sin(x+y) as a dot of these two fine rows with (cos y, sin y)
        pair = np.stack([sin_fine, cos_fine] if sine else [cos_fine, -sin_fine])
        pair *= weight

        def fill(out: np.ndarray, first: int = 0) -> np.ndarray:
            for i in range(-(-len(out) // step)):
                rows = out[i * step:(i + 1) * step]
                np.einsum("tkj,tj->kj", pair[:, :len(rows)], coarse[first // step + i], out=rows)
            return out
        return fill
    return step, table


def _grid_power(params: WaveParams, signs: np.ndarray, t: np.ndarray,
                window: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """Folded |u|**2 of u(x) = sum_j c_j exp(i lam x . xi_j) on the quarter grid.

    `t` is quarter_grid's half axis, and entry (k, l) is the mean of |u|**2
    over the mirror images (+-t[k], +-t[l]).  For even N the direction
    j + N/2 is -xi_j, so u = sum_{j < H} s_j cos(phi_j) + i d_j sin(phi_j)
    with H = N/2, s = c_j + c_{j+N/2} and d = c_j - c_{j+N/2}; for odd N,
    H = N and s = d = c.  With phi_j = a + b split into a = lam x1 xi_j1 and
    b = lam x2 xi_j2, let A = sum s cos a cos b, B = sum d sin a cos b,
    C = sum s sin a sin b and D = sum d cos a sin b; since cos b is even and
    sin b odd in x2,

        Re u(x1, +-x2) = A -+ C,    Im u(x1, +-x2) = B +- D;

    real signs give |u(-x)| = |u(x)|, so the folded power is
    (A - shift)**2 + B**2 + C**2 + D**2 (shift: e1's q x q N J0 term, else 0).
    Slot j' = H - j is the mirror image of slot j (slot H is slot 0; for even
    N, its antipode, with d negated): across the x2-axis for even N
    (a -> -a), so the sums run over slots 0..H//2 with the weights s + s'
    (A), d - d' (B), s - s' (C) and d + d' (D); across the x1-axis for odd N
    (b -> -b), with d + d' (B) and d - d' (D).  A slot that is its own image
    counts once (half weights).  The q x (H//2 + 1) tables of cos and sin of
    a and b come from _angle_addition, about 4 sqrt(q) * H trig values in
    place of 2 q * N, each weight applied to a's fine rows once.  One x2
    table holds cos b, then sin b; against each, the rows x1 go in blocks of
    whole angle-addition steps, whose GEMM operand (the a table times each
    weight of the pass) holds at most oscint._BLOCK_NODES doubles (or one
    step), each GEMM stopping at the last column where its block's window is
    non-zero; the power is 0 beyond.  An all-zero weight leaves its rows out
    of the operand (A's stay under a shift), and a pass with none left is
    skipped: the e1 probe's all-ones signs keep A alone for even N, A and B
    for odd N.  quarter_grid bounds N * t.size.
    """
    n = params.n_dirs
    q = t.size
    half = n if n % 2 else n // 2
    lo, hi = (signs, 0.0) if n % 2 else (signs[:half], signs[half:])
    sd = np.stack([lo + hi, lo - hi])  # s, d
    j = np.arange(half // 2 + 1)
    mirror = sd[:, (half - j) % half]
    if n % 2 == 0:
        mirror[1, 1:] *= -1.0  # a -> -a flips sin a; slot 0's antipode has -d_0
    weights = np.concatenate([sd[:, j] + mirror, sd[:, j] - mirror])
    weights[:, 2 * j % half == 0] *= 0.5  # a slot that is its own image counts once
    w_a, w_b, w_c, w_d = weights
    freq = params.lam * build_directions(params).unit_vectors[:j.size]
    step, table_a = _angle_addition(t, freq[:, 0])
    _, table_b = _angle_addition(t, freq[:, 1])
    rows = step * max(1, oscint._BLOCK_NODES // (2 * step * j.size))
    trig_b = np.empty((q, j.size))  # cos b, then sin b
    operand = np.empty((2 * min(rows, q), j.size))  # one block of the a table times each weight
    power = np.zeros((q, q))
    # against cos b: A from cos a, B from sin a; against sin b: C from sin a, D from cos a
    for sine, terms in [(False, [(False, w_a), (True, w_b)]),
                        (True, [(True, w_c), (False, w_d)])]:
        fills = [table_a(a_sine, w) for a_sine, w in terms
                 if w.any() or (w is w_a and shift is not None)]
        if not fills:
            continue
        table_b(sine)(trig_b)
        for first in range(0, q, rows):
            k = min(rows, q - first)
            cols = window[first:first + k].any(axis=0).nonzero()[0].max(initial=-1) + 1
            for i, fill in enumerate(fills):
                fill(operand[i * k:(i + 1) * k], first)
            block = operand[:len(fills) * k] @ trig_b[:cols].T
            if shift is not None and not sine:
                block[:k] -= shift[first:first + k, :cols]
            for i in range(len(fills)):
                power[first:first + k, :cols] += np.square(block[i * k:(i + 1) * k])
    return power


def grid_quadrature_mass(params: WaveParams, coeffs,
                         points_per_wavelength: int = GRID_POINTS_PER_WAVELENGTH) -> float:
    """Trapezoid quadrature of a_lam**2 |u|**2 on a tensor grid; oracle path.

    The grid places points_per_wavelength nodes per wavelength 2*pi/lam across
    the cutoff support; since the integrand vanishes smoothly at the boundary
    the trapezoid rule reduces to h**2 times the plain sum.  Real signs make
    |u|**2 point-symmetric, so the sum is that of the folded window times the
    folded power of _grid_power, which walks row blocks of quarter_grid and
    skips the columns each block's window leaves at zero.  Refuses what
    quarter_grid refuses for the one field of N directions.
    """
    n = params.n_dirs
    signs = _real_array("coeffs", coeffs, (n,), f" for {n} directions")
    t, h, _, window = quarter_grid(params, points_per_wavelength, (n,))
    return float(h * h * np.sum(window * _grid_power(params, signs, t, window)))


def _worker_count() -> int:
    """CPUs this process may run on; all CPUs where affinity is unknown
    (os.sched_getaffinity does not exist on macOS or Windows)."""
    import os
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_moments(kernel: PairKernel, samples: int, seed: int) -> dict:
    """The six mc_* sweep columns: mass mean, variance and their standard
    errors over `samples` realisations, with the count and the seed.

    Realisation i is sample i of the stream of seed (see _keyed_signs).  The
    samples go in fixed blocks of max(1, oscint._BLOCK_NODES // N) rows, the
    one block budget of the package, and worker w of a thread pool (one worker
    per CPU of the process's affinity, at most one per block) takes blocks w,
    w + workers, ...  Each worker draws its block's signs as one stretch of
    the stream, reached by one PCG64DXSM advance, into its own sign block (no
    OS entropy is drawn; the signs match sample_coefficients bit for bit) and
    gets the block's masses from one real-input FFT over the half spectrum,
    written into its own spectrum block; the draws, the elementwise passes and
    the FFT release the GIL.  The block boundaries depend only on N and
    `samples`, and each mass only on its own row, so the columns depend on
    neither the worker count nor the block size; an error in any block is
    raised here.
    `samples` must be an int or numpy integer (not a bool) of at least
    MIN_MC_SAMPLES; it is never coerced.  The variance standard error is a
    delete-one jackknife over the realisations.
    """
    # imported here: at module level it would add to every command's import time
    from concurrent.futures import ThreadPoolExecutor
    _check_integer("samples", samples, MIN_MC_SAMPLES)
    n = kernel.size
    masses = np.empty(samples)
    batch = max(1, oscint._BLOCK_NODES // n)
    workers = min(_worker_count(), -(-samples // batch))

    def fill(first: int) -> None:
        block = np.empty((min(batch, samples), n))
        spectrum = np.empty((block.shape[0], n // 2 + 1), dtype=complex)
        for start in range(first, samples, workers * batch):
            stop = min(start + batch, samples)
            signs = _keyed_signs(seed, start, block[:stop - start], kernel.params.p)
            masses[start:stop] = _block_masses(kernel, signs, spectrum[:stop - start])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(fill, w * batch) for w in range(workers)]:
            future.result()
    # centering against the first sample keeps degenerate (single-atom)
    # distributions at exactly zero variance; the extra shift is otherwise
    # numerically neutral
    shifted = masses - masses[0]
    offset = float(np.mean(shifted))
    mean = float(masses[0]) + offset
    centered = shifted - offset
    m = samples
    s1 = float(np.sum(centered))
    s2 = float(centered @ centered)
    variance = s2 / (m - 1)
    se_mean = math.sqrt(variance / m)
    # delete-one variances from the centered sums
    loo_mean = (s1 - centered) / (m - 1)
    loo_var = (s2 - centered ** 2 - (m - 1) * loo_mean ** 2) / (m - 2)
    se_var = math.sqrt((m - 1) / m * float(np.sum((loo_var - loo_var.mean()) ** 2)))
    return {"mc_samples": m, "mc_mean": mean, "mc_var": variance,
            "mc_se_mean": se_mean, "mc_se_var": se_var, "mc_seed": int(seed)}


@dataclass(frozen=True)
class DarbouxProbe:
    """Sum-to-integral errors of exp(i w cos(theta)) over a gamma ladder.

    riemann_errors[i, g]: |(2*pi/N) * sum_l f(theta_l) - 2*pi*J0(w_i)|.  For
    equispaced nodes this is exponentially small (the sum is exact on
    trigonometric polynomials of degree < N), so the O(1/gamma) rate of the
    Taylor-based bound lives in the upper-minus-lower Darboux gap instead;
    gaps[i, g] holds that gap and gap_exponents[i] its fitted gamma-slope.
    """

    gammas: np.ndarray
    riemann_errors: np.ndarray
    gaps: np.ndarray
    gap_exponents: np.ndarray


def _gamma_ladder(params: WaveParams, n_doublings: int):
    """gamma, 2 gamma, ..., 2**n_doublings gamma at fixed lam, and each rung's params."""
    _check_integer("n_doublings", n_doublings, 0)
    gammas = params.gamma * 2.0 ** np.arange(n_doublings + 1)
    return gammas, [build_params(params.lam, gamma, params.alpha, params.p)
                    for gamma in gammas]


def darboux_error(params: WaveParams, x_magnitudes, n_doublings: int = 4) -> DarbouxProbe:
    """Riemann error and Darboux gap across gamma, gamma*2, ..., at fixed lam."""
    xs = np.atleast_1d(_real_array("|x|", x_magnitudes))
    if not np.all((xs >= 0.0) & (xs <= 2.0 * params.ball_radius)):
        raise ValueError("|x| must lie in [0, 2 * lam**-alpha]")
    gammas, rungs = _gamma_ladder(params, n_doublings)
    w = params.lam * xs
    riemann = np.empty((xs.size, gammas.size))
    gaps = np.empty_like(riemann)
    for g, pg in enumerate(rungs):
        theta = build_directions(pg).angles
        dtheta = 2.0 * np.pi / pg.n_dirs
        angle = np.outer(w, np.cos(theta))  # w = lam |x| is scaled
        sums = np.sum(np.cos(angle), axis=1) + 1j * np.sum(np.sin(angle), axis=1)
        riemann[:, g] = np.abs(dtheta * sums - 2.0 * np.pi * bessel_j0(w))
        cells = theta[:, None] + np.linspace(0.0, dtheta, _OSC_SUBSAMPLES)
        fine = w[:, None, None] * np.cos(cells)  # every |x| over each node's cell
        gaps[:, g] = dtheta * np.sum(np.ptp(np.cos(fine), axis=2)
                                     + np.ptp(np.sin(fine), axis=2), axis=1)
    exponents = np.array([
        fit_exponent(gammas, gaps[i]).slope if np.all(gaps[i] > 0.0) else np.nan
        for i in range(xs.size)])
    return DarbouxProbe(gammas=gammas, riemann_errors=riemann, gaps=gaps,
                        gap_exponents=exponents)


@dataclass(frozen=True)
class DiscretisationProbe:
    """Norms of the direction-sum discretisation error over a gamma ladder.

    literal_norms: grid L2 norm of a_lam * E with
    E(x) = sum_j exp(i lam x . xi_j) - N*J0(lam |x|), N = round(gamma*lam) the
    direction count at that gamma, not gamma*lam itself.  On exact equispaced
    directions this is zero to machine precision at any lam (same mechanism as
    the Riemann error above).  pairwise_bound_norms carries the quantity the
    termwise estimates actually control: the square root of
    (lam**-2alpha / gamma) * sum_{j,l} (1 + |xi_j - xi_l| / lam**(alpha-1))**-2,
    whose lam- and gamma-scalings are the testable content of the discretisation
    bound.  gamma_exponent is the fitted gamma-slope of the pairwise bound norm
    (NaN on fewer than 3 gammas).
    """

    gammas: np.ndarray
    literal_norms: np.ndarray
    pairwise_bound_norms: np.ndarray
    gamma_exponent: float


def e1_error_norm(params: WaveParams, n_doublings: int = 2) -> DiscretisationProbe:
    """Measure the discretisation-error norms across a gamma-doubling ladder,
    each rung's from _grid_power's row blocks; quarter_grid refuses the first
    rung whose field has N * t.size > MAX_GRID_FIELD before it builds the grid."""
    gammas, rungs = _gamma_ladder(params, n_doublings)
    # the J0 term is real and even in x1 and x2, so E folds onto the quarter
    # plane like u, with A - N J0 in place of A: _grid_power's shift
    t, h, r, window = quarter_grid(params, fields=[pg.n_dirs for pg in rungs])
    j0_term = bessel_j0(params.lam * r)
    literal = np.empty(gammas.size)
    bound = np.empty(gammas.size)
    for g, pg in enumerate(rungs):
        power = _grid_power(pg, np.ones(pg.n_dirs), t, window, pg.n_dirs * j0_term)
        literal[g] = math.sqrt(h * h * float(np.sum(window * power)))
        separation_sum, _ = dyadic_sum_check(pg, 2.0)  # l != j; the l == j term is 1
        bound[g] = math.sqrt(pg.lam ** (-2.0 * pg.alpha) / pg.gamma
                             * (pg.n_dirs * (1.0 + separation_sum)))
    gamma_exponent = fit_exponent(gammas, bound).slope if gammas.size >= 3 else np.nan
    return DiscretisationProbe(gammas=gammas, literal_norms=literal,
                               pairwise_bound_norms=bound,
                               gamma_exponent=float(gamma_exponent))
