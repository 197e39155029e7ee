"""Coefficient sampling, per-sample mass evaluation, and discretisation probes.

Sampling is counter-based: the sign vector of sample i under master seed s is
+1 where Generator(Philox(key=[s, i])).random(N) falls below p, a pure function
of (s, i, coefficient index), so results are reproducible under any execution
schedule.  A batch of samples re-keys one Philox bit generator per row of a
preallocated block; no generator is built and no OS entropy is drawn per
sample, and the streams are the keyed streams bit for bit.  Masses use the
circulant diagonalisation Q(c) = sum_m mu_m |c_hat_m|**2 / N, turning an
O(N**2) quadratic form into a real-input FFT over the half spectrum; Monte
Carlo and single-sample masses share both steps.  The module also probes how
well equispaced direction sums reproduce their angular integrals
(Riemann/Darboux error and the pairwise aggregate that the moment bounds are
built from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import fit_exponent
from .model import WaveParams, build_directions, build_params, cutoff_value
from .oscint import GRID_POINTS_PER_WAVELENGTH, PairKernel, grid_axis
from .specfun import bessel_j0

MIN_MC_SAMPLES = 100
MAX_GRID_DIRECTIONS = 4096
_OSC_SUBSAMPLES = 17
_MC_BATCH = 1 << 22


def _keyed_signs(seed: int, start: int, out: np.ndarray, p: float) -> np.ndarray:
    """Signs of samples start, start+1, ... into the rows of `out`, in place.

    Row r is +1 where Generator(Philox(key=[seed, start + r])).random(N) falls
    below p, bit for bit: one bit generator, seeded without OS entropy, is
    re-keyed at counter 0 with an empty buffer before each row is filled.
    seed and start must be integers (not bools) in [0, 2**64); neither is coerced.
    """
    for name, value in (("seed", seed), ("sample_index", start)):
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or not 0 <= value < 2 ** 64):
            raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    for r in range(out.shape[0]):
        key = np.array([seed, start + r], dtype=np.uint64)
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": zeros, "key": key},
                        "buffer": zeros, "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        gen.random(out=out[r])
    np.less(out, p, out=out)
    out *= 2.0
    out -= 1.0
    return out


def _block_masses(kernel: PairKernel, signs: np.ndarray) -> np.ndarray:
    """Masses of the sign vectors in the rows of `signs`.

    The spectrum of the symmetric kernel and |c_hat_m| of a real c are both
    even in m, so bins m and N-m of Q(c) = sum_m mu_m |c_hat_m|**2 / N agree:
    the real-input FFT gives bins 0..N//2, of which 1..(N-1)//2 count twice.
    """
    n = kernel.size
    weights = kernel.spectrum[:n // 2 + 1] / n
    weights[1:(n + 1) // 2] *= 2.0
    power = np.fft.rfft(signs, axis=1).view(np.float64)  # interleaved re, im
    np.square(power, out=power)
    return power @ np.repeat(weights, 2)


def sample_coefficients(params: WaveParams, seed: int,
                        sample_index: int = 0) -> np.ndarray:
    """One i.i.d. +-1 sign vector as a read-only array of N floats.

    Sample sample_index of the keyed stream seed, +1 with probability params.p;
    identical (seed, sample_index, N, p) reproduce it bit for bit.
    """
    signs = _keyed_signs(seed, sample_index, np.empty((1, params.n_dirs)),
                         params.p)[0]
    signs.setflags(write=False)
    return signs


def _as_signs(coeffs, n: int) -> np.ndarray:
    signs = np.asarray(coeffs, dtype=float)
    if signs.shape != (n,):
        raise ValueError(f"coefficient vector of length {signs.shape} does not "
                         f"match {n} directions")
    return signs


def mass_quadratic_form(kernel: PairKernel, coeffs) -> float:
    """Smoothed local mass of one realisation via the kernel spectrum.

    Q(c) = sum_m mu_m |c_hat_m|**2 / N with c_hat the DFT of the sign vector,
    from a real-input FFT over the half spectrum (the code Monte Carlo uses);
    equals the direct double sum over pairs at O(N log N) cost.
    """
    signs = _as_signs(coeffs, kernel.size)
    return float(_block_masses(kernel, signs[None, :])[0])


def mass_double_sum(kernel: PairKernel, coeffs) -> float:
    """O(N**2) direct double sum sum_{j,l} c_j c_l I_jl; oracle path."""
    signs = _as_signs(coeffs, kernel.size)
    n = kernel.size
    ext = np.concatenate([signs, signs])  # ext[n - k:2n - k] is np.roll(signs, k)
    acc = 0.0
    for k in range(n):
        acc += kernel.values[k] * float(signs @ ext[n - k:2 * n - k])
    return acc


def _field_on_grid(params: WaveParams, signs: np.ndarray,
                   axis: np.ndarray) -> np.ndarray:
    """u(x) = sum_j c_j exp(i lam x . xi_j) on the tensor grid, via one GEMM."""
    dirs = build_directions(params)
    phase_x = np.exp(1j * params.lam * np.outer(axis, dirs.unit_vectors[:, 0]))
    phase_y = np.exp(1j * params.lam * np.outer(axis, dirs.unit_vectors[:, 1]))
    return (phase_x * signs[None, :]) @ phase_y.T


def grid_quadrature_mass(params: WaveParams, coeffs,
                         points_per_wavelength: int = GRID_POINTS_PER_WAVELENGTH) -> float:
    """Trapezoid quadrature of a_lam**2 |u|**2 on a tensor grid; oracle path.

    The grid places points_per_wavelength nodes per wavelength 2*pi/lam across
    the cutoff support; since the integrand vanishes smoothly at the boundary
    the trapezoid rule reduces to h**2 times the plain sum.  Refuses
    lam**(1-alpha) > 512 or more than MAX_GRID_NODES nodes.
    """
    if params.n_dirs > MAX_GRID_DIRECTIONS:
        raise ValueError(f"grid evaluation limited to N <= {MAX_GRID_DIRECTIONS}")
    signs = _as_signs(coeffs, params.n_dirs)
    axis, h = grid_axis(params, points_per_wavelength)
    u = _field_on_grid(params, signs, axis)
    r = np.hypot(axis[:, None], axis[None, :])
    weight = cutoff_value(params.lam ** params.alpha * r) ** 2
    return float(h * h * np.sum(weight * (u.real ** 2 + u.imag ** 2)))


def mc_moments(kernel: PairKernel, samples: int, seed: int) -> dict:
    """The six mc_* sweep columns: mass mean, variance and their standard
    errors over `samples` realisations, with the count and the seed.

    Realisation i uses the keyed stream (seed, i).  Each batch re-keys one
    Philox bit generator per row of a reused sign block (no OS entropy is
    drawn; the streams match sample_coefficients bit for bit), and its masses
    come from one real-input FFT over the half spectrum.  The variance
    standard error is a delete-one jackknife over the realisations.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    n = kernel.size
    masses = np.empty(samples)
    batch = max(1, _MC_BATCH // max(n, 1))
    block = np.empty((min(batch, samples), n))
    for start in range(0, samples, batch):
        stop = min(start + batch, samples)
        signs = _keyed_signs(seed, start, block[:stop - start], kernel.params.p)
        masses[start:stop] = _block_masses(kernel, signs)
    # centering against the first sample keeps degenerate (single-atom)
    # distributions at exactly zero variance; the extra shift is otherwise
    # numerically neutral
    shifted = masses - masses[0]
    offset = float(np.mean(shifted))
    mean = float(masses[0]) + offset
    centered = shifted - offset
    m = samples
    variance = float(centered @ centered / (m - 1))
    se_mean = math.sqrt(variance / m)
    # delete-one variances from the centered sums
    s1 = float(np.sum(centered))
    s2 = float(centered @ centered)
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


def darboux_error(params: WaveParams, x_magnitudes, n_doublings: int = 4) -> DarbouxProbe:
    """Riemann error and Darboux gap across gamma, gamma*2, ..., at fixed lam."""
    xs = np.atleast_1d(np.asarray(x_magnitudes, dtype=float))
    if np.any(xs < 0.0) or np.any(xs > 2.0 * params.ball_radius):
        raise ValueError("|x| must lie in [0, 2 * lam**-alpha]")
    gammas = params.gamma * 2.0 ** np.arange(n_doublings + 1)
    riemann = np.empty((xs.size, gammas.size))
    gaps = np.empty_like(riemann)
    for g, gamma in enumerate(gammas):
        n = int(round(gamma * params.lam))
        theta = 2.0 * np.pi * np.arange(n) / n
        dtheta = 2.0 * np.pi / n
        offsets = np.linspace(0.0, dtheta, _OSC_SUBSAMPLES)
        fine = theta[:, None] + offsets[None, :]
        for i, x in enumerate(xs):
            w = params.lam * x
            vals = np.exp(1j * w * np.cos(theta))
            riemann[i, g] = abs(dtheta * np.sum(vals) - 2.0 * np.pi * bessel_j0(w))
            fine_vals = w * np.cos(fine)
            osc_re = np.ptp(np.cos(fine_vals), axis=1)
            osc_im = np.ptp(np.sin(fine_vals), axis=1)
            gaps[i, g] = dtheta * float(np.sum(osc_re + osc_im))
    exponents = np.array([
        fit_exponent(gammas, gaps[i]).slope if np.all(gaps[i] > 0.0) else np.nan
        for i in range(xs.size)])
    return DarbouxProbe(gammas=gammas, riemann_errors=riemann, gaps=gaps,
                        gap_exponents=exponents)


@dataclass(frozen=True)
class DiscretisationProbe:
    """Norms of the direction-sum discretisation error over a gamma ladder.

    literal_norms: grid L2 norm of a_lam * E with
    E(x) = sum_j exp(i lam |x| cos theta_j) - gamma*lam*J0(lam |x|).  On exact
    equispaced directions this is zero to machine precision (same mechanism as
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


def _pairwise_bound_norm(params: WaveParams, decay_order: float = 2.0) -> float:
    chords = build_directions(params).chord
    sep = (1.0 + chords / params.separation_scale) ** (-decay_order)
    total = params.n_dirs * float(np.sum(sep))
    return math.sqrt(params.lam ** (-2.0 * params.alpha) / params.gamma * total)


def e1_error_norm(params: WaveParams, n_doublings: int = 2) -> DiscretisationProbe:
    """Measure the discretisation-error norms across a gamma-doubling ladder."""
    gammas = params.gamma * 2.0 ** np.arange(n_doublings + 1)
    axis, h = grid_axis(params)
    r = np.hypot(axis[:, None], axis[None, :])
    weight = cutoff_value(params.lam ** params.alpha * r) ** 2
    j0_term = bessel_j0(params.lam * r)
    literal = np.empty(gammas.size)
    bound = np.empty(gammas.size)
    for g, gamma in enumerate(gammas):
        pg = build_params(params.lam, gamma, params.alpha, params.p)
        ones = np.ones(pg.n_dirs)
        u_plus = _field_on_grid(pg, ones, axis)
        err = u_plus - gamma * params.lam * j0_term
        literal[g] = math.sqrt(h * h * float(np.sum(weight * np.abs(err) ** 2)))
        bound[g] = _pairwise_bound_norm(pg)
    gamma_exponent = fit_exponent(gammas, bound).slope if gammas.size >= 3 else np.nan
    return DiscretisationProbe(gammas=gammas, literal_norms=literal,
                               pairwise_bound_norms=bound,
                               gamma_exponent=float(gamma_exponent))
