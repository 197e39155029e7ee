"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  A kernel reads the committed
profile table and does no quadrature, so building one on every call keeps the
whole module within a desk-scale budget (lambda <= 4096).
"""

import math

import numpy as np

from biasedwave import (build_params, calibrate_constants, cutoff_mass,
                        darboux_error, dyadic_sum_check, e1_error_norm,
                        enumerate_moments, exact_expectation, exact_variance,
                        fit_exponent, grid_quadrature_mass, mass_double_sum,
                        mass_quadratic_form, mc_moments, parse_config,
                        residual_probe_points, run_sweep, surface_wave_envelope,
                        threshold_experiment, variance_bound)
from biasedwave.oscint import build_kernel, decay_bound, pair_integral
from biasedwave.specfun import asymptotic_check

LADDER = (64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)


def _report(criterion: str, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {verdict} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def test_01_enumeration_oracle():
    """Closed-form moments against 2**N enumeration, 50 random points."""
    rng = np.random.default_rng(20240811)
    worst_e = worst_v = 0.0
    for _ in range(50):
        n_target = int(rng.integers(2, 15))
        lam = float(rng.uniform(5.0, 80.0))
        alpha = float(rng.uniform(0.0, 0.9))
        p = float(rng.uniform(0.05, 0.95))
        kernel = build_kernel(build_params(lam, n_target / lam, alpha, p))
        assert kernel.size == n_target
        e_ref, v_ref = enumerate_moments(kernel, p)
        worst_e = max(worst_e, abs(exact_expectation(kernel) - e_ref) / abs(e_ref))
        worst_v = max(worst_v, abs(exact_variance(kernel) - v_ref) / abs(v_ref))
    _report("1 enumeration-oracle", worst_e <= 1e-10 and worst_v <= 1e-10,
            f"max rel err: E {worst_e:.2e}, Var {worst_v:.2e}")


def test_02_quadratic_form_consistency(kernels):
    """FFT path vs direct double sum (N <= 256) and vs grid quadrature."""
    worst_pair = 0.0
    for lam, gamma in ((64.0, 1.0), (64.0, 4.0), (256.0, 1.0)):
        kernel = kernels(lam, gamma, 0.5)
        rng = np.random.default_rng(int(lam + gamma))
        for _ in range(5):
            signs = rng.choice([-1.0, 1.0], size=kernel.size)
            fast = mass_quadratic_form(kernel, signs)
            slow = mass_double_sum(kernel, signs)
            worst_pair = max(worst_pair, abs(fast - slow) / abs(slow))
    worst_grid = 0.0
    for lam in (64.0, 256.0):
        kernel = kernels(lam, 1.0, 0.5)
        rng = np.random.default_rng(int(lam))
        for _ in range(2):
            signs = rng.choice([-1.0, 1.0], size=kernel.size)
            fast = mass_quadratic_form(kernel, signs)
            grid = grid_quadrature_mass(kernel.params, signs)
            worst_grid = max(worst_grid, abs(fast - grid) / abs(grid))
    _report("2 quadratic-form-consistency",
            worst_pair <= 1e-10 and worst_grid <= 1e-3,
            f"double-sum rel {worst_pair:.2e}, grid rel {worst_grid:.2e}")


def test_03_monte_carlo_consistency(kernels):
    """Empirical moments within standard errors at lam=512, M=10^4."""
    details = []
    ok = True
    for p in (0.5, 0.6, 0.9):
        kernel = kernels(512.0, 8.0, 0.5, p=p)
        summary = mc_moments(kernel, 10_000, seed=2718)
        dev_mean = abs(summary["mc_mean"] - exact_expectation(kernel))
        dev_var = abs(summary["mc_var"] - exact_variance(kernel))
        ok &= dev_mean <= 4 * summary["mc_se_mean"]
        ok &= dev_var <= 5 * summary["mc_se_var"]
        details.append(f"p={p}: {dev_mean / summary['mc_se_mean']:.2f}se/"
                       f"{dev_var / summary['mc_se_var']:.2f}se")
    _report("3 monte-carlo-consistency", ok, ", ".join(details))


def test_04_fair_coin_scaling(kernels):
    """Fair-coin expectation grows like lam**(1-2*alpha) at gamma=8."""
    details = []
    ok = True
    for alpha in (0.3, 0.5, 0.7):
        values = np.array([exact_expectation(kernels(lam, 8.0, alpha))
                           for lam in LADDER])
        slope = fit_exponent(np.array(LADDER), values).slope
        ok &= abs(slope - (1 - 2 * alpha)) <= 0.05
        details.append(f"alpha={alpha}: {slope:+.4f} vs {1 - 2 * alpha:+.1f}")
    _report("4 fair-coin-scaling", ok, ", ".join(details))


def test_05_biased_term_scaling(kernels):
    """Fully biased off-diagonal term: exponent 1-alpha and a fixed ratio band."""
    alpha = 0.5
    offsets, ratios = [], []
    for lam in LADDER:
        kernel = kernels(lam, 16.0, alpha, p=1.0)
        off = exact_expectation(kernel) - kernel.size * kernel.diagonal
        offsets.append(off)
        ratios.append(off / (16.0 ** 2 * lam ** (1 - alpha)))
    slope = fit_exponent(np.array(LADDER), np.array(offsets)).slope
    in_band = all(0.2 <= r <= 10.0 for r in ratios)
    _report("5 biased-term-scaling",
            abs(slope - (1 - alpha)) <= 0.05 and in_band,
            f"slope {slope:+.4f} vs {1 - alpha:+.1f}, "
            f"ratio range [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_06_dyadic_separation_sum():
    """Separation sums stay below one constant per exponent, fixed at lam=64."""
    gammas = (1.0, 2.0, 4.0, 8.0)
    alphas = (0.3, 0.5, 0.7)
    headroom = 1.1  # the discrete sum approaches its continuum limit from below
    ok = True
    details = []
    for a_exp in (2, 3, 4):
        constant = headroom * max(
            dyadic_sum_check(build_params(64.0, g, a, 0.5), a_exp)[1]
            for g in gammas for a in alphas)
        worst = max(
            dyadic_sum_check(build_params(lam, g, a, 0.5), a_exp)[1]
            for lam in LADDER[1:] for g in gammas for a in alphas)
        ok &= worst <= constant
        details.append(f"A={a_exp}: {worst:.4f} <= {constant:.4f}")
    _report("6 dyadic-separation-sum", ok, ", ".join(details))


def test_07_decay_bound():
    """|pair integral| below the integration-by-parts bound on 200 points."""
    rng = np.random.default_rng(1105)
    worst_margin = np.inf
    ok = True
    for _ in range(200):
        lam = float(np.exp(rng.uniform(np.log(64.0), np.log(2048.0))))
        alpha = float(rng.uniform(0.0, 0.9))
        params = build_params(lam, 1.0, alpha, 0.5)
        d = float(min(np.exp(rng.uniform(np.log(0.1 * params.separation_scale),
                                         np.log(2.0))), 2.0))
        value = abs(pair_integral(params, d))
        for order in (2, 3, 4):
            bound = decay_bound(params, d, order)
            ok &= value <= bound
            if value > 0:
                worst_margin = min(worst_margin, bound / value)
    _report("7 decay-bound", ok, f"600 checks, tightest bound/value "
                                 f"{worst_margin:.2f}")


def test_08_stationary_phase():
    """Residual exponent -1.5 and surface-wave envelope exponent -0.5."""
    check = asymptotic_check(residual_probe_points(10.0, 1e4))
    slope = check.residual_slope().slope
    lam = 7.0
    radii = np.linspace(5.0, 500.0, 4000) / lam
    envelope = surface_wave_envelope(lam, radii).envelope_exponent
    _report("8 stationary-phase",
            abs(slope + 1.5) <= 0.1 and abs(envelope + 0.5) <= 0.05,
            f"residual slope {slope:+.4f}, envelope {envelope:+.4f}")


def test_09_variance_bound_and_equidistribution(kernels):
    """Variance below its calibrated bound; threshold-bias variance decays."""
    ok = True
    details = []
    for alpha in (0.3, 0.5):
        constants = calibrate_constants(kernels(64.0, 8.0, alpha))
        ratios = []
        for lam in LADDER:
            p_thr = 0.5 + lam ** (-alpha / 2) / math.sqrt(8.0)
            for p in (0.5, p_thr, 0.9, 1.0):
                kernel = kernels(lam, 8.0, alpha, p=p)
                variance = exact_variance(kernel)
                bound = variance_bound(kernel.params, constants)
                ok &= variance <= bound or (variance == 0.0 and bound == 0.0)
            kernel = kernels(lam, 8.0, alpha, p=p_thr)
            ratios.append(exact_variance(kernel) / (8.0 * lam) ** 2
                          / cutoff_mass(kernel.params) ** 2)
        slope = fit_exponent(np.array(LADDER), np.array(ratios)).slope
        ok &= abs(slope - (alpha - 1.0)) <= 0.15
        details.append(f"alpha={alpha}: var slope {slope:+.4f} vs {alpha - 1:+.1f}")
    _report("9 variance-bound", ok, ", ".join(details))


def test_10_threshold_experiment(tmp_path):
    """Bias-threshold families: flat at threshold, alpha/2 growth above, and
    loss of equidistribution for the deterministic wave."""
    config = parse_config({
        "lambda_ladder": list(LADDER),
        "gamma": {"mode": "fixed", "values": [8.0]},
        "alpha_list": [0.5],
        "p_rule": {"mode": "threshold", "c": 1.0, "beta_factor": 0.5},
        "output_stem": str(tmp_path / "threshold"),
        "seed": 0,
    })
    result = threshold_experiment(config)
    fits = {f["family"]: f["slope"] for f in result.fits}
    unfair_large = [row["class"] for row in result.rows
                    if row["family"] == "unfair" and row["lambda"] >= 256.0]
    ok = (abs(fits["at_threshold"]) <= 0.1
          and abs(fits["super_threshold"] - 0.25) <= 0.1
          and all(c == "none" for c in unfair_large))
    _report("10 threshold-experiment", ok,
            f"at {fits['at_threshold']:+.4f}, super {fits['super_threshold']:+.4f}"
            f" vs +0.25, unfair classes {set(unfair_large)}")


def test_11_darboux_and_discretisation_probes():
    """Node-sum probes: Darboux gap rate 1/gamma; pairwise discretisation
    bound scales like lam**((1-alpha)/2); gamma exponent reported."""
    params = build_params(256.0, 8.0, 0.5, 0.5)
    gap_exp = darboux_error(params, [params.ball_radius],
                            n_doublings=4).gap_exponents[0]
    norms = []
    lams = (64.0, 128.0, 256.0, 512.0)
    gamma_exp = None
    for lam in lams:
        probe = e1_error_norm(build_params(lam, 8.0, 0.5, 0.5), n_doublings=2)
        norms.append(probe.pairwise_bound_norms[0])
        gamma_exp = probe.gamma_exponent
    lam_exp = fit_exponent(np.array(lams), np.array(norms)).slope
    print(f"criterion 11 info: discretisation gamma-exponent {gamma_exp:+.4f} "
          "(statement predicts +1, proof predicts +0.5)")
    _report("11 darboux-and-discretisation",
            gap_exp <= -1.0 + 0.1 and abs(lam_exp - 0.25) <= 0.1,
            f"gap exponent {gap_exp:+.4f}, norm lam-exponent {lam_exp:+.4f}")


def test_12_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV output."""
    doc = {
        "lambda_ladder": [64.0],
        "gamma": {"mode": "fixed", "values": [2.0]},
        "alpha_list": [0.5],
        "p_rule": {"mode": "fixed", "values": [0.5, 0.8]},
        "mc_samples": 100,
        "seed": 7,
        "output_stem": str(tmp_path / "det"),
    }
    run_sweep(parse_config(doc))
    first_csv = (tmp_path / "det.csv").read_bytes()
    first_json = (tmp_path / "det.json").read_bytes()
    run_sweep(parse_config(doc))
    ok = ((tmp_path / "det.csv").read_bytes() == first_csv
          and (tmp_path / "det.json").read_bytes() == first_json)
    _report("12 determinism", ok, f"{len(first_csv)} CSV bytes reproduced")
