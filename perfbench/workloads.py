"""Workload inputs, generated from the workload seed with the standard library.

Each generator returns a plain JSON-able dict.  The package under test only
ever sees what these dicts describe: a sweep config document for `parse_config`
or the geometry list of the oracle audit.  `tiny=True` shrinks every workload
to a few rows so the smoke tests finish in seconds; it keeps every layer in
play.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep_ladder", "mc_coverage", "oracle_audit")

# The layers expected to dominate each workload, from profiling the seed
# code.  The traced run reports their measured share of self time, so a change
# that moves the cost elsewhere shows.
DOMINANT_LAYERS = {
    "sweep_ladder": ("oscint.build_kernel",),
    "mc_coverage": ("montecarlo.mc_moments",),
    "oracle_audit": ("moments.enumerate_moments", "moments.exact_variance_generic",
                     "montecarlo.mass_double_sum", "montecarlo.grid_quadrature_mass",
                     "oscint.pair_integral_2d_oracle", "montecarlo.e1_error_norm"),
}

# J0 micro-benchmark: arguments s*t with t in [0, 2] over the sweep_ladder
# s-range, whose widest row is lam=2048, alpha=0.3.
J0_ARG_MAX = 2.0 * 2.0 * 2048.0 ** 0.7
J0_EVALS = 1_000_000
J0_EVALS_TINY = 100_000


def sweep_ladder(seed: int, tiny: bool = False) -> dict:
    """README-style moment sweep, Monte Carlo off: 6 lam x 3 alpha x 2 p rows."""
    rng = random.Random(seed)
    biased_p = rng.uniform(0.55, 0.95)
    return {
        "lambda_ladder": [64, 128] if tiny else [64, 128, 256, 512, 1024, 2048],
        "gamma": {"mode": "fixed", "values": [8]},
        "alpha_list": [0.5] if tiny else [0.3, 0.5, 0.7],
        "p_rule": {"mode": "fixed", "values": [0.5, biased_p]},
        "mc_samples": 0,
        "seed": rng.randrange(1 << 31),
    }


def mc_coverage(seed: int, tiny: bool = False) -> dict:
    """Monte Carlo sweep with the grid cross-check on every row.

    Three coin values share each kernel: fair, the bias threshold
    p = 0.5 + lam**(-alpha/2) / sqrt(gamma) at the largest lam (inside the
    threshold for every smaller lam), and 0.9.
    """
    rng = random.Random(seed)
    ladder = [64] if tiny else [256, 512]
    gamma, alpha = 8.0, 0.5
    p_threshold = 0.5 + ladder[-1] ** (-alpha / 2.0) / gamma ** 0.5
    return {
        "lambda_ladder": ladder,
        "gamma": {"mode": "fixed", "values": [gamma]},
        "alpha_list": [alpha],
        "p_rule": {"mode": "fixed", "values": [0.5, p_threshold, 0.9]},
        "mc_samples": 200 if tiny else 5000,
        "seed": rng.randrange(1 << 31),
        "grid_check": True,
        "grid_check_lambda_cap": ladder[-1],
    }


def _geometry(rng: random.Random, n: int, lam: float, alpha: float) -> dict:
    """N directions at frequency lam, a drawn coin and three spot separations."""
    return {"lam": lam, "gamma": n / lam, "alpha": alpha, "p": rng.uniform(0.2, 0.8),
            "n": n, "spot": [1, rng.randrange(2, n // 2), n // 2]}


def oracle_audit(seed: int, tiny: bool = False) -> dict:
    """Small seed-drawn geometries for every oracle the lab keeps.

    enumeration: 2**N sign vectors at N = 16..20 against the closed forms;
    generic: the dense variance double loop at N = 512;
    dense: O(N**2) double sum and planar grid at N = 4096, lam 512 and 1024,
    alpha 0.3, against the FFT quadratic form;
    discretisation: the e1 error probe, whose literal norm must vanish.
    Kernel rows of the enumeration and generic geometries are spot-checked
    against the 1-d pair-integral oracle at the listed separations, and those
    of the generic geometry also against the 2-d grid oracle.

    The 2-d oracle resolves the window only when lam**(1-alpha) >= 8, the
    range its own tests cover, so the generic geometry is drawn there.  The
    discretisation probe subtracts gamma*lam*J0, so its literal norm vanishes
    only when gamma*lam is the direction count: lam is a whole number there.

    The seed draws values, not costs: the grid oracles cost about
    lam**(2(1-alpha)) * N, so their lam is fixed (dense) or drawn from a
    narrow range (discretisation), and run-to-run spread stays the host's.
    """
    rng = random.Random(seed)
    enum_sizes = (12, 13) if tiny else (16, 17, 18, 19, 20)
    generic_n = 64 if tiny else 512
    dense_n, dense_lams = (256, (64.0, 128.0)) if tiny else (4096, (512.0, 1024.0))
    return {
        "enumeration": [_geometry(rng, n, rng.uniform(16.0, 64.0), rng.uniform(0.1, 0.8))
                        for n in enum_sizes],
        "generic": [_geometry(rng, generic_n, rng.uniform(64.0, 256.0),
                              rng.uniform(0.3, 0.5))],
        "dense": [dict(_geometry(rng, dense_n, lam, 0.3), sign_seed=rng.randrange(1 << 31))
                  for lam in dense_lams],
        "discretisation": [{"lam": float(rng.randint(120, 128) if tiny
                                         else rng.randint(240, 256)),
                            "gamma": 8.0, "alpha": 0.5, "p": 0.5}],
    }


def make(workload: str, seed: int, tiny: bool = False) -> dict:
    return {"sweep_ladder": sweep_ladder, "mc_coverage": mc_coverage,
            "oracle_audit": oracle_audit}[workload](seed, tiny)
