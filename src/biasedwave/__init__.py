"""Verification lab for planar random waves with biased +-1 sign coefficients.

Computes the exact expectation and variance of the smoothed local L2 mass of
u(x) = sum_j C_j exp(i * lam * x . xi_j) over N equispaced unit directions,
where each C_j is +1 with probability p and -1 otherwise, and cross-checks the
closed forms against enumeration, Monte Carlo, and grid-quadrature oracles.
Scaling experiments confirm the moment growth rates and the bias thresholds at
which small-ball equidistribution survives.
"""

__version__ = "0.1.0"

from .fitting import FitResult, fit_exponent
from .model import (DirectionSet, WaveParams, build_cutoff, build_directions,
                    build_params, cutoff_mass, cutoff_value)
from .moments import (build_report, calibrate_constants, coin_pair_moment,
                      enumerate_moments, exact_expectation, exact_variance,
                      exact_variance_generic, expectation_bounds, variance_bound)
from .montecarlo import (DarbouxProbe, DiscretisationProbe, darboux_error,
                         e1_error_norm, grid_quadrature_mass, mass_double_sum,
                         mass_quadratic_form, mc_moments, sample_coefficients)
from .oscint import (PairKernel, QuadratureError, build_kernel, decay_bound,
                     dyadic_sum_check, pair_integral, pair_integral_2d_oracle)
from .specfun import (AsymptoticCheck, EnvelopeTable, angular_integral,
                      asymptotic_check, bessel_j0, residual_probe_points,
                      stationary_leading_term, surface_wave_envelope)
from .cli import (SweepConfig, SweepResult, export_kernel_csv, load_config,
                  parse_config, run_sweep, threshold_experiment)

