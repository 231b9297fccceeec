"""Sampling laboratory for kernel-proximal (BRWP) particle schemes and baselines."""

__version__ = "0.1.0"

from .density import (DiagnosticsReport, Grid, GridDensity, ParticleEnsemble,
                      fisher_information, fourth_moment_m0, kde, kl_divergence,
                      tv_distance, w2_1d)
from .errors import (BrwplabError, DegenerateDensityError, EvaluationError,
                     IsolatedParticleError, NumericalError, ParameterError,
                     StepsizeError, TruncationError)
from .potentials import (Potential, from_catalog, make_gaussian_mixture,
                         make_nonsmooth_mixture, make_quadratic, make_zero)
from .proximal import (GridProxOperator, ProxParams, denominator_exact,
                       denominator_laplace, first_order_expansion,
                       prox_particle_score)
from .samplers import (SamplerConfig, brwp_step, evolve_law, explicit_flow_step,
                       run, ula_step)
from .theory import (BoundInputs, kl_k_bound, kl_one_step_bound, max_stepsize,
                     optimal_stepsize, pinsker_tv_bound, sampling_complexity,
                     sequence_bound_check, talagrand_w2_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
