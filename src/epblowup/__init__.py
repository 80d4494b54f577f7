"""Blow-up certificates and virial diagnostics for radial self-forced gas flows."""

from .constants import (ConstantsTable, build_table, chemin_c8,
                        interaction_split_constant, mass_bound_constants,
                        minimize_hls, InfeasibleExponentError)
from .core import (ConfigError, GridMismatchError, ModelParams,
                   NonFiniteSampleError, ProfileError, ProfileSpec,
                   RadialGrid, RadialState, RunSetup, TailViolationError,
                   build_profile, parse_config, parse_config_text,
                   recover_entropy, unit_ball_measure)
from .criteria import NoCrossingError, Verdict, check_all, lifespan_bound
from .diagnostics import (NonuniformSpacingError, QuantitySet,
                          compute_quantities, finite_difference_rates,
                          series_csv, write_series_csv)
from .oracles import (MarginReport, build_corpus, corpus_grid, run_suite,
                      verify_chemin, verify_energy_bounds, verify_hlp,
                      verify_hls, verify_lemma_split)
from .poisson import (enclosed_weight_force, laplacian_residual,
                      solve_potential)
from .quadrature import integrate_radial, interaction_integral
from .solver import RunResult, SolverConfig, run, step

__version__ = "0.1.0"
