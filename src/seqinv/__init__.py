"""Conjugate Gaussian sequence-space inverse problems.

Diagonal observation model Y_i = kappa_i mu_i + Z_i / sqrt(n) with a
Gaussian shrinkage prior: exact posteriors, risk and credible-set
calculations, convergence-rate bookkeeping, a Volterra-operator example,
and reproducible experiment harnesses.
"""

__version__ = "0.1.0"

from .credible import (
    BvmDiagnostics,
    CoverageReport,
    EigenWeights,
    ball_coverage,
    ball_radius,
    bvm_diagnostics,
    credible_weights,
    interval_coverage,
)
from .harness import (
    DEFAULT_LEMMA_COMBOS,
    ExperimentConfig,
    ResultTable,
    cli_main,
    default_config,
    rate_table,
    run_ball_coverage,
    run_bvm,
    run_contraction,
    run_functional_coverage,
    run_lemma_order,
    run_volterra_demo,
)
from .model import (
    ForwardSpec,
    KappaKind,
    Observation,
    PriorSpec,
    Truth,
    default_trunc,
    extremal_truth_functional,
    gain,
    generate_observation,
    make_truth,
    sobolev_norm,
    spike_truth_ball,
)
from .posterior import (
    Functional,
    PosteriorSummary,
    RiskDecomposition,
    bias_coordinates,
    coordinate_posterior,
    functional_interval,
    posterior_draws,
    risk_decomposition,
)
from .rates import (
    FunctionalRateTerms,
    RateTerms,
    RegimeParams,
    SequenceFamily,
    SeriesDiagnostics,
    SlowlyVarying,
    contraction_rate,
    contraction_terms,
    functional_rate_terms,
    functional_tau_balance_factor,
    optimal_tau_exponent,
    optimal_tau_functional,
    series_lemma_sum_auto,
    series_limit_value,
    series_order_exponent,
    slowly_varying_corrections,
)
from .util import (
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    RegimeError,
    TruncationError,
    child_seed,
    rng_for,
    seed_tag,
    stable_sum,
)
from .volterra import (
    GridFunction,
    credible_band,
    figure_demo,
    point_functional,
    synthesize,
)

import types as _types

__all__ = [name for name, obj in sorted(globals().items())
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]
