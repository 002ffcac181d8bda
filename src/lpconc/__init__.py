"""Concentration of p-norms with small exponents: rates, bounds, experiments.

The package answers one family of questions: for i.i.d. coordinates, how
often does the p-norm of a vector land within a (1 ± delta) band around its
typical value, how fast does that probability improve with dimension, and
when does an atom at zero destroy the effect.  Modules:

- distributions: coordinate laws and their moment machinery
- rate_engine: exponential rates by concave maximization, limits in p
- closed_forms: the handful of analytically solvable rate formulas
- anti_concentration: exact and Gaussian-approximation bounds with atoms
- monte_carlo: deterministic chunk-parallel frequency experiments
- embedding_lab: synthetic retrieval-style vector populations and their tables
- diagnostics: CSV pipeline, perturbations, KS/Wasserstein drift tests
- cli: the `lpconc` command
"""

from .distributions import (
    DiffUniform,
    Distribution,
    Empirical,
    StandardNormal,
    ThreePointSymmetric,
    TwoPoint,
    UniformSymmetric,
    UniformUnit,
    ZeroInflated,
    moment_report,
    parse_spec,
    sample,
    validate_assumptions,
)
from .rate_engine import (
    BoundResult,
    LargePLimits,
    RateResult,
    c_star,
    chernoff_bounds,
    contrast_bounds,
    lambda_value,
    large_p_limits,
    phi,
    rate,
    small_p_rate,
    uniform_rate,
)
from .closed_forms import (
    catalog,
    cube_upper_bound,
    diff_uniform_f,
    diff_uniform_maximizer,
    phi_closed,
    uniform_f,
    uniform_maximizer,
)
from .anti_concentration import (
    AntiConcReport,
    BerryEsseenBounds,
    berry_esseen_bounds,
    binomial_mode_prob,
    exact_two_point_concentration,
    exact_two_point_tails,
    find_p_star,
    min_dimension,
    p_star_for_epsilon,
)
from .monte_carlo import (
    ConcentrationGrid,
    ContrastSummary,
    concentration_frequency,
    contrast_sweep,
    curve_sweep,
    log_lp_norms,
    lp_norms,
    pair_contrast,
    relative_contrast,
    wilson_halfwidth,
)
from .embedding_lab import (
    ALL_KINDS,
    EmbeddingKind,
    EmbeddingTable,
    concentration_table,
    contrast_table,
    generate,
)
from .diagnostics import (
    ConcentrationCurve,
    Dataset,
    PerturbReport,
    concentration_curve,
    drop_constant,
    ks_two_sample,
    load_csv,
    mode_shift,
    perturb_report,
    standardize,
    wasserstein_1d,
    zero_impute,
)

__version__ = "0.1.0"
