"""tritrunc: a numerical laboratory for triangular truncation.

Schatten quasinorms and Schur-Hadamard products, trigonometric polynomial
kernels with L^p quadrature, Hankel matrices and dyadic-decomposition
quasinorms, certified Schur-multiplier bounds, and a batch experiment
pipeline that reproduces the associated power-law scaling at desk scale.
"""

from .fitting import ScalingFit, fit_powerlaw
from .hankel import (
    BesovReport,
    band_hankel_check,
    besov_quasinorm,
    hankel_matrix,
    polynomial_hankel_sp_bound,
)
from .kernels import (
    PointwiseFunction,
    apply_window,
    bump_poly,
    dirichlet_lp_ceiling,
    dirichlet_plus,
    fejer,
    lp_piece,
    resolvent_hp_norm,
    standard_bump,
    standard_window,
)
from .matrices import (
    block2x2,
    block_diag2,
    chi_matrix,
    delta_matrix,
    ones_matrix,
    schatten_quasinorm,
    schur_product,
    singular_values,
    triangular_projection,
)
from .multipliers import (
    WitnessReport,
    band_witness_pair,
    delta_lower_bound,
    double_witness,
    dirichlet_witness_upper,
    embed,
    fejer_riesz_ratio,
    hankel_multiplier_upper,
    random_witness_search,
    witness_embed_size,
    witness_ratio,
)
from .rng import SplitMix64, derive_seed
from .trigpoly import (
    TrigPoly,
    evaluate_on_grid,
    lp_quasinorm,
    quadrature_floor,
    riesz_minus,
    riesz_plus,
)
from .experiments import (
    DEFAULT_SEED,
    EXPERIMENT_IDS,
    ExperimentConfig,
    ExperimentResult,
    config_from_dict,
    run_experiment,
)

__version__ = "0.1.0"
