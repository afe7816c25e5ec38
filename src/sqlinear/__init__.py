"""Likelihood geometry of squared linear statistical models.

A squared linear model assigns state probabilities proportional to the
squares of n linear forms in d unknowns. This package computes the exact
combinatorics of the underlying hyperplane arrangement (characteristic
polynomial, ML degree, regions with witnesses), solves the per-region
maximum-likelihood problems numerically, produces the determinantal
likelihood matrix, degenerate and tropical critical points, log-normal
polytopes with their dual combinatorics, and determinantal-point-process
instantiations. See README.md for the CLI.
"""

from .arrangement import (
    Arrangement,
    CharacteristicPolynomial,
    Flat,
    KernelComplement,
    Region,
    SignVector,
    characteristic_polynomial,
    enumerate_regions,
    flats,
    generic_ml_degree,
    interior_samples,
    kernel_complement,
    ml_degree,
    snc_check,
)
from .degeneration import (
    DegenerateSolution,
    TropicalData,
    TropicalPoint,
    ValuationEstimate,
    estimate_valuations,
    tropical_predictions,
    unit_data_solutions,
)
from .dpp import (
    DPPModel,
    dpp_ml_degree_l2,
    dpp_probabilities,
    linear_projection_arrangement,
)
from .geometry import (
    Polytope,
    chamber_arrangement,
    combinatorial_type_scan,
    dual_polytope,
    log_voronoi_scan,
    lognormal_polytope,
    swap_candidates,
)
from .mle import (
    CriticalPoint,
    LikelihoodMatrix,
    SolveOptions,
    likelihood_matrix,
    rank_defect,
    solve_all,
    solve_region,
)
from .model import (
    SquaredLinearModel,
    VeroneseGenerators,
    evaluate,
    evaluate_exact,
    gradient,
    log_likelihood,
    make_model,
    minor_space_dimension,
    singular_subspaces,
    steiner_quartic,
    veronese_generators,
)

__version__ = "0.1.0"
