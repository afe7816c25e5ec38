"""Likelihood geometry of squared linear statistical models.

A squared linear model assigns state probabilities proportional to the
squares of n linear forms in d unknowns. This package computes the exact
combinatorics of the underlying hyperplane arrangement (characteristic
polynomial, ML degree, regions with witnesses), the implicit generators
and singular subspaces of the model, solves the per-region
maximum-likelihood problems numerically, produces the determinantal
likelihood matrix, degenerate and tropical critical points, log-normal
polytopes with their dual combinatorics, and determinantal-point-process
instantiations. See README.md for the CLI.

Names are served from their home modules on use (PEP 562), so importing the
package loads no module, and numpy comes in only with a float module.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names the package serves from it
_EXPORTS = {
    "arrangement": (
        "Arrangement CharacteristicPolynomial KernelComplement Region SignVector "
        "characteristic_polynomial enumerate_regions kernel_complement ml_degree"
    ),
    "degeneration": (
        "DegenerateSolution TropicalData TropicalPoint ValuationEstimate "
        "estimate_valuations tropical_predictions unit_data_solutions"
    ),
    "dpp": "DPPModel dpp_ml_degree_l2 dpp_probabilities linear_projection_arrangement",
    "geometry": (
        "Polytope chamber_arrangement combinatorial_type_scan dual_polytope "
        "log_voronoi_scan lognormal_polytope swap_candidates"
    ),
    "mle": "CriticalPoint likelihood_matrix rank_defect solve_all",
    "model": (
        "SquaredLinearModel VeroneseGenerators make_model minor_space_dimension singular_subspaces "
        "veronese_generators"
    ),
}
# every submodule the package used to bind by importing it at start
_MODULES = (*_EXPORTS, "errors", "ratlin", "simplex")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in the module globals: every lookup reads the home module, so
    # a name rebound there is seen here; a submodule is imported on first use.
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_MODULES))
