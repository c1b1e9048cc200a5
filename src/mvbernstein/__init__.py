"""Bernstein approximation of smooth multivariate functions with
closed-form evaluation of mixed partial derivatives.

Domains: the unit cube, the unit simplex, and products of a simplex block
with a cube block, all handled as products of simplex blocks (a cube axis
is a 1-wide block). Deterministic evaluators are paired with Monte Carlo
estimators built on binomial and multinomial sampling, and with a harness
that measures uniform convergence of values and derivatives on fixed grids.
"""

from .bernstein import (
    CLAMP_TOL,
    CUBE,
    SIMPLEX,
    BernsteinModel,
    DomainError,
    Kind,
    build_model,
    deriv_cube_grid,
    derivative,
    dump_model,
    eval_cube_grid,
    evaluate,
    load_model,
    mixed,
    model_lattice,
    model_size,
    oracle_deriv,
    parse_model,
    save_model,
)
from .finite_diff import (
    DiffSpec,
    ScalarField,
    delta_mixed,
    delta_mixed_iterated,
    difference_integral_check,
)
from .harness import (
    CORPUS_NAMES,
    ConvergenceReport,
    FunctionSpec,
    GridSpec,
    convergence_table,
    corpus_member,
    grid_points,
    sup_error,
)
from .multiindex import MEMORY_BUDGET, SizeError, as_index
from .stochastic import (
    McReport,
    lln_diagnostic,
    mc_deriv,
    mc_eval,
    z_score,
)

__version__ = "0.1.0"
