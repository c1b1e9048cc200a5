"""The package's public names, pinned: an export added or dropped by
accident fails here, and a deliberate one edits this set."""

import types

import mvbernstein as mv

PUBLIC = {
    # bernstein
    "BernsteinModel", "CLAMP_TOL", "CUBE", "DomainError", "Kind", "MEMORY_BUDGET", "SIMPLEX",
    "SizeError", "build_model", "derivative", "dump_model", "evaluate", "load_model", "mixed",
    "model_lattice", "model_size", "oracle_deriv", "parse_model", "save_model",
    # finite_diff
    "DiffSpec", "ScalarField", "delta_mixed", "difference_integral_check",
    # harness
    "CORPUS_NAMES", "ConvergenceReport", "FunctionSpec", "GridSpec", "convergence_table",
    "corpus_member", "grid_points", "sup_error",
    # multiindex
    "as_index",
    # stochastic
    "McReport", "lln_diagnostic", "mc_deriv", "mc_eval", "z_score",
}


def test_public_names_are_pinned():
    # attributes without a leading underscore, modules left out
    names = {a for a, v in vars(mv).items() if not a.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC
    assert len(PUBLIC) == 37
