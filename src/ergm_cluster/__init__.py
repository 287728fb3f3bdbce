"""Exponential random graphs as lattice gases, with certified cluster expansions.

The package computes the free energy of an exponential random graph model two
independent ways: exact enumeration over all graphs on a small vertex set, and
a polymer (cluster) expansion of the equivalent lattice-gas partition function
whose convergence is certified site by site.  Densities and interaction
coefficients are exact rationals wherever the underlying quantity is one.

Each exported name is imported from its module on first access, so a caller
of the exact route never loads the expansion or its coefficient tables.
"""

import importlib

_EXPORTS = {
    "coefficients": (
        "CoefficientTable", "abar_recursion", "coefficient_tail", "gamma_closed_form",
        "generating_function_check", "optimal_M", "radius_and_tail", "region_bound",
    ),
    "ensemble": (
        "EnsembleResult", "ensemble_result", "expectation_densities", "motif_hom_table",
        "partition_normalized", "phi_n", "psi_n",
    ),
    "expansion": (
        "ExpansionReport", "KPCertificate", "Polymer", "enumerate_connected_hypergraphs",
        "expansion_report", "kp_certify", "polymer_table", "truncated_log_partition",
    ),
    "graphs": (
        "BUILTIN_MOTIFS", "ENSEMBLE_GUARD", "GuardExceeded", "Motif", "SimpleGraph",
        "all_edge_sites", "graph_from_json", "hom_count", "hom_density", "load_motif",
        "make_graph", "motif_from_json",
    ),
    "lattice": (
        "Interaction", "banach_norm", "build_interaction", "exact_density", "exact_hom_count",
        "pinned_density", "representation_check", "support_families",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An exported name, imported from its module and kept here on first access."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
