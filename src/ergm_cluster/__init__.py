"""Exponential random graphs as lattice gases, with certified cluster expansions.

The package computes the free energy of an exponential random graph model two
independent ways: exact enumeration over all graphs on a small vertex set, and
a polymer (cluster) expansion of the equivalent lattice-gas partition function
whose convergence is certified site by site.  Densities and interaction
coefficients are exact rationals wherever the underlying quantity is one.
"""

from .coefficients import (
    CoefficientTable,
    abar_recursion,
    coefficient_tail,
    gamma_closed_form,
    generating_function_check,
    optimal_M,
    radius_and_tail,
    region_bound,
)
from .ensemble import (
    EnsembleResult,
    ensemble_result,
    expectation_densities,
    motif_hom_table,
    partition_normalized,
    phi_n,
    psi_n,
    results_csv,
)
from .expansion import (
    ExpansionReport,
    KPCertificate,
    Polymer,
    enumerate_connected_hypergraphs,
    expansion_report,
    kp_certify,
    polymer_table,
    report_jsonable,
    truncated_log_partition,
)
from .graphs import (
    BUILTIN_MOTIFS,
    ENSEMBLE_GUARD,
    GuardExceeded,
    Motif,
    SimpleGraph,
    all_edge_sites,
    graph_from_json,
    graph_from_mask,
    hom_count,
    hom_density,
    load_motif,
    make_graph,
    motif_from_json,
)
from .lattice import (
    Interaction,
    banach_norm,
    build_interaction,
    exact_density,
    exact_hom_count,
    interaction_dump,
    interaction_from_dump,
    pinned_density,
    representation_check,
    support_families,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_MOTIFS",
    "CoefficientTable",
    "ENSEMBLE_GUARD",
    "EnsembleResult",
    "ExpansionReport",
    "GuardExceeded",
    "Interaction",
    "KPCertificate",
    "Motif",
    "Polymer",
    "SimpleGraph",
    "abar_recursion",
    "all_edge_sites",
    "banach_norm",
    "build_interaction",
    "coefficient_tail",
    "ensemble_result",
    "enumerate_connected_hypergraphs",
    "exact_density",
    "exact_hom_count",
    "expansion_report",
    "expectation_densities",
    "gamma_closed_form",
    "generating_function_check",
    "graph_from_json",
    "graph_from_mask",
    "hom_count",
    "hom_density",
    "interaction_dump",
    "interaction_from_dump",
    "kp_certify",
    "load_motif",
    "make_graph",
    "motif_from_json",
    "motif_hom_table",
    "optimal_M",
    "partition_normalized",
    "phi_n",
    "pinned_density",
    "polymer_table",
    "psi_n",
    "radius_and_tail",
    "region_bound",
    "report_jsonable",
    "representation_check",
    "results_csv",
    "support_families",
    "truncated_log_partition",
]
