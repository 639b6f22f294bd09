"""Analysis of one-ports built from identical power-law conductors.

The library solves the exact DC input characteristic F(v_in) of such a
one-port, runs the alpha-test (power-law profiles phi(alpha) and node
ratios d_k(alpha)), builds the structural-superposition estimate
G(v_in) = sum_p D_p phi(alpha_p) v_in**alpha_p, and quantifies the gap
between F and G, including a voltage-drop bound.  Closed forms for the
infinite ladder and the mesh-current (resistive) dual are included, along
with a netlist parser and a CLI (``alphaport``).
"""

from .alpha import AlphaProfile, DSweep, alpha_solve, d_sweep, hardlimiter_limit, phi_closed_form_fig_a1
from .characteristic import Characteristic, combine, format_characteristic, parse_characteristic
from .circuit import (
    CANONICAL_NAMES,
    Branch,
    Circuit,
    Mesh,
    NetlistError,
    ValidationReport,
    build_canonical,
    parse_netlist,
    render_netlist,
    validate,
)
from .ladder import (
    SERIES_LIMIT_RATIO,
    LadderResult,
    ladder_fixed_point,
    ladder_g_coeffs,
    ladder_nonlinearity_degree,
    ladder_phi,
    lambda_root,
    truncation_convergence,
)
from .mesh import MeshSolution, mesh_solve, phi_b6_closed_form, phi_meshes_from_nodes
from .solver import (
    DcSolution,
    SolverError,
    co_content,
    port_current_sum,
    solve_dc,
    solve_grid,
)
from .superposition import (
    IntermediateValueResult,
    LeadingTermCheck,
    SuperpositionReport,
    TermContribution,
    d_growth_coefficient,
    error_bound,
    extract_series_coeffs,
    intermediate_value_check,
    report,
    report_grid,
    leading_term_check,
    superpose,
    term_split_input_currents,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaProfile",
    "Branch",
    "CANONICAL_NAMES",
    "Characteristic",
    "Circuit",
    "DSweep",
    "DcSolution",
    "IntermediateValueResult",
    "LadderResult",
    "Mesh",
    "MeshSolution",
    "NetlistError",
    "SERIES_LIMIT_RATIO",
    "SolverError",
    "LeadingTermCheck",
    "SuperpositionReport",
    "TermContribution",
    "ValidationReport",
    "alpha_solve",
    "build_canonical",
    "co_content",
    "combine",
    "d_growth_coefficient",
    "d_sweep",
    "error_bound",
    "extract_series_coeffs",
    "format_characteristic",
    "hardlimiter_limit",
    "intermediate_value_check",
    "ladder_fixed_point",
    "ladder_g_coeffs",
    "ladder_nonlinearity_degree",
    "ladder_phi",
    "lambda_root",
    "mesh_solve",
    "parse_characteristic",
    "parse_netlist",
    "phi_b6_closed_form",
    "phi_closed_form_fig_a1",
    "phi_meshes_from_nodes",
    "port_current_sum",
    "render_netlist",
    "report",
    "report_grid",
    "solve_dc",
    "solve_grid",
    "leading_term_check",
    "superpose",
    "term_split_input_currents",
    "truncation_convergence",
    "validate",
]
