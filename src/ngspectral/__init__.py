"""Nordhaus-Gaddum spectral toolkit.

Adjacency spectra of graph/complement pairs, a table of the eigenvalue
inequalities that bound them, the Kronecker-recursive extremal constructions
that approach those bounds, and exact/heuristic search for the extremal
functions themselves.
"""

from ngspectral.bounds import (
    BoundReport,
    RamseyCertificate,
    ramsey_certificate,
    run_battery,
    violations,
)
from ngspectral.constructions import (
    a_spectrum_closed_form,
    construct_a,
    extremal_graph,
    witness_check,
)
from ngspectral.eigensolver import symmetric_eigenvalues
from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import (
    Graph,
    Matrix01,
    blowup,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    erdos_renyi,
    generate,
    induced_subgraph,
    max_order,
    path,
)
from ngspectral.search import (
    ExtremalRecord,
    RatioRow,
    exhaustive_f,
    local_search_f,
    objective,
    ratio_table,
    target_ratio,
)
from ngspectral.spectra import (
    DEFAULT_TOL,
    Spectrum,
    adjacency_spectrum,
    blowup_spectrum,
    mu,
    mu_bottom,
    regular_shift_spectrum,
    spectrum_pair,
    symmetric_spectrum,
)

__version__ = "0.1.0"
