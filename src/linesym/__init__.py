"""Line-graph symmetry toolkit.

Build simple graphs, derive line / subdivision / clique graphs, enumerate
arcs and geodesics, compute automorphism groups with exact orders, and check
the transitivity claims tying a graph's arc structure to its line graph's
geodesic structure.
"""

from .constructions import (
    DerivedGraph,
    catalog,
    clique_graph,
    line_graph,
    subdivision_graph,
)
from .graph6 import emit_graph6, parse_graph6
from .graphs import (
    Graph,
    build_graph,
    is_complete,
    is_regular,
    isomorphic,
)
from .metrics import (
    LocalType,
    diameter,
    girth,
    is_connected,
    local_type,
)
from .symmetry import (
    AutGroup,
    OrbitPartition,
    Permutation,
    automorphisms,
    induced_edge_action,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    transitive_on,
)
from .verify import (
    Corpus,
    VerdictReport,
    check_diameter_lemma,
    check_line_equivalence,
    check_lmap_theorem,
    check_locally_cyclic,
    check_subdivision_diameter,
    check_weiss_flag,
    classify_valency4_girth3,
    run_corpus,
)
from .walks import (
    enumerate_arcs,
    enumerate_geodesics,
)

__version__ = "0.1.0"
