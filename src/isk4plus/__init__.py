"""Graph library around induced subdivisions of the once-subdivided K4:
detection, Ramsey-style biclique extraction, complete multipartite
structure with clique cutsets, and the recursive coloring built on them.
"""

from .graph import (Coloring, Graph, coloring_from_map, components,
                    graph_from_edges, induced_subgraph, is_connected)
from .formats import (FormatError, parse_graph6, read_dimacs, read_edgelist,
                      write_graph6)
from .detect import (BicliqueWitness, Detection, SubdivisionWitness,
                     chromatic_number_exact, clique_number,
                     find_biclique_subgraph, find_induced_biclique,
                     find_isk4plus, find_isk4plus_oracle, ramsey_extract_k44,
                     verify_subdivision_witness)
from .structure import (ClaimViolation, CutsetSplit, MaximalityBreach,
                        MultipartiteWitness, check_claim1, check_claim2,
                        check_claim3, find_structural_cutset,
                        grow_maximal_multipartite)
from .coloring import (ColorOptions, TraceNode, color_isk4plus_free,
                       merge_on_clique, verify_proper)

__all__ = [
    "Graph", "Coloring", "graph_from_edges", "coloring_from_map",
    "induced_subgraph", "components", "is_connected",
    "FormatError", "parse_graph6", "write_graph6", "read_edgelist",
    "read_dimacs",
    "SubdivisionWitness", "BicliqueWitness", "Detection",
    "find_isk4plus", "find_isk4plus_oracle", "verify_subdivision_witness",
    "find_biclique_subgraph", "find_induced_biclique", "ramsey_extract_k44",
    "clique_number", "chromatic_number_exact",
    "MultipartiteWitness", "ClaimViolation", "MaximalityBreach",
    "CutsetSplit", "grow_maximal_multipartite", "check_claim1",
    "check_claim2", "check_claim3", "find_structural_cutset",
    "ColorOptions", "TraceNode", "merge_on_clique", "color_isk4plus_free",
    "verify_proper",
]
