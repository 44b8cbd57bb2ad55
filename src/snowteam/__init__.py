"""Solvers for the snow-team family of directed-graph clearing problems.

Ploughs placed on vertices follow directed walks, clearing every arc they
traverse; the goal is to reconnect all facility vertices in the underlying
graph of the cleared arcs.  The package provides randomized fixed-parameter
pipelines (tree-candidate enumeration plus algebraic multilinear-monomial
detection), exact search oracles, and the Set-Cover hardness gadget with
constructive solution translations.
"""

from .algebra import gf_mul
from .digraph import (
    Instance,
    ParseError,
    SolutionWalks,
    Walk,
    facilities_connected,
    make_instance,
    parse_instance,
    parse_walks,
    serialize_instance,
    serialize_walks,
    sources,
    transitive_closure,
    verify_st_solution,
    walk_is_valid,
    walks_from_lists,
)
from .exact import (
    LimitsExceeded,
    solve_st_exact,
    solve_tpe_exact,
    solve_variant_exact,
)
from .gadgets import (
    GadgetLayout,
    SetCoverInstance,
    build_gadget,
    cover_to_walks,
    gen_fig3,
    parse_set_cover,
    serialize_gadget,
    serialize_set_cover,
    solve_set_cover_exact,
    walks_to_cover,
)
from .solvers import (
    SolveParams,
    SolveReport,
    is_tree_like,
    normalize_to_tree_like,
    solve_all_st,
    solve_max_st,
    solve_min_st,
    solve_st,
    solve_stu,
)
from .tpe import (
    Circuit,
    build_circuit,
    detect_zt_multilinear,
    eval_trial,
    expand_symbolic,
)
from .trees import (
    FreeTree,
    TreeCandidate,
    candidate_from_code,
    candidate_stream,
    enumerate_free_trees,
    orient_tree,
    plough_demand,
)

__version__ = "0.1.0"
