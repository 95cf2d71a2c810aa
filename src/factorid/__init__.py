"""Variance-identifiability checks for sparse factor loading patterns.

Decides whether a binary sparsity pattern guarantees, generically, a unique
split of a covariance matrix into common and idiosyncratic variance. The
decision runs in polynomial time via bipartite matching, with the paper's
min-cut network, brute-force oracles and constructive witnesses alongside.
"""

from factorid._kernels import active_backend
from factorid.bipartite import (
    BipartiteGraph,
    Matching,
    VertexCover,
    generate_bipartite,
    maximum_matching,
    minimum_vertex_cover,
)
from factorid.errors import FactorIdError
from factorid.flow import (
    Arc,
    CutResult,
    FlowNetwork,
    build_identification_network,
    max_flow_min_cut,
    mwvc_from_cut,
)
from factorid.identify import (
    CountingRuleVerdict,
    FailWitness,
    GenericCheckReport,
    IdentificationVerdict,
    PassWitness,
    RankFailure,
    RcmDecomposition,
    counting_rule,
    counting_rule_bruteforce,
    counting_rule_s0,
    counting_rule_s1,
    generic_rank_check,
    rcm_decomposition,
    variance_identified,
)
from factorid.pattern import SparsityPattern, TrimReport, parse_pattern, trim

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BipartiteGraph",
    "CountingRuleVerdict",
    "CutResult",
    "FactorIdError",
    "FailWitness",
    "FlowNetwork",
    "GenericCheckReport",
    "IdentificationVerdict",
    "Matching",
    "PassWitness",
    "RankFailure",
    "RcmDecomposition",
    "SparsityPattern",
    "TrimReport",
    "VertexCover",
    "active_backend",
    "build_identification_network",
    "counting_rule",
    "counting_rule_bruteforce",
    "counting_rule_s0",
    "counting_rule_s1",
    "generate_bipartite",
    "generic_rank_check",
    "max_flow_min_cut",
    "maximum_matching",
    "minimum_vertex_cover",
    "mwvc_from_cut",
    "parse_pattern",
    "rcm_decomposition",
    "trim",
    "variance_identified",
]
