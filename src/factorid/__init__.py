"""Variance-identifiability checks for sparse factor loading patterns.

Decides whether a binary sparsity pattern guarantees, generically, a unique
split of a covariance matrix into common and idiosyncratic variance. The
decision runs in polynomial time via bipartite matching, with a brute-force
oracle and constructive witnesses alongside. The paper's min-cut network is
kept with the tests, as the reference for the s=1 route.
"""

from factorid._kernels import active_backend
from factorid.errors import FactorIdError
from factorid.identify import (
    CountingRuleVerdict,
    FailWitness,
    IdentificationVerdict,
    Matching,
    PassWitness,
    RcmDecomposition,
    counting_rule,
    counting_rule_bruteforce,
    counting_rule_s0,
    counting_rule_s1,
    rcm_decomposition,
    variance_identified,
)
from factorid.pattern import SparsityPattern, TrimReport, parse_pattern, trim

__version__ = "0.1.0"

__all__ = [
    "CountingRuleVerdict",
    "FactorIdError",
    "FailWitness",
    "IdentificationVerdict",
    "Matching",
    "PassWitness",
    "RcmDecomposition",
    "SparsityPattern",
    "TrimReport",
    "active_backend",
    "counting_rule",
    "counting_rule_bruteforce",
    "counting_rule_s0",
    "counting_rule_s1",
    "parse_pattern",
    "rcm_decomposition",
    "trim",
    "variance_identified",
]
