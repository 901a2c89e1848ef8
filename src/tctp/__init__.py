"""Adversarial route planning on temporal graphs.

Solvers for traveller-vs-blocker reachability games (uninformed and locally
informed temporal variants, the static variant, and the underlying DAG game),
hardness gadget generators, and a referee arena.
"""

from .arena import (
    BLOCKER_WIN,
    MODELS,
    TRAVELLER_WIN,
    Transcript,
    VerifyResult,
    builtin_policies,
    play,
    scripted_blocker,
    transcript_traveller_policy,
    verify_traveller_strategy,
)
from .core import (
    Instance,
    StaticEdge,
    StaticGraph,
    TemporalGraph,
    TimeEdge,
    lifespan,
    parse_instance,
    serialize_instance,
)
from .dagctp import (
    UNREACHABLE,
    PiTable,
    brute_dag_game,
    compute_pi,
    decide_dag,
)
from .errors import (
    CyclicGraphError,
    InstanceFormatError,
    SizeLimitError,
)
from .expansion import ExpandedDag, build_expansion
from .gadgets import (
    CnfFormula,
    QbfFormula,
    SatResult,
    eval_cnf_sat,
    eval_qbf,
    gen_li_np,
    gen_li_pspace,
    gen_static_np,
    parse_dimacs,
)
from .litctp import NEVER, K1Result, LiGame, exact_li, solve_k1
from .samples import separating_instance
from .staticctp import StaticGame, decide_static, exact_static_value
from .utctp import (
    UDecision,
    brute_u_game,
    decide_u,
    earliest_arrival,
    latest_departure,
    shortest_duration,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCKER_WIN",
    "CnfFormula",
    "CyclicGraphError",
    "ExpandedDag",
    "Instance",
    "InstanceFormatError",
    "K1Result",
    "LiGame",
    "MODELS",
    "NEVER",
    "PiTable",
    "QbfFormula",
    "SatResult",
    "SizeLimitError",
    "StaticEdge",
    "StaticGame",
    "StaticGraph",
    "TRAVELLER_WIN",
    "TemporalGraph",
    "TimeEdge",
    "Transcript",
    "UDecision",
    "UNREACHABLE",
    "VerifyResult",
    "brute_dag_game",
    "brute_u_game",
    "build_expansion",
    "builtin_policies",
    "compute_pi",
    "decide_dag",
    "decide_static",
    "decide_u",
    "earliest_arrival",
    "eval_cnf_sat",
    "eval_qbf",
    "exact_li",
    "exact_static_value",
    "gen_li_np",
    "gen_li_pspace",
    "gen_static_np",
    "latest_departure",
    "lifespan",
    "parse_dimacs",
    "parse_instance",
    "play",
    "scripted_blocker",
    "separating_instance",
    "serialize_instance",
    "shortest_duration",
    "solve_k1",
    "transcript_traveller_policy",
    "verify_traveller_strategy",
    "__version__",
]
