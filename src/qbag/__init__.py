"""Reasoning over acyclic quantitative bipolar argumentation graphs.

Final strengths under modular gradual semantics, argument-to-argument
contribution functions (removal, intrinsic removal, Shapley, gradient),
instance-level principle checking, a replayable example corpus, and a
seeded violation fuzzer.  See the README for the command line interface.
"""

from types import ModuleType as _ModuleType

from .contributions import (
    DEFAULT_EXACT_CAP,
    ContributionMethod,
    ContributionTable,
    EvaluationCache,
    Gradient,
    IntrinsicRemoval,
    Removal,
    ShapleyExact,
    ShapleySampled,
    UNDEFINED,
    Undefined,
    contrib_intrinsic_removal,
    contrib_removal,
    contribution,
    contribution_table,
    method_by_name,
)
from .errors import (
    CyclicGraph,
    DomainError,
    DuplicateArgument,
    GraphFormatError,
    NotDistinct,
    OverlappingRelation,
    QBAGError,
    StrengthOutOfRange,
    TooLarge,
    UnknownArgument,
    UnknownEndpoint,
    UnknownExample,
)
from .fuzz import FuzzConfig, FuzzWitness, random_qbag, search_violation
from .graph import (
    QBAG,
    argument_mask,
    reaches,
    remove_incoming,
    restrict,
    strictly_closer,
    topological_order,
    with_initial_strength,
)
from .graphfile import load_graph, parse_graph, save_graph, serialize_graph
from .principles import (
    CheckConfig,
    PrincipleId,
    PrincipleReport,
    Verdict,
    principle_by_name,
    run_check,
)
from .semantics import (
    Aggregation,
    DFQUAD,
    EB,
    EBT,
    EulerBased,
    GradualSemantics,
    GradientVector,
    Linear,
    PMax,
    PRESETS,
    QE,
    SD_DFQUAD,
    StrengthAssignment,
    aggregate,
    evaluate,
    gradient_of_topic,
    influence,
    kink_margin,
    semantics_by_name,
)

# the imported names, not the submodules that importing them binds here
__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]
__version__ = "0.1.0"
