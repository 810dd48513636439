"""Consistency-based merging of variability models.

A knowledge base is a set of enumerated variables plus propositional
constraints over variable-value atoms. Merging two such bases guards
every source constraint with its origin context, then proves guards
away where possible and deletes constraints the rest already implies,
preserving the union of the two solution spaces throughout.
"""

from .bench import BenchRow, run_benchmark, write_bench_csv
from .errors import (
    AlignmentError,
    BenchError,
    ConstraintNotFoundError,
    GenerationError,
    InconsistentInputError,
    KbError,
    NotContextualizedError,
    ParseError,
    SpaceTooLargeError,
    UnassignedVariableError,
    ValidationError,
)
from .merge import (
    CheckRecord,
    MergeReport,
    align,
    ckb_merge,
    contextualize,
    intersection_count,
    is_redundant,
)
from .model import (
    And,
    Assignment,
    Atom,
    AtomOp,
    Constraint,
    Formula,
    Implies,
    KnowledgeBase,
    Not,
    Or,
    Variable,
    evaluate,
    is_contextualized,
    negate,
    validate_kb,
)
from .solver import (
    CountResult,
    SolveStats,
    brute_force_solutions,
    count_solutions,
    enumerate_solutions,
    is_consistent,
)
from .synth import SynthConfig, synthesize_pair
from .textio import format_formula, parse_formula, parse_kb, serialize_kb

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "And",
    "Assignment",
    "Atom",
    "AtomOp",
    "BenchError",
    "BenchRow",
    "CheckRecord",
    "Constraint",
    "ConstraintNotFoundError",
    "CountResult",
    "Formula",
    "GenerationError",
    "Implies",
    "InconsistentInputError",
    "KbError",
    "KnowledgeBase",
    "MergeReport",
    "Not",
    "NotContextualizedError",
    "Or",
    "ParseError",
    "SolveStats",
    "SpaceTooLargeError",
    "SynthConfig",
    "UnassignedVariableError",
    "ValidationError",
    "Variable",
    "align",
    "brute_force_solutions",
    "ckb_merge",
    "contextualize",
    "count_solutions",
    "enumerate_solutions",
    "evaluate",
    "format_formula",
    "intersection_count",
    "is_consistent",
    "is_contextualized",
    "is_redundant",
    "negate",
    "parse_formula",
    "parse_kb",
    "run_benchmark",
    "serialize_kb",
    "synthesize_pair",
    "validate_kb",
    "write_bench_csv",
]
