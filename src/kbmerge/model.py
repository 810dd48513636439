"""Core domain types: variables, formulas, constraints, knowledge bases.

All types are immutable after construction and safe to share between
threads. Structural operations (negation, evaluation, guard stripping)
live here; satisfiability queries live in :mod:`kbmerge.solver`.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    NotContextualizedError,
    UnassignedVariableError,
    ValidationError,
)

Assignment = Mapping[str, str]


class AtomOp(enum.Enum):
    EQ = "="
    NEQ = "!="


@dataclass(frozen=True)
class Variable:
    """An enumerated finite-domain variable. Domain order is significant."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.domain:
            raise ValidationError(f"variable '{self.name}' has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValidationError(f"variable '{self.name}' has duplicate domain values")


@dataclass(frozen=True)
class Atom:
    var: str
    op: AtomOp
    value: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or, Implies]


@dataclass(frozen=True)
class Constraint:
    """A named formula with source tracking.

    Whether a constraint is contextualized is not stored: it is a property
    of its formula under the owning knowledge base's context, decided by
    :func:`is_contextualized`.
    """

    id: str
    formula: Formula
    provenance: str = ""


@dataclass(frozen=True)
class KnowledgeBase:
    """A named variable grid plus an ordered constraint list.

    Constraint order is file order and is semantically relevant: the merge
    is deterministic only for a fixed order.
    """

    name: str
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...] = field(default_factory=tuple)
    context: Optional[tuple[str, str]] = None

    def variables_by_name(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    def formulas(self) -> list[Formula]:
        return [c.formula for c in self.constraints]


def negate(f: Formula) -> Formula:
    """Structural negation; no simplification is performed."""
    return Not(f)


def evaluate(f: Formula, assignment: Assignment) -> bool:
    """Two-valued evaluation under a total assignment.

    Raises UnassignedVariableError if any variable occurring in ``f`` is
    missing from ``assignment``; both operands of binary nodes are always
    visited so the check is exhaustive.
    """
    if isinstance(f, Atom):
        try:
            value = assignment[f.var]
        except KeyError:
            raise UnassignedVariableError(f.var) from None
        return value == f.value if f.op is AtomOp.EQ else value != f.value
    if isinstance(f, Not):
        return not evaluate(f.child, assignment)
    if isinstance(f, And):
        left = evaluate(f.left, assignment)
        right = evaluate(f.right, assignment)
        return left and right
    if isinstance(f, Or):
        left = evaluate(f.left, assignment)
        right = evaluate(f.right, assignment)
        return left or right
    if isinstance(f, Implies):
        left = evaluate(f.left, assignment)
        right = evaluate(f.right, assignment)
        return (not left) or right
    raise TypeError(f"not a formula node: {f!r}")


def is_contextualized(f: Formula, context: Optional[tuple[str, str]]) -> bool:
    """True iff ``f`` is ``Implies(Atom(ctx_var = ctx_val), body)`` for the
    context pair ``(ctx_var, ctx_val)``; never true without a context.

    This is the one definition of a contextualized constraint: parsing,
    printing and merging all decide it here.
    """
    return (
        context is not None
        and isinstance(f, Implies)
        and isinstance(f.left, Atom)
        and f.left.op is AtomOp.EQ
        and f.left.var == context[0]
        and f.left.value == context[1]
    )


def strip_context(c: Constraint, context: tuple[str, str]) -> Constraint:
    """Drop the guard of a constraint contextualized under ``context``.

    Returns a constraint with the same id and provenance whose formula is
    the guard's body.
    """
    if not is_contextualized(c.formula, context):
        raise NotContextualizedError(
            f"constraint '{c.id}' is not contextualized on "
            f"'{context[0]} = {context[1]}'"
        )
    return Constraint(c.id, c.formula.right, c.provenance)


def validate_variables(variables: Iterable[Variable]) -> dict[str, Variable]:
    """Check variable names are unique; return the name lookup table."""
    table: dict[str, Variable] = {}
    for v in variables:
        if v.name in table:
            raise ValidationError(f"variable '{v.name}' declared twice")
        table[v.name] = v
    return table


def validate_formula(f: Formula, table: Mapping[str, Variable], where: str = "") -> None:
    """Check every atom references a declared variable and in-domain value."""
    suffix = f" in {where}" if where else ""
    if isinstance(f, Atom):
        var = table.get(f.var)
        if var is None:
            raise ValidationError(f"undeclared variable '{f.var}'{suffix}")
        if f.value not in var.domain:
            raise ValidationError(
                f"value '{f.value}' is not in the domain of '{f.var}'{suffix}"
            )
        return
    if isinstance(f, Not):
        validate_formula(f.child, table, where)
        return
    validate_formula(f.left, table, where)
    validate_formula(f.right, table, where)


def validate_kb(kb: KnowledgeBase) -> None:
    """Enforce all knowledge-base invariants; raise ValidationError on breach."""
    table = validate_variables(kb.variables)
    if kb.context is not None:
        ctx_var, ctx_val = kb.context
        var = table.get(ctx_var)
        if var is None:
            raise ValidationError(
                f"bad context declaration: variable '{ctx_var}' is not declared"
            )
        if ctx_val not in var.domain:
            raise ValidationError(
                f"bad context declaration: value '{ctx_val}' is not in the domain of '{ctx_var}'"
            )
    seen_ids: set[str] = set()
    for c in kb.constraints:
        if c.id in seen_ids:
            raise ValidationError(f"duplicate constraint id '{c.id}'")
        seen_ids.add(c.id)
        validate_formula(c.formula, table, where=f"constraint '{c.id}'")
