"""Core domain types: variables, formulas, constraints, knowledge bases.

All types are immutable after construction and safe to share between
threads. Structural operations (negation, evaluation, validation) live
here; satisfiability queries live in :mod:`kbmerge.solver`.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Optional, Union

from .errors import UnassignedVariableError, ValidationError

Assignment = Mapping[str, str]


class AtomOp(enum.Enum):
    EQ = "="
    NEQ = "!="


@dataclass(frozen=True)
class Variable:
    """An enumerated finite-domain variable: a string name and a non-empty
    tuple of distinct string values. Domain order is significant."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not (
            isinstance(self.name, str)
            and isinstance(self.domain, tuple)
            and all(isinstance(value, str) for value in self.domain)
        ):
            raise ValidationError(
                f"variable {self.name!r} needs a string name and a tuple of string"
                f" values, got {self.domain!r}"
            )
        if not self.domain:
            raise ValidationError(f"variable '{self.name}' has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValidationError(f"variable '{self.name}' has duplicate domain values")


@dataclass(frozen=True)
class Atom:
    var: str
    op: AtomOp
    value: str


class _Connective:
    """The base of the connectives: ``==`` and ``hash`` go through
    :func:`_shape`, so they recurse at no depth and tell connectives apart,
    and ``repr`` gives a dataclass's text from an explicit stack."""

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is type(self) and _shape(self) == _shape(other))

    def __hash__(self) -> int:
        return hash(_shape(self))

    def __repr__(self) -> str:
        out, todo = [], [self]
        while todo:
            g = todo.pop()
            if isinstance(g, str):
                out.append(g)
                continue
            parts = [f"{type(g).__qualname__}("]
            for k, name in enumerate(x.name for x in fields(g) if x.repr):
                child = getattr(g, name)
                own = type(child).__repr__ is _Connective.__repr__
                parts += [f"{', ' if k else ''}{name}=", child if own else repr(child)]
            todo += reversed([*parts, ")"])
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Connective):
    child: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Connective):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Connective):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Implies(_Connective):
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or, Implies]


def _shape(f: Formula) -> tuple:
    """The nodes of ``f`` in preorder, a connective as its type and any other
    node, such as an atom, as itself: equal exactly when the formulas are,
    and built, hashed and compared with no recursion, however deep ``f`` is."""
    shape, todo = [], [f]
    while todo:
        g = todo.pop()
        connective = isinstance(g, _Connective)
        shape.append(type(g) if connective else g)
        if connective:
            todo += (g.child,) if isinstance(g, Not) else (g.right, g.left)
    return tuple(shape)


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
    is deterministic only for a fixed order. Building one runs
    :func:`validate_kb`, and its fields are immutable, so it is valid for as
    long as it exists and no later call checks it again.
    """

    name: str
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...] = field(default_factory=tuple)
    context: Optional[tuple[str, str]] = None

    def __post_init__(self):
        validate_kb(self)

    @classmethod
    def _derived(cls, name, variables, constraints, context) -> KnowledgeBase:
        """A KB built without validate_kb: its sources' validity implies its own."""
        kb = object.__new__(cls)
        vars(kb).update(name=name, variables=variables, constraints=constraints, context=context)
        return kb

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
    visited so the check is exhaustive. A malformed node raises the
    ValidationError of :func:`not_a_formula`, and an ``assignment`` that is
    no mapping a ValidationError naming it.
    """
    if not isinstance(assignment, Mapping):
        raise ValidationError(f"assignment must be a mapping, got {assignment!r}")
    return _evaluate(f, assignment)


def _evaluate(f: Formula, assignment: Assignment) -> bool:
    """:func:`evaluate` below its one check of the assignment."""
    if isinstance(f, Atom) and isinstance(f.op, AtomOp):
        try:
            value = assignment[f.var]
        except KeyError:
            raise UnassignedVariableError(f.var) from None
        return value == f.value if f.op is AtomOp.EQ else value != f.value
    if isinstance(f, Not):
        return not _evaluate(f.child, assignment)
    # bitwise on bools: both operands are evaluated, the left one first
    if isinstance(f, And):
        return _evaluate(f.left, assignment) & _evaluate(f.right, assignment)
    if isinstance(f, Or):
        return _evaluate(f.left, assignment) | _evaluate(f.right, assignment)
    if isinstance(f, Implies):
        return (not _evaluate(f.left, assignment)) | _evaluate(f.right, assignment)
    raise not_a_formula(f)


def not_a_formula(f: object) -> ValidationError:
    """The error for ``f``, which is not a formula node: none of the five
    node types, or an atom whose ``op`` is not an :class:`AtomOp`."""
    return ValidationError(f"not a formula node: {f!r}")


def require_kb(kb: object) -> None:
    """Raise ValidationError unless ``kb`` is a (so valid) :class:`KnowledgeBase`."""
    if not isinstance(kb, KnowledgeBase):
        raise ValidationError(f"not a knowledge base: {kb!r}")


def require_constraint(c: object) -> None:
    """Raise ValidationError unless ``c`` is a :class:`Constraint` with a
    string id and a string provenance."""
    if not isinstance(c, Constraint) or not isinstance(c.id, str):
        raise ValidationError(f"not a constraint with a string id: {c!r}")
    if not isinstance(c.provenance, str):
        raise ValidationError(f"constraint '{c.id}' has no string provenance: {c.provenance!r}")


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


def validate_variables(variables: Iterable[Variable]) -> dict[str, Variable]:
    """Check that every entry is a Variable and that names are unique;
    return the name lookup table."""
    table: dict[str, Variable] = {}
    for v in variables:
        if not isinstance(v, Variable):
            raise ValidationError(f"not a variable: {v!r}")
        if v.name in table:
            raise ValidationError(f"variable '{v.name}' declared twice")
        table[v.name] = v
    return table


def validate_formula(f: Formula, table: Mapping[str, Variable]) -> None:
    """Check that ``f`` is well formed and that every atom references a
    declared variable and a value of its domain."""
    if isinstance(f, Atom):
        var = table.get(f.var) if isinstance(f.var, str) else None
        if var is None:
            raise ValidationError(f"undeclared variable '{f.var}'")
        if f.value not in var.domain:
            raise ValidationError(f"value '{f.value}' is not in the domain of '{f.var}'")
        if not isinstance(f.op, AtomOp):
            raise not_a_formula(f)
    elif isinstance(f, Not):
        validate_formula(f.child, table)
    elif isinstance(f, (And, Or, Implies)):
        validate_formula(f.left, table)
        validate_formula(f.right, table)
    else:
        raise not_a_formula(f)


def validate_kb(kb: KnowledgeBase) -> None:
    """Enforce all knowledge-base invariants; raise ValidationError on breach.
    Building a KnowledgeBase runs it; its fields must be of immutable types."""
    require_kb(kb)
    typed = isinstance(kb.variables, tuple) and isinstance(kb.constraints, tuple)
    if not (typed and isinstance(kb.name, str)):
        raise ValidationError(
            f"knowledge base {kb.name!r} needs a string name and tuples of variables"
            " and constraints"
        )
    table = validate_variables(kb.variables)
    if kb.context is not None:
        if not (isinstance(kb.context, tuple) and len(kb.context) == 2):
            raise ValidationError(
                f"bad context declaration: {kb.context!r} is not a (variable, value) pair"
            )
        ctx_var, ctx_val = kb.context
        var = table.get(ctx_var) if isinstance(ctx_var, str) else None
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
        require_constraint(c)
        if c.id in seen_ids:
            raise ValidationError(f"duplicate constraint id '{c.id}'")
        seen_ids.add(c.id)
        try:
            validate_formula(c.formula, table)
        except ValidationError as err:
            raise ValidationError(f"{err} in constraint '{c.id}'") from None
