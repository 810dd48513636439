"""Reference Kleene evaluator for the solver tests.

A plain recursive three-valued evaluation under a partial assignment. The
solver's compiled closures are two-valued, but the literal sets it derives
from each formula (those that force it true or false with no other
variable assigned) follow Kleene's logic, and the tests check those sets
against this evaluator. ``free_vars`` gives the variables of a formula,
which the tests use to enumerate the completions of a partial assignment.
"""
import enum

from kbmerge import And, Assignment, Atom, AtomOp, Formula, Implies, Not, Or


class Tri(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def partial_eval(f: Formula, assignment: Assignment) -> Tri:
    """Three-valued Kleene evaluation under a partial assignment.

    Returns TRUE or FALSE only when every completion of ``assignment``
    forces that value; UNKNOWN otherwise.
    """
    if isinstance(f, Atom):
        value = assignment.get(f.var)
        if value is None:
            return Tri.UNKNOWN
        hit = value == f.value if f.op is AtomOp.EQ else value != f.value
        return Tri.TRUE if hit else Tri.FALSE
    if isinstance(f, Not):
        inner = partial_eval(f.child, assignment)
        if inner is Tri.UNKNOWN:
            return Tri.UNKNOWN
        return Tri.FALSE if inner is Tri.TRUE else Tri.TRUE
    if isinstance(f, And):
        left = partial_eval(f.left, assignment)
        right = partial_eval(f.right, assignment)
        if left is Tri.FALSE or right is Tri.FALSE:
            return Tri.FALSE
        if left is Tri.TRUE and right is Tri.TRUE:
            return Tri.TRUE
        return Tri.UNKNOWN
    if isinstance(f, Or):
        left = partial_eval(f.left, assignment)
        right = partial_eval(f.right, assignment)
        if left is Tri.TRUE or right is Tri.TRUE:
            return Tri.TRUE
        if left is Tri.FALSE and right is Tri.FALSE:
            return Tri.FALSE
        return Tri.UNKNOWN
    if isinstance(f, Implies):
        left = partial_eval(f.left, assignment)
        right = partial_eval(f.right, assignment)
        if left is Tri.FALSE or right is Tri.TRUE:
            return Tri.TRUE
        if left is Tri.TRUE and right is Tri.FALSE:
            return Tri.FALSE
        return Tri.UNKNOWN
    raise TypeError(f"not a formula node: {f!r}")


def free_vars(f: Formula) -> set[str]:
    """Names of all variables occurring in atoms of ``f``."""
    if isinstance(f, Atom):
        return {f.var}
    if isinstance(f, Not):
        return free_vars(f.child)
    out = free_vars(f.left)
    out |= free_vars(f.right)
    return out
