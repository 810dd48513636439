"""Embedded finite-domain satisfiability engine.

Search is depth-first with static orders: variables in declaration order,
values in domain order. Branches are pruned as soon as some constraint
partial-evaluates to false under the current partial assignment.
Consistency checking additionally uses conflict-directed backjumping
(no learning, no restarts); counting and enumeration backtrack
chronologically so the counting shortcut and lexicographic enumeration
order stay simple.

``brute_force_solutions`` is the independent oracle: it iterates the full
Cartesian product and filters with :func:`kbmerge.model.evaluate`,
sharing no search code with the engine.
"""
from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import SpaceTooLargeError
from .model import (
    And,
    Assignment,
    Atom,
    AtomOp,
    Formula,
    Implies,
    Not,
    Or,
    Variable,
    evaluate,
    free_vars,
    validate_formula,
    validate_variables,
)

BRUTE_FORCE_GUARD = 10**7

FrozenAssignment = frozenset[tuple[str, str]]


class Tri(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolveStats:
    """Search bookkeeping for one solver call.

    ``consistency_result`` is the consistency verdict or the solution
    count; ``nodes_explored`` counts variable-value binding attempts and
    is deterministic for identical inputs.
    """

    nodes_explored: int
    consistency_result: bool | int
    elapsed_ms: float


@dataclass(frozen=True)
class CountResult:
    """Exact solution count, or the partial count when ``capped`` is set."""

    count: int
    capped: bool = False


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


def _compile(
    f: Formula,
    index: Mapping[str, int],
    memo: Optional[dict[int, Callable]] = None,
) -> Callable:
    """Compile a formula into a closure over a positional assignment list.

    The closure returns True/False/None with the same semantics as
    :func:`partial_eval`; tests assert the two routes agree. ``memo`` maps
    ``id(node)`` to its closure, so a subformula shared by several formulas
    compiles once; the caller keeps every memoised node alive.
    """
    if memo is None:
        memo = {}
    key = id(f)
    ev = memo.get(key)
    if ev is not None:
        return ev
    if isinstance(f, Atom):
        i = index[f.var]
        v = f.value
        if f.op is AtomOp.EQ:
            def ev(a, i=i, v=v):
                x = a[i]
                return None if x is None else x == v
        else:
            def ev(a, i=i, v=v):
                x = a[i]
                return None if x is None else x != v
    elif isinstance(f, Not):
        child = _compile(f.child, index, memo)

        def ev(a, child=child):
            r = child(a)
            return None if r is None else not r
    else:
        left = _compile(f.left, index, memo)
        right = _compile(f.right, index, memo)
        if isinstance(f, And):
            def ev(a, left=left, right=right):
                x = left(a)
                if x is False:
                    return False
                y = right(a)
                if y is False:
                    return False
                if x is True and y is True:
                    return True
                return None
        elif isinstance(f, Or):
            def ev(a, left=left, right=right):
                x = left(a)
                if x is True:
                    return True
                y = right(a)
                if y is True:
                    return True
                if x is False and y is False:
                    return False
                return None
        else:
            def ev(a, left=left, right=right):
                x = left(a)
                if x is False:
                    return True
                y = right(a)
                if y is True:
                    return True
                if x is True and y is False:
                    return False
                return None
    memo[key] = ev
    return ev


class _Instance:
    """Validated, compiled search instance.

    Built once, an instance can answer many consistency checks, each over
    a subset of its constraints (see :meth:`check`): the assumption-style
    incremental interface of MiniSat, without learning.
    """

    def __init__(self, variables: Sequence[Variable], constraints: Sequence[Formula]):
        table = validate_variables(variables)
        for f in constraints:
            validate_formula(f, table)
        self.names = [v.name for v in variables]
        self.domains = [v.domain for v in variables]
        index = {name: i for i, name in enumerate(self.names)}
        memo: dict[int, Callable] = {}
        self.compiled = [_compile(f, index, memo) for f in constraints]
        self.scopes = [tuple(sorted(index[name] for name in free_vars(f)))
                       for f in constraints]
        self.watchers = self.watch(range(len(constraints)))

    def watch(self, order: Iterable[int]) -> list[list[int]]:
        """Per variable, the constraints of ``order`` over it, in that order."""
        watchers: list[list[int]] = [[] for _ in self.domains]
        for ci in order:
            for depth in self.scopes[ci]:
                watchers[depth].append(ci)
        return watchers

    def tail_product(self, depth: int) -> int:
        return prod(len(d) for d in self.domains[depth:])

    def check(self, active: Optional[Sequence[int]] = None) -> tuple[bool, SolveStats]:
        """Consistency of the constraints indexed by ``active`` (all by default)."""
        start = time.perf_counter()
        ok, nodes = _search_consistent(self, active)
        elapsed = (time.perf_counter() - start) * 1000.0
        return ok, SolveStats(nodes_explored=nodes, consistency_result=ok, elapsed_ms=elapsed)


def _search_consistent(
    inst: _Instance, active: Optional[Sequence[int]] = None
) -> tuple[bool, int]:
    """First-solution search with conflict-directed backjumping.

    Only the constraints indexed by ``active`` take part (every constraint,
    in instance order, when omitted); their order is the order in which a
    variable's watchers are evaluated, so a check over an activated subset
    explores exactly the nodes of an instance built from that subset.
    Returns the verdict and the node count. On a domain wipeout the search
    jumps to the deepest variable implicated by the violated constraints;
    an empty conflict set proves unsatisfiability outright.
    """
    n = len(inst.domains)
    assignment: list[Optional[str]] = [None] * n
    if active is None:
        undecided = [True] * len(inst.compiled)
        watchers_at = inst.watchers
    else:
        undecided = [False] * len(inst.compiled)
        for ci in active:
            undecided[ci] = True
        watchers_at = inst.watch(active)
    pending = undecided.count(True)
    nodes = 0

    # Returns None when the subtree contains a solution, otherwise
    # (jump_depth, conflict_depths) with jump_depth < current depth.
    def search(depth: int):
        nonlocal nodes, pending
        if pending == 0 or depth == n:
            return None
        conflict: set[int] = set()
        domain = inst.domains[depth]
        watchers = watchers_at[depth]
        for value in domain:
            nodes += 1
            assignment[depth] = value
            newly: list[int] = []
            violated = -1
            for ci in watchers:
                if not undecided[ci]:
                    continue
                r = inst.compiled[ci](assignment)
                if r is False:
                    violated = ci
                    break
                if r is True:
                    undecided[ci] = False
                    newly.append(ci)
            if violated >= 0:
                conflict.update(d for d in inst.scopes[violated] if d < depth)
                for ci in newly:
                    undecided[ci] = True
                assignment[depth] = None
                continue
            pending -= len(newly)
            result = search(depth + 1)
            pending += len(newly)
            for ci in newly:
                undecided[ci] = True
            if result is None:
                return None
            assignment[depth] = None
            jump, jump_conflict = result
            if jump < depth:
                return result
            conflict.update(jump_conflict)
        if not conflict:
            return (-1, conflict)
        jump = max(conflict)
        conflict.discard(jump)
        return (jump, conflict)

    return search(0) is None, nodes


def _search_count(inst: _Instance, cap: Optional[int]) -> tuple[int, bool, int]:
    """Chronological counting search; returns (count, capped, nodes).

    When every constraint is decided true the remaining variables are free
    and their domain sizes are multiplied instead of enumerated.
    """
    n = len(inst.domains)
    assignment: list[Optional[str]] = [None] * n
    undecided = [True] * len(inst.compiled)
    pending = len(inst.compiled)
    nodes = 0
    count = 0
    capped = False

    def search(depth: int) -> bool:
        # Returns False when the cap was exceeded and the search must stop.
        nonlocal nodes, pending, count, capped
        if pending == 0:
            count += inst.tail_product(depth)
            if cap is not None and count > cap:
                capped = True
                return False
            return True
        for value in inst.domains[depth]:
            nodes += 1
            assignment[depth] = value
            newly: list[int] = []
            violated = False
            for ci in inst.watchers[depth]:
                if not undecided[ci]:
                    continue
                r = inst.compiled[ci](assignment)
                if r is False:
                    violated = True
                    break
                if r is True:
                    undecided[ci] = False
                    newly.append(ci)
            alive = True
            if not violated:
                pending -= len(newly)
                alive = search(depth + 1)
                pending += len(newly)
            for ci in newly:
                undecided[ci] = True
            assignment[depth] = None
            if not alive:
                return False
        return True

    search(0)
    return count, capped, nodes


def _search_enumerate(inst: _Instance, limit: int) -> tuple[list[dict[str, str]], int]:
    """Chronological enumeration in declaration/domain order."""
    n = len(inst.domains)
    assignment: list[Optional[str]] = [None] * n
    undecided = [True] * len(inst.compiled)
    nodes = 0
    out: list[dict[str, str]] = []

    def search(depth: int) -> None:
        nonlocal nodes
        if len(out) >= limit:
            return
        if depth == n:
            out.append(dict(zip(inst.names, assignment)))
            return
        for value in inst.domains[depth]:
            nodes += 1
            assignment[depth] = value
            newly: list[int] = []
            violated = False
            for ci in inst.watchers[depth]:
                if not undecided[ci]:
                    continue
                r = inst.compiled[ci](assignment)
                if r is False:
                    violated = True
                    break
                if r is True:
                    undecided[ci] = False
                    newly.append(ci)
            if not violated:
                search(depth + 1)
            for ci in newly:
                undecided[ci] = True
            assignment[depth] = None
            if len(out) >= limit:
                return

    if limit > 0:
        search(0)
    return out, nodes


def is_consistent(
    variables: Sequence[Variable], constraints: Sequence[Formula]
) -> tuple[bool, SolveStats]:
    """True iff at least one total assignment satisfies all constraints."""
    return _Instance(variables, constraints).check()


def count_solutions(
    variables: Sequence[Variable],
    constraints: Sequence[Formula],
    cap: Optional[int] = None,
) -> tuple[CountResult, SolveStats]:
    """Exact number of satisfying total assignments.

    With ``cap`` set, counting stops once the running total exceeds it and
    the partial count is returned with ``capped`` marked; exceeding the cap
    is an outcome, not an error.
    """
    inst = _Instance(variables, constraints)
    start = time.perf_counter()
    count, capped, nodes = _search_count(inst, cap)
    elapsed = (time.perf_counter() - start) * 1000.0
    result = CountResult(count=count, capped=capped)
    return result, SolveStats(nodes_explored=nodes, consistency_result=count, elapsed_ms=elapsed)


def enumerate_solutions(
    variables: Sequence[Variable],
    constraints: Sequence[Formula],
    limit: int,
) -> list[dict[str, str]]:
    """Up to ``limit`` satisfying assignments in lexicographic search order."""
    inst = _Instance(variables, constraints)
    out, _ = _search_enumerate(inst, limit)
    return out


def brute_force_solutions(
    variables: Sequence[Variable], constraints: Sequence[Formula]
) -> set[FrozenAssignment]:
    """Oracle enumeration over the full Cartesian product, no pruning.

    Intentionally shares no search code with the engine above; solutions
    are returned as hashable frozen item sets for set algebra in tests.
    """
    table = validate_variables(variables)
    for f in constraints:
        validate_formula(f, table)
    space = prod(len(v.domain) for v in variables)
    if space > BRUTE_FORCE_GUARD:
        raise SpaceTooLargeError(
            f"assignment space {space} exceeds the brute-force guard {BRUTE_FORCE_GUARD}"
        )
    names = [v.name for v in variables]
    out: set[FrozenAssignment] = set()
    for combo in itertools.product(*(v.domain for v in variables)):
        assignment = dict(zip(names, combo))
        if all(evaluate(f, assignment) for f in constraints):
            out.add(frozenset(assignment.items()))
    return out
