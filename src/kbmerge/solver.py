"""Embedded finite-domain satisfiability engine.

Both searches are depth-first with static orders: variables in
declaration order, values in domain order. Branches are pruned as soon as
some constraint partial-evaluates to false under the current partial
assignment, and a constraint that evaluates to true is decided.

Consistency and enumeration share one search, forward checking with
conflict-directed backjumping (FC-CBJ, Prosser 1993; no learning, no
restarts), which keeps its levels on an explicit stack. Each variable has
a live domain. Before the first branch, each active constraint removes the
values that refute it on their own, the literals ``x = v`` under which it
evaluates false with no other variable assigned (node consistency,
Mackworth 1977): the negation of ``x = a -> y != b`` fixes both ``x`` and
``y`` at the root. So at its shallowest variable a constraint is never
false: the literal assigned there decides it, with no evaluation, when it
forces the constraint true. The undecided constraints of a check are one
int bit set. Once a constraint's second-deepest variable is assigned and
the constraint is still undecided, it filters its deepest variable down to
the values it allows and counts as decided; a domain that loses every
value fails the assignment that emptied it. A constraint's
verdict and filter there depend only on the values of the rest of its
scope, so an instance memoises both for all the checks it answers. Once
every constraint is decided, the assignment prefix and the live domains of
the remaining variables form a cube of solutions. Consistency stops at the
first cube; enumeration expands cubes in domain order, so its output stays
lexicographic.

Counting splits the undecided constraints into components that share no
unassigned variable, multiplies their counts, and caches each component's
count for the rest of the call (dynamic decomposition, as in the model
counters sharpSAT and Cachet). A variable that no undecided constraint
touches contributes its domain size without being branched on.

``nodes_explored`` counts variable-value bindings tried; a value removed
at the root or by a filter is never tried, and for counting, a component
answered from the cache costs none.

``brute_force_solutions`` is the independent oracle: it iterates the full
Cartesian product and filters with :func:`kbmerge.model.evaluate`,
sharing no search code with the engine.
"""
from __future__ import annotations

import itertools
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from operator import itemgetter, or_
from typing import Callable, Mapping, Optional, Sequence

from .errors import SpaceTooLargeError, ValidationError
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
    validate_formula,
    validate_variables,
)

BRUTE_FORCE_GUARD = 10**7

FrozenAssignment = frozenset[tuple[str, str]]


@dataclass(frozen=True)
class SolveStats:
    """Search bookkeeping for one solver call.

    ``nodes_explored`` counts variable-value binding attempts and is
    deterministic for identical inputs. When counting, a component whose
    count comes from the cache costs no attempt.
    """

    nodes_explored: int
    elapsed_ms: float


@dataclass(frozen=True)
class CountResult:
    """Solution count; with ``capped`` set, a lower bound above the cap."""

    count: int
    capped: bool = False


def _literal_offsets(domains: Sequence[Sequence[str]]) -> list[int]:
    """Number the literals ``x = v`` of an instance, variable by variable.

    The literal of the ``j``-th value of variable ``i`` is bit
    ``offsets[i] + j`` of a literal set; the last offset is the number of
    literals.
    """
    return list(itertools.accumulate(map(len, domains), initial=0))


def _compile(
    f: Formula,
    index: Mapping[str, int],
    domains: Sequence[Sequence[str]],
    offsets: Sequence[int],
    memo: Optional[dict[int, tuple[Callable, int, int, int]]] = None,
) -> tuple[Callable, int, int, int]:
    """Compile a formula into a closure over a positional assignment list.

    The closure returns True or False when every completion of the
    partial assignment (None marks an unassigned slot) forces that value,
    and None otherwise: three-valued Kleene evaluation, which tests check
    against a reference evaluator and the brute-force oracle. Returns the
    closure, the formula's scope as a bit set over the positions of
    ``index``, and two sets of literals, numbered by ``offsets`` over the
    values ``domains`` holds per position (see :func:`_literal_offsets`):
    those that force the formula true and those that force it false
    (refute it) when their variable is the only one assigned. ``memo``
    maps ``id(node)`` to all four, so a subformula shared by several
    formulas compiles once; the caller keeps every memoised node alive.

    An atom over an undeclared variable or a value outside its variable's
    domain raises :class:`ValidationError` with the message of
    :func:`kbmerge.model.validate_formula`.
    """
    if memo is None:
        memo = {}
    key = id(f)
    done = memo.get(key)
    if done is not None:
        return done
    if isinstance(f, Atom):
        i = index.get(f.var)
        if i is None:
            raise ValidationError(f"undeclared variable '{f.var}'")
        v = f.value
        try:
            j = domains[i].index(v)
        except ValueError:
            raise ValidationError(
                f"value '{v}' is not in the domain of '{f.var}'"
            ) from None
        low = 1 << offsets[i]
        bit = low << j
        every = (1 << offsets[i + 1]) - low
        mask = 1 << i
        if f.op is AtomOp.EQ:
            true, false = bit, every ^ bit

            def ev(a, i=i, v=v):
                x = a[i]
                return None if x is None else x == v
        else:
            true, false = every ^ bit, bit

            def ev(a, i=i, v=v):
                x = a[i]
                return None if x is None else x != v
    elif isinstance(f, Not):
        child, mask, false, true = _compile(f.child, index, domains, offsets, memo)

        def ev(a, child=child):
            r = child(a)
            return None if r is None else not r
    else:
        left, left_mask, left_true, left_false = _compile(
            f.left, index, domains, offsets, memo
        )
        right, right_mask, right_true, right_false = _compile(
            f.right, index, domains, offsets, memo
        )
        mask = left_mask | right_mask
        if isinstance(f, And):
            true, false = left_true & right_true, left_false | right_false

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
            true, false = left_true | right_true, left_false & right_false

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
            true, false = left_false | right_true, left_true & right_false

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
    memo[key] = done = (ev, mask, true, false)
    return done


def _depths(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _Instance:
    """Validated, compiled search instance.

    Built once, an instance can answer many consistency checks, each over
    a subset of its constraints (see :meth:`check`): the assumption-style
    incremental interface of MiniSat, without learning. Compiling validates
    each formula; a bad atom raises the :class:`ValidationError` of
    :func:`kbmerge.model.validate_formula`. Each constraint keeps the
    literals that force it true and those that refute it (see
    :func:`_compile`), each as one bit set over all the literals of the
    instance, numbered by :func:`_literal_offsets`.

    The search keeps sets of constraints as int bit sets (see
    :attr:`watch`). It decides a constraint at its shallowest variable by
    the literal assigned there, evaluates it at the variables between that
    one and its second-deepest, and there, if the constraint is still
    undecided, filters its deepest variable. A filter is a pure function of
    the values of the rest of the scope, so each constraint's filter record
    memoises its verdict and filter: a filter met again, in the same check
    or in a later one, costs one dictionary lookup and no evaluation. A
    check on a shared instance explores exactly the nodes of a fresh
    instance built from its active constraints.
    """

    def __init__(self, variables: Sequence[Variable], constraints: Sequence[Formula]):
        self.names = [v.name for v in variables]
        self.domains = [v.domain for v in variables]
        index = {name: i for i, name in enumerate(self.names)}
        if len(index) < len(self.names):
            validate_variables(variables)  # raises: a name is declared twice
        self.offsets = offsets = _literal_offsets(self.domains)
        memo: dict[int, tuple[Callable, int, int, int]] = {}
        compiled = [
            _compile(f, index, self.domains, offsets, memo) for f in constraints
        ]
        self.compiled = [ev for ev, _, _, _ in compiled]
        # scope of each constraint as a bit set over variable depths
        self.masks = [mask for _, mask, _, _ in compiled]
        self.scopes = [_depths(mask) for mask in self.masks]
        # the literals that force each constraint true, and those that
        # refute it, on their own
        self.forced = [true for _, _, true, _ in compiled]
        self.refuted = [false for _, _, _, false in compiled]
        # all values of each variable, as a bit set over its value indices
        self.full = [(1 << len(domain)) - 1 for domain in self.domains]

    @cached_property
    def watch(
        self,
    ) -> tuple[list[int], int, list[int], list[int], list[int], list[tuple]]:
        """Which constraints the search decides, evaluates and filters with
        where, as int bit sets over constraints.

        A constraint's bit is its rank in a stable sort of the constraints
        by scope. What a constraint does to the search depends only on its
        scope and its verdict, so a search that visits set bits from the
        low end does not depend on the order of the constraints.

        Returns:

        - the bit of each constraint;
        - the constraints over one variable, which their refuted literals
          settle before the search;
        - per literal, the constraints of two or more variables whose
          shallowest variable is the literal's and which it forces true;
        - per depth, the constraints of four or more variables evaluated
          there, strictly between their shallowest and second-deepest
          variables;
        - per depth, the constraints whose second-deepest variable it is,
          which filter there;
        - per bit, the constraint's record: its closure, its scope, its
          deepest variable, a getter of the values of the rest of the
          scope, that rest as a bit set, and the memo from those values to
          the constraint's verdict and filter: -1 when it is false, else
          the bits of the values it allows the deepest variable (all of
          them when it is true).

        Built on the first search; counting does not need it.
        """
        masks = self.masks
        scopes = self.scopes
        compiled = self.compiled
        forced = self.forced
        # the literals of each variable, as a bit set over all literals
        own = [full << offset for full, offset in zip(self.full, self.offsets)]
        bits = [0] * len(masks)
        unary = 0
        first_true = [0] * self.offsets[-1]
        middle = [0] * len(own)
        filters = [0] * len(own)
        records = []
        bit = 1
        for ci in sorted(range(len(masks)), key=masks.__getitem__):
            bits[ci] = bit
            scope = scopes[ci]
            mask = masks[ci]
            deep = scope[-1]
            if len(scope) == 1:
                unary |= bit
                records.append((compiled[ci], mask, deep, None, 0, {}))
            else:
                getter = itemgetter(*scope[:-1])
                records.append((compiled[ci], mask, deep, getter, mask ^ (1 << deep), {}))
                true = forced[ci] & own[scope[0]]
                while true:
                    low = true & -true
                    first_true[low.bit_length() - 1] |= bit
                    true ^= low
                if len(scope) > 3:
                    for depth in scope[1:-2]:
                        middle[depth] |= bit
                filters[scope[-2]] |= bit
            bit <<= 1
        return bits, unary, first_true, middle, filters, records

    def check(self, active: Optional[Sequence[int]] = None) -> tuple[bool, SolveStats]:
        """Consistency of the active constraints (all by default): a list of
        their indices, or as a tuple the ready pair ``(undecided, refuted)``
        of their ORed bits (see :attr:`watch`) and refuted-literal sets."""
        start = time.perf_counter()
        if active is not None and not isinstance(active, tuple):
            bits, refuted = self.watch[0], self.refuted
            active = (
                reduce(or_, [bits[ci] for ci in active], 0),
                reduce(or_, [refuted[ci] for ci in active], 0),
            )
        count, nodes = _search(self, 0, active)
        elapsed = (time.perf_counter() - start) * 1000.0
        return count > 0, SolveStats(nodes_explored=nodes, elapsed_ms=elapsed)


def _search(
    inst: _Instance,
    cap: int,
    active: Optional[tuple[int, int]] = None,
    on_cube: Optional[Callable[[list[Optional[str]], list[int], int], None]] = None,
) -> tuple[int, int]:
    """Forward checking with conflict-directed backjumping (FC-CBJ, Prosser
    1993), over all solutions, with an explicit stack.

    ``active`` is the check's pair ``(undecided, refuted)`` (see
    :meth:`_Instance.check`), every constraint when omitted. The undecided
    constraints are one bit set, which each level saves on entry and
    restores for each of its values. Each variable has a live domain, a bit
    set over its value indices, and a reason set, the past variables whose
    filters narrowed it; both are restored from an undo trail. The live
    domains start without the ``refuted`` literals, which settles every
    constraint over one variable; an emptied domain proves that no solution
    exists, with no node tried. This depends only on the active set.

    Assigning a value decides, with no evaluation, each constraint whose
    shallowest variable this is and which the literal forces true: with
    no other scope variable assigned and its refuting literals gone, the
    constraint is true exactly then and never false. Then each undecided
    constraint with this depth strictly between its shallowest and
    second-deepest variables is evaluated: one that turns false fails the
    value, one that turns true is decided. Last, each undecided
    constraint whose second-deepest variable this is looks up its verdict
    and filter in its record's memo (evaluating it on a miss) and is
    decided: a false one fails the value; otherwise it filters its deepest
    variable down to the values it allows, and a filter that leaves no
    value fails the value with that variable's reasons as the conflict.
    A false constraint fails the value even after another filter of the
    same depth emptied a domain, and bits are visited from the low end, so
    a search over an activated subset explores exactly the nodes of an
    instance built from that subset, whatever the order of either.

    Once no active constraint is undecided at depth ``d``, the assignment
    prefix and the live domains from ``d`` on form a cube of solutions: the
    count grows by its size and ``on_cube(assignment, live, d)`` is called
    when given. The search stops as soon as the count exceeds ``cap``.
    Returns the count and the node count (values tried).

    A level whose subtree held a solution backtracks chronologically; any
    other exhausted level jumps to the deepest variable in its conflict
    set and the reasons of its own domain, which keeps backjumping sound
    when every solution is wanted (Chen & van Beek, JAIR 2001). An empty
    conflict set proves that no solution exists.
    """
    domains = inst.domains
    full = inst.full
    offsets = inst.offsets
    bits, unary, first_true, middle, filters, records = inst.watch
    n = len(domains)
    if active is None:
        active = (1 << len(bits)) - 1, reduce(or_, inst.refuted, 0)
    undecided, refuted = active
    live = full[:]
    # node consistency: no solution holds a literal that refutes an active
    # constraint on its own
    while refuted:
        d = bisect_right(offsets, (refuted & -refuted).bit_length() - 1) - 1
        cut = (refuted >> offsets[d]) & live[d]
        refuted ^= cut << offsets[d]
        live[d] ^= cut
        if not live[d]:
            return 0, 0
    # so a constraint over one variable allows exactly the values left
    undecided &= ~unary
    assignment: list[Optional[str]] = [None] * n
    reasons = [0] * n
    trail: list[tuple[int, int, int]] = []  # (variable, live, reasons) to restore

    # per level: live values not yet tried, conflict set, count on entry,
    # the trail length to undo each of its values to and the undecided
    # constraints on entry
    untried = [0] * n
    conflict = [0] * n
    entry = [0] * n
    trail_mark = [0] * n
    saved = [0] * n
    count = nodes = 0
    depth = 0
    fresh = True
    while True:
        if fresh:
            if not undecided:
                size = 1
                for d in range(depth, n):
                    size *= live[d].bit_count()
                count += size
                if on_cube is not None:
                    on_cube(assignment, live, depth)
                if count > cap or depth == 0:
                    break
                depth -= 1
            else:
                untried[depth] = live[depth]
                conflict[depth] = 0
                entry[depth] = count
                trail_mark[depth] = len(trail)
                saved[depth] = undecided
        # undo what the previous value at this depth left behind
        mark = trail_mark[depth]
        if len(trail) > mark:
            for d, d_live, d_reasons in reversed(trail[mark:]):
                live[d] = d_live
                reasons[d] = d_reasons
            del trail[mark:]
        rest = untried[depth]
        if rest:
            low = rest & -rest
            untried[depth] = rest ^ low
            nodes += 1
            j = low.bit_length() - 1
            assignment[depth] = domains[depth][j]
            # root refutation left no literal that makes a constraint false
            # at its shallowest variable, so there it is true or undecided
            undecided = saved[depth] & ~first_true[offsets[depth] + j]
            failed = -1
            todo = undecided & middle[depth]
            while todo:
                low = todo & -todo
                todo ^= low
                ev, mask, _, _, _, _ = records[low.bit_length() - 1]
                r = ev(assignment)
                if r is None:
                    continue
                if not r:
                    failed = mask & ((1 << depth) - 1)
                    break
                undecided ^= low
            todo = undecided & filters[depth] if failed < 0 else 0
            if todo:
                undecided ^= todo
                # a false constraint fails the value before any wipe-out
                # does, so after a wipe-out the rest are only looked up
                wiped = -1
                while todo:
                    low = todo & -todo
                    todo ^= low
                    ev, mask, deep, getter, prefix, memo = records[low.bit_length() - 1]
                    key = getter(assignment)
                    ok = memo.get(key)
                    if ok is None:
                        r = ev(assignment)
                        if r is None:
                            # the bits of the values it allows the deepest variable
                            ok = 0
                            for k, value in enumerate(domains[deep]):
                                assignment[deep] = value
                                if ev(assignment):
                                    ok |= 1 << k
                            assignment[deep] = None
                        else:
                            ok = full[deep] if r else -1
                        memo[key] = ok
                    if ok < 0:
                        failed = mask & ((1 << depth) - 1)
                        break
                    if wiped < 0:
                        old = live[deep]
                        new = old & ok
                        if new != old:
                            trail.append((deep, old, reasons[deep]))
                            live[deep] = new
                            reasons[deep] |= prefix
                            if not new:
                                wiped = reasons[deep] & ((1 << depth) - 1)
                else:
                    failed = wiped
            if failed < 0:
                depth += 1
                fresh = True
            else:
                conflict[depth] |= failed
                fresh = False
            continue
        # every live value of this depth is tried
        assignment[depth] = None
        if count != entry[depth]:
            back = depth - 1
            carried = 0
        else:
            why = conflict[depth] | reasons[depth]
            if not why:
                break
            back = why.bit_length() - 1
            carried = why ^ (1 << back)
        if back < 0:
            break
        for d in range(back + 1, depth):
            assignment[d] = None
        depth = back
        conflict[depth] |= carried
        fresh = False
    return count, nodes


class _Capped(Exception):
    """Unwinds a count; its one argument is a lower bound above the cap."""


def _count(inst: _Instance, cap: Optional[int]) -> tuple[int, int]:
    """Model counting by dynamic component decomposition (sharpSAT, Cachet).

    Under the current partial assignment the undecided constraints fall
    into components linked by shared unassigned variables. A node's count
    is the product of its components' counts times the domain size of
    every unassigned variable that no undecided constraint touches; a
    component's count is the sum, over the values of its lowest-depth
    variable, of the counts of what remains after propagation. Component
    counts are cached for the duration of the call, keyed by the
    component's constraints, its unassigned variables and the values of
    the assigned variables in its constraints' scopes: the residual
    problem depends on nothing else.

    With ``cap`` set, counting stops once a lower bound of the total
    exceeds it. A bound exists only along the last component of each
    product, once its siblings are counted, since any zero factor would
    cancel a partial sum. Returns the count (that bound when stopped
    early) and the number of binding attempts; cache hits cost none.
    """
    domains = inst.domains
    compiled = inst.compiled
    masks = inst.masks
    # per variable, the constraints over it in instance order
    watchers: list[list[int]] = [[] for _ in domains]
    for ci, scope in enumerate(inst.scopes):
        for depth in scope:
            watchers[depth].append(ci)
    sizes = [len(domain) for domain in domains]
    assignment: list[Optional[str]] = [None] * len(domains)
    undecided = [True] * len(compiled)
    cache: dict[tuple[int, int, tuple[Optional[str], ...]], int] = {}
    nodes = 0

    # The count of the residual problem over ``cons`` (undecided constraints)
    # and ``free`` (unassigned variables). The final total is at least
    # ``base`` plus ``mult`` times this count.
    def count(cons: list[int], free: int, base: int, mult: int) -> int:
        nonlocal nodes
        parts: list[list] = []  # per component: [vars, constraint bits, scope, constraints]
        for ci in cons:
            scope = masks[ci]
            live = scope & free
            part = [live, 1 << ci, scope, [ci]]
            rest = []
            for other in parts:
                if other[0] & live:
                    part[0] |= other[0]
                    part[1] |= other[1]
                    part[2] |= other[2]
                    part[3] += other[3]
                else:
                    rest.append(other)
            rest.append(part)
            parts = rest
        total = 1
        untouched = free
        for part in parts:
            untouched &= ~part[0]
        for depth in _depths(untouched):
            total *= sizes[depth]
        last = len(parts) - 1
        for k, (own, bits, scope, members) in enumerate(parts):
            # a zero factor in a later component would cancel this one's
            # partial sum, so only the last component bounds the total
            part_base, part_mult = (base, mult * total) if k == last else (0, 0)
            key = (bits, own, tuple(assignment[d] for d in _depths(scope & ~own)))
            sub = cache.get(key)
            if sub is None:
                low = own & -own
                depth = low.bit_length() - 1
                own ^= low
                sub = 0
                for value in domains[depth]:
                    nodes += 1
                    assignment[depth] = value
                    newly: list[int] = []
                    for ci in watchers[depth]:
                        if not undecided[ci]:
                            continue
                        r = compiled[ci](assignment)
                        if r is False:
                            break
                        if r is True:
                            undecided[ci] = False
                            newly.append(ci)
                    else:
                        rest = [ci for ci in members if undecided[ci]]
                        sub += count(rest, own, part_base + part_mult * sub, part_mult)
                    for ci in newly:
                        undecided[ci] = True
                    if part_mult and part_base + part_mult * sub > cap:
                        raise _Capped(part_base + part_mult * sub)
                assignment[depth] = None
                cache[key] = sub
            total *= sub
            if not total:
                return 0
        return total

    everything = (1 << len(domains)) - 1
    try:
        total = count(list(range(len(compiled))), everything, 0, int(cap is not None))
    except _Capped as stop:
        (total,) = stop.args
    # ``count`` refers to itself; without this the cache and the instance
    # would wait for the cycle collector
    del count
    return total, nodes


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

    With ``cap`` set, ``capped`` is marked exactly when the number of
    solutions exceeds ``cap``. Counting may then stop early, and ``count``
    is only known to lie above ``cap`` and at or below the true number.
    Exceeding the cap is an outcome, not an error.
    """
    inst = _Instance(variables, constraints)
    start = time.perf_counter()
    count, nodes = _count(inst, cap)
    elapsed = (time.perf_counter() - start) * 1000.0
    result = CountResult(count=count, capped=cap is not None and count > cap)
    return result, SolveStats(nodes_explored=nodes, elapsed_ms=elapsed)


def enumerate_solutions(
    variables: Sequence[Variable],
    constraints: Sequence[Formula],
    limit: int,
) -> list[dict[str, str]]:
    """Up to ``limit`` satisfying assignments in lexicographic search order."""
    inst = _Instance(variables, constraints)
    out: list[dict[str, str]] = []

    def expand(assignment: list[Optional[str]], live: list[int], depth: int) -> None:
        prefix = assignment[:depth]
        completions = itertools.product(
            *(
                [value for j, value in enumerate(inst.domains[d]) if live[d] >> j & 1]
                for d in range(depth, len(live))
            )
        )
        # ``limit`` may exceed what ``itertools.islice`` accepts
        for tail in completions:
            out.append(dict(zip(inst.names, prefix + list(tail))))
            if len(out) == limit:
                return

    if limit > 0:
        _search(inst, limit - 1, on_cube=expand)
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
