"""Embedded finite-domain satisfiability engine.

Consistency, enumeration and counting run on one set of tables, built with
each :class:`_Instance`, and assign values with one propagation, in static
orders: variables in declaration order, values in domain order. Before the
first branch, each active constraint removes from the live domains the
literals ``x = v`` that refute it on their own, with no other variable
assigned (node consistency, Mackworth 1977). Formulas compile to
two-valued closures, which only ever see a complete scope; the literal
sets that force a formula true or false come from Kleene's strong
three-valued logic, one rule for every binary connective (``_KLEENE``),
and the same pass gives each formula its shape. A constraint is one of
three kinds:

- a cube, a conjunction of conditions on one variable each, which
  includes every constraint over one variable and the negation of a
  requires/excludes rule ``x = a -> y != b``: it is exactly its refuted
  literals, so the root settles it, and the search never sees it again;
- a clause, a disjunction of such conditions, as ``x = a -> y != b`` is:
  at any variable but its deepest, a literal that forces it true decides
  it with no evaluation, as Chaff (Moskewicz et al. 2001) stops visiting
  a satisfied clause, and one still undecided once its second-deepest
  variable is bound allows its deepest exactly the values that force it
  true there, a constant;
- any other constraint is decided by literals the same way, and is
  otherwise looked at in one place only, its second-deepest variable, as
  forward checking needs: there it filters its deepest variable down to
  the values it allows, trying each on a scope that is otherwise
  complete. The filter depends only on the values of the rest of its
  scope, so an instance memoises it for every check and count it answers.

A filter that allows no value empties that domain and fails the value. A
set of constraints is one int: the bits of the clauses and other
constraints over two or more variables, and above them the literals that
refute one of them on their own. Live domains are restored from an undo
trail.

Consistency and enumeration share one search, forward checking with
conflict-directed backjumping (FC-CBJ, Prosser 1993; no learning, no
restarts). Once every constraint is decided, the assignment prefix and the
live domains of the remaining variables form a cube of solutions.
Consistency stops at the first cube; enumeration expands cubes in domain
order until it holds as many solutions as asked, so its output stays
lexicographic. Counting splits the undecided constraints into components
that share no unassigned variable, multiplies their counts, and caches each
component's count for the rest of the call (dynamic decomposition, as in
the model counters sharpSAT and Cachet).

Both keep their frames on explicit stacks, so no number of variables meets
Python's recursion limit. Each inlines the same assignment step on purpose:
sharing it, as per-check closures or as a module-level function, made
``merge_n100`` and ``count_small`` 8-10% slower and won 0 of 76 timing
rounds. ``nodes_explored`` counts variable-value bindings
tried, with one meaning for all three: a value removed at the root or by a
filter is never tried, and a component counted from the cache costs none.

``brute_force_solutions`` is the independent oracle: it iterates the full
Cartesian product and filters with :func:`kbmerge.model.evaluate`,
sharing no search code with the engine.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import reduce
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
    not_a_formula,
    validate_formula,
    validate_variables,
)

BRUTE_FORCE_GUARD = 10**7

FrozenAssignment = frozenset[tuple[str, str]]

# Per binary connective (Kleene's strong three-valued logic): the value of
# the left operand that decides it, and the verdict that value gives.
_KLEENE = {And: (False, False), Or: (True, True), Implies: (False, True)}

# The shape of a compiled formula, a bit set: a cube is a conjunction of
# one-variable conditions, exactly the literals it does not refute; a clause
# is a disjunction of them, exactly the literals that force it true.
_CUBE, _CLAUSE = 1, 2
# ``not`` swaps the two
_NEGATED = (0, _CLAUSE, _CUBE, _CUBE | _CLAUSE)


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
    memo: Optional[dict[int, tuple[Callable, int, int, int, int]]] = None,
) -> tuple[Callable, int, int, int, int]:
    """Compile a formula into a closure over a positional assignment list.

    The closure returns the formula's truth value on an assignment that
    holds a value in every slot of its scope; the search calls it on no
    other. One closure serves every binary connective, with its constants
    from ``_KLEENE``. Returns the closure, the formula's scope as a bit set
    over the positions of ``index``, two sets of literals, numbered by
    ``offsets`` over the values ``domains`` holds per position (see
    :func:`_literal_offsets`): those that force the formula true and those
    that force it false (refute it) in Kleene's three-valued logic when
    their variable is the only one assigned, and the formula's shape, found
    in the same pass. An atom, and any formula over one variable, is both a
    cube (``_CUBE``) and a clause (``_CLAUSE``); ``not`` swaps the two; an
    ``and`` of cubes is a cube, an ``or`` of clauses a clause, ``a -> b`` a
    clause when ``a`` is a cube and ``b`` a clause; nothing else has a
    shape. A cube's refuted literals are exact: its solutions are every
    assignment that takes none of them. So are a clause's forced-true
    literals: it is false exactly where no variable takes one. ``memo``
    maps ``id(node)`` to all five, so a subformula shared by several
    formulas compiles once; the caller keeps every memoised node alive.

    An atom over an undeclared variable or a value outside its variable's
    domain raises :class:`ValidationError` with the message of
    :func:`kbmerge.model.validate_formula`, and so does a malformed node:
    one that is none of the five node types, or an atom whose ``op`` is not
    an :class:`AtomOp` (see :func:`kbmerge.model.not_a_formula`).
    """
    if memo is None:
        memo = {}
    key = id(f)
    done = memo.get(key)
    if done is not None:
        return done
    if isinstance(f, Atom):
        i = index.get(f.var) if isinstance(f.var, str) else None
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
        shape = _CUBE | _CLAUSE
        if f.op is AtomOp.EQ:
            true, false = bit, every ^ bit

            def ev(a, i=i, v=v):
                return a[i] == v
        elif f.op is AtomOp.NEQ:
            true, false = every ^ bit, bit

            def ev(a, i=i, v=v):
                return a[i] != v
        else:
            raise not_a_formula(f)
    elif isinstance(f, Not):
        child, mask, false, true, shape = _compile(f.child, index, domains, offsets, memo)
        shape = _NEGATED[shape]

        def ev(a, child=child):
            return not child(a)
    else:
        # the first connective in the MRO: validate_formula accepts a subclass
        kleene = next(filter(None, map(_KLEENE.get, type(f).__mro__)), None)
        if kleene is None:
            raise not_a_formula(f)
        stop, give = kleene
        left, left_mask, left_true, left_false, left_shape = _compile(
            f.left, index, domains, offsets, memo
        )
        right, right_mask, right_true, right_false, right_shape = _compile(
            f.right, index, domains, offsets, memo
        )
        mask = left_mask | right_mask
        if stop is not give:  # an implication is ``not left or right``:
            left_true, left_false = left_false, left_true
            left_shape = _NEGATED[left_shape]
        if give:
            true, false = left_true | right_true, left_false & right_false
            shape = left_shape & right_shape & _CLAUSE
        else:
            true, false = left_true & right_true, left_false | right_false
            shape = left_shape & right_shape & _CUBE
        if not mask & mask - 1:
            shape = _CUBE | _CLAUSE

        def ev(a, left=left, right=right, stop=stop, give=give):
            return give if left(a) is stop else right(a)
    memo[key] = done = (ev, mask, true, false, shape)
    return done


def _require_collections(variables: object, constraints: object) -> None:
    """Raise ValidationError unless both arguments are collections: a solver
    call handed one formula, or None, names it here."""
    if not (hasattr(variables, "__iter__") and hasattr(constraints, "__iter__")):
        kinds = f"{type(variables).__name__} and {type(constraints).__name__}"
        raise ValidationError(f"need collections of variables and of formulas, got {kinds}")


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
    a subset of its constraints handed as the OR of their ``masks``: the
    assumption-style incremental interface of MiniSat, without learning.
    Compiling validates each formula; a bad atom or a malformed node raises
    the :class:`ValidationError` of :func:`kbmerge.model.validate_formula`. A
    check on a shared instance explores exactly the nodes of a fresh
    instance built from its active constraints.

    A constraint is held in one of three ways, by its shape (see
    :func:`_compile`):

    - a cube, which includes any constraint over one variable, takes no
      bit: it is exactly the literals that refute it, which the root
      removes, so the negation of ``x = a -> y != b`` only fixes ``x`` and
      ``y`` before the first branch;
    - a clause over two or more variables filters its deepest variable with
      a constant, its forced-true literals there. No literal of its other
      variables forced it true if it is still undecided at its
      second-deepest, so those values are exactly what it allows;
    - any other constraint filters with its closure, evaluated on each
      value of its deepest variable and memoised per value of the rest of
      its scope.

    The tables are int bit sets over the ``m`` constraints that take a bit.
    Such a constraint's bit is its rank in a stable sort of them by scope;
    what it does to the search depends only on its scope and verdict, so a
    search that visits set bits from the low end does not depend on the
    constraint order. ``masks`` holds per constraint ``refuted << m``, ORed
    with its bit if it has one: above all ``m`` bits, the literals that
    refute it on their own (see :func:`_compile`), numbered by
    :func:`_literal_offsets`. ``true_by`` holds per literal the constraints
    that it forces true where its variable is not their deepest, and
    ``filters``, per depth, those that filter there, at their second-deepest
    variable: the one depth at which a constraint that no literal decided
    is looked at. ``records`` holds per bit the constraint's closure,
    scope, deepest variable, the rest of its scope, and its filter: the
    constant of a clause, else None, a getter of the values of the rest of
    its scope and the memo from those values to its filter (see
    :func:`_allowed`), so a filter met again, in any check or count, costs
    one dictionary lookup and no evaluation. A clause's memo stays empty.
    """

    def __init__(self, variables: Sequence[Variable], constraints: Sequence[Formula]):
        _require_collections(variables, constraints)
        self.names = list(validate_variables(variables))
        self.domains = domains = [v.domain for v in variables]
        index = {name: i for i, name in enumerate(self.names)}
        self.offsets = offsets = _literal_offsets(domains)
        memo: dict[int, tuple[Callable, int, int, int, int]] = {}
        compiled = [_compile(f, index, domains, offsets, memo) for f in constraints]
        # all values of each variable, as a bit set over its value indices
        self.full = full = [(1 << len(domain)) - 1 for domain in domains]
        # the literals of each variable, as a bit set over all literals
        own = [values << offset for values, offset in zip(full, offsets)]
        # a cube is its refuted literals, and no bit
        wide = [ci for ci, c in enumerate(compiled) if not c[4] & _CUBE]
        wide.sort(key=lambda ci: compiled[ci][1])
        self.masks = masks = [refuted << len(wide) for _, _, _, refuted, _ in compiled]
        self.true_by = true_by = [0] * offsets[-1]
        self.filters = filters = [0] * len(domains)
        self.records = records = []
        bit = 1
        for ci in wide:
            ev, mask, forced, _, shape = compiled[ci]
            masks[ci] |= bit
            scope = _depths(mask)
            deep = scope[-1]
            rest = mask ^ (1 << deep)
            if shape & _CLAUSE:
                constant = forced >> offsets[deep] & full[deep]
                records.append((ev, mask, deep, rest, constant, None, {}))
            else:
                records.append((ev, mask, deep, rest, None, itemgetter(*scope[:-1]), {}))
            true = forced & ~own[deep]
            while true:
                low = true & -true
                true_by[low.bit_length() - 1] |= bit
                true ^= low
            filters[scope[-2]] |= bit
            bit <<= 1

    def check(self, active: Optional[int] = None) -> tuple[bool, int, float]:
        """Consistency of the constraints whose ORed ``masks`` make
        ``active``, all of them by default, as plain values: the verdict,
        the nodes explored and the search time in milliseconds."""
        start = time.perf_counter()
        cubes, nodes = _search(self, active)
        return cubes > 0, nodes, (time.perf_counter() - start) * 1000.0


def _refute(live: list[int], offsets: Sequence[int], refuted: int) -> bool:
    """Node consistency: remove the ``refuted`` literals, which refute a
    constraint on their own, from the live domains, one variable at a time
    with one shift and one AND. Returns False at the first domain left
    empty, which proves that no solution exists."""
    for d, values in enumerate(live):
        cut = refuted >> offsets[d] & values
        if cut:
            if cut == values:
                return False
            live[d] = values ^ cut
    return True


def _allowed(
    ev: Callable, assignment: list[Optional[str]], deep: int, domain: Sequence[str]
) -> int:
    """A constraint's filter once every variable of its scope but the
    deepest, ``deep``, is assigned: the bits of the values of ``domain``
    that it allows ``deep``, found by evaluating it on each completed
    scope: no value when it is already false, every value when true."""
    ok = 0
    for k, value in enumerate(domain):
        assignment[deep] = value
        if ev(assignment):
            ok |= 1 << k
    assignment[deep] = None
    return ok


def _search(
    inst: _Instance,
    active: Optional[int] = None,
    on_cube: Optional[Callable[[list[Optional[str]], list[int], int], bool]] = None,
) -> tuple[int, int]:
    """Forward checking with conflict-directed backjumping (FC-CBJ, Prosser
    1993) over all solutions, with an explicit stack.

    ``active`` is an OR of the instance's ``masks``, all of them when
    omitted: its low ``m`` bits are the constraints and the rest the
    literals the root removes. Each level saves the undecided constraints on
    entry and restores them for each of its values. A value decides the
    constraints its literal forces true and filters with those whose
    second-deepest variable it binds: a clause with its constant, any other
    constraint with its memo, so no constraint is evaluated before its
    scope is complete but for its deepest variable, and no clause is
    evaluated at all. Besides its live domain, each variable has a reason
    set: the past variables whose filters narrowed it. A filter that
    empties a domain, also one that allows no value at all, fails the value
    with the past variables among that variable's reasons as the conflict.
    Bits are visited from the low end, so a search over an activated subset
    explores exactly the nodes of an instance built from that subset,
    whatever the order of either.

    Once no active constraint is undecided at depth ``d``, the assignment
    prefix and the live domains from ``d`` on form a cube of solutions. The
    search stops at the first cube when ``on_cube`` is omitted; otherwise it
    calls ``on_cube(assignment, live, d)`` and stops once that returns True.
    Returns the number of cubes met and the node count (values tried). A
    level whose subtree held a cube backtracks chronologically; any other
    exhausted level jumps to the deepest variable in its conflict set and
    the reasons of its own domain, which keeps backjumping sound when every
    solution is wanted (Chen & van Beek, JAIR 2001). An empty conflict set
    proves that no solution exists.
    """
    domains = inst.domains
    full = inst.full
    offsets = inst.offsets
    true_by, filters = inst.true_by, inst.filters
    records = inst.records
    n = len(domains)
    m = len(records)
    if active is None:
        active = reduce(or_, inst.masks, 0)
    undecided = active & ((1 << m) - 1)
    live = full[:]
    if not _refute(live, offsets, active >> m):
        return 0, 0
    assignment: list[Optional[str]] = [None] * n
    reasons = [0] * n
    trail: list[tuple[int, int, int]] = []  # (variable, live, reasons) to restore

    # per level: live values not yet tried, conflict set, cubes met on
    # entry, trail mark and undecided constraints on entry
    untried = [0] * n
    conflict = [0] * n
    entry = [0] * n
    trail_mark = [0] * n
    saved = [0] * n
    cubes = nodes = 0
    depth = 0
    fresh = True
    while True:
        if fresh:
            if not undecided:
                cubes += 1
                if on_cube is None or on_cube(assignment, live, depth) or depth == 0:
                    break
                depth -= 1
            else:
                untried[depth] = live[depth]
                conflict[depth] = 0
                entry[depth] = cubes
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
            # a constraint this literal forces true is decided with no
            # evaluation; one whose second-deepest variable this is filters
            # its deepest, the one slot of its scope left empty
            undecided = saved[depth] & ~true_by[offsets[depth] + j]
            failed = -1
            todo = undecided & filters[depth]
            undecided ^= todo
            while todo:
                low = todo & -todo
                todo ^= low
                ev, _, deep, prefix, ok, getter, memo = records[low.bit_length() - 1]
                if ok is None:
                    key = getter(assignment)
                    ok = memo.get(key)
                    if ok is None:
                        ok = memo[key] = _allowed(ev, assignment, deep, domains[deep])
                old = live[deep]
                new = old & ok
                if new != old:
                    trail.append((deep, old, reasons[deep]))
                    live[deep] = new
                    reasons[deep] |= prefix
                    if not new:
                        failed = reasons[deep] & ((1 << depth) - 1)
                        break
            if failed < 0:
                depth += 1
                fresh = True
            else:
                conflict[depth] |= failed
                fresh = False
            continue
        # every live value of this depth is tried
        assignment[depth] = None
        if cubes != entry[depth]:
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
    return cubes, nodes


def _components(
    cons: int, free: int, records: Sequence[tuple], live: Sequence[int]
) -> tuple[int, list[tuple[int, int, int]]]:
    """Split the constraints ``cons`` into components linked by shared
    variables of ``free``, reading each scope from its record in
    ``records``. Returns the product of the live domain sizes of the
    variables of ``free`` that no constraint of ``cons`` touches, and
    per component its constraints, its variables in ``free`` and its scope,
    all as bit sets."""
    parts = []
    while cons:
        members = cons & -cons
        scope = records[members.bit_length() - 1][1]
        own = scope & free
        grown = True
        while grown:
            grown = False
            rest = cons & ~members
            while rest:
                low = rest & -rest
                rest ^= low
                mask = records[low.bit_length() - 1][1]
                if mask & own:
                    members |= low
                    scope |= mask
                    own |= mask & free
                    grown = True
        cons &= ~members
        parts.append((members, own, scope))
    untouched = free & ~reduce(or_, [own for _, own, _ in parts], 0)
    return prod(live[d].bit_count() for d in _depths(untouched)), parts


def _count(inst: _Instance, cap: Optional[int]) -> tuple[int, int]:
    """Model counting by dynamic component decomposition (sharpSAT, Cachet)
    on the instance's ``true_by``, ``filters`` and ``records``, with an
    explicit stack.

    A product multiplies the counts of its components and the live domain
    size of each unassigned variable that no undecided constraint touches.
    A component sums, over the live values of its lowest-depth variable,
    the product of what remains once the value has propagated as in
    :func:`_search`; a value that fails counts zero. An assigned
    variable's live domain is its value, so a component's count is cached
    under its constraints and the live domains of their scope: the values
    they read and the domains of its variables, which a filter from outside
    it may have narrowed (Favier, de Givry & Jegou, CP 2009).

    With ``cap`` set, counting stops once a lower bound of the total
    exceeds it. A bound exists only along the last component of each
    product, once its siblings are counted, since any zero factor would
    cancel a partial sum. Returns the count (that bound when stopped
    early) and the number of values tried; cache hits cost none.
    """
    domains = inst.domains
    offsets = inst.offsets
    true_by, filters = inst.true_by, inst.filters
    records = inst.records
    live = inst.full[:]
    if not _refute(live, offsets, reduce(or_, inst.masks, 0) >> len(records)):
        return 0, 0
    assignment: list[Optional[str]] = [None] * len(domains)
    trail: list[tuple[int, int]] = []  # (variable, live) to restore
    cache: dict[tuple, int] = {}
    nodes = 0
    # The component being counted: its branch variable, values left, sum of
    # their counts, trail mark, cache key, constraints, unassigned variables
    # and the bound it extends: the total is at least ``base + mult`` times
    # its count (none when ``mult`` is 0; at the root, no component). Then
    # the product under its current value: running product and parts left.
    var = untried = sub = mark = key = cons = own = base = 0
    mult = int(cap is not None)
    total, parts = _components((1 << len(records)) - 1, (1 << len(domains)) - 1, records, live)
    stack: list[tuple] = []  # each enclosing component, with its product
    while True:
        if total and parts:
            members, part_own, scope = parts.pop()
            part_key = (members, *map(live.__getitem__, _depths(scope)))
            found = cache.get(part_key)
            if found is not None:
                total *= found
                continue
            stack.append((var, untried, sub, mark, key, cons, own, base, mult, parts, total))
            # a zero factor in a later component would cancel this one's
            # partial sum, so only the last component bounds the total
            base, mult = (0, 0) if parts else (base + mult * sub, mult * total)
            key, cons, own = part_key, members, part_own
            var = (own & -own).bit_length() - 1
            untried = live[var]
            sub = 0
            mark = len(trail)
        elif not stack:
            return total, nodes
        else:
            sub += total
            if mult and base + mult * sub > cap:
                return base + mult * sub, nodes
        # undo what the previous value of the component left behind
        if len(trail) > mark:
            for d, old in reversed(trail[mark:]):
                live[d] = old
            del trail[mark:]
        if not untried:
            cache[key] = count = sub
            assignment[var] = None
            var, untried, sub, mark, key, cons, own, base, mult, parts, total = stack.pop()
            total *= count
            continue
        low = untried & -untried
        untried ^= low
        nodes += 1
        j = low.bit_length() - 1
        assignment[var] = domains[var][j]
        trail.append((var, live[var]))
        live[var] = low
        # a value that fails counts zero
        total = 1
        # _search's step, inlined: a shared one cost 8-10% in both loops
        undecided = cons & ~true_by[offsets[var] + j]
        todo = undecided & filters[var]
        undecided ^= todo
        while todo:
            low = todo & -todo
            todo ^= low
            ev, _, deep, _, ok, getter, memo = records[low.bit_length() - 1]
            if ok is None:
                values = getter(assignment)
                ok = memo.get(values)
                if ok is None:
                    ok = memo[values] = _allowed(ev, assignment, deep, domains[deep])
            old = live[deep]
            new = old & ok
            if not new:
                total = 0
                break
            if new != old:
                trail.append((deep, old))
                live[deep] = new
        if total:
            total, parts = _components(undecided, own ^ (1 << var), records, live)


def is_consistent(
    variables: Sequence[Variable], constraints: Sequence[Formula]
) -> tuple[bool, SolveStats]:
    """True iff at least one total assignment satisfies all constraints."""
    ok, nodes, elapsed = _Instance(variables, constraints).check()
    return ok, SolveStats(nodes_explored=nodes, elapsed_ms=elapsed)


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
    if cap is not None and not isinstance(cap, int):
        raise ValidationError(f"cap must be an integer, got {cap!r}")
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
    if not isinstance(limit, int):
        raise ValidationError(f"limit must be an integer, got {limit!r}")
    inst = _Instance(variables, constraints)
    out: list[dict[str, str]] = []

    def expand(assignment: list[Optional[str]], live: list[int], depth: int) -> bool:
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
                return True
        return False

    if limit > 0:
        _search(inst, on_cube=expand)
    return out


def brute_force_solutions(
    variables: Sequence[Variable], constraints: Sequence[Formula]
) -> set[FrozenAssignment]:
    """Oracle enumeration over the full Cartesian product, no pruning.

    Intentionally shares no search code with the engine above; solutions
    are returned as hashable frozen item sets for set algebra in tests.
    """
    _require_collections(variables, constraints)
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
