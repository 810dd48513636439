"""Consistency-based merging of contextualized knowledge bases.

The pipeline: each source KB is contextualized (every constraint guarded
by its context atom), the variable sets are aligned, and the merge proves
each source consistent and runs its two phases. Phase 1 tries to drop
each guard: if the other source entails the bare constraint, the guard
is not needed and the constraint is added decontextualized, otherwise
the guarded form is kept. Phase 2 removes constraints that the rest of
the merged KB already implies. Both phases preserve the union of the two
source solution spaces.
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import NamedTuple, Optional

from .errors import (
    AlignmentError,
    ConstraintNotFoundError,
    InconsistentInputError,
    NotContextualizedError,
    ValidationError,
)
from .model import (
    Atom,
    AtomOp,
    Constraint,
    Formula,
    Implies,
    KnowledgeBase,
    Variable,
    is_contextualized,
    negate,
    require_constraint,
    require_kb,
)
from .solver import _Instance, count_solutions, is_consistent


class CheckRecord(NamedTuple):
    """One consistency check of a merge.

    ``phase`` is ``"input"`` for the two input-consistency checks, whose
    ``constraint_id`` is None, and ``"1"`` or ``"2"`` for a check of the
    input or merged constraint ``constraint_id``. ``consistent`` is the
    verdict, ``nodes`` and ``search_ms`` the search cost, summed over a split
    phase-2 check's two pools: 0 and 0.0 only for a check whose every pool
    an equal constraint settles with no search (see ckb_merge).
    """

    phase: str
    constraint_id: Optional[str]
    consistent: bool
    nodes: int
    search_ms: float


@dataclass(frozen=True)
class MergeReport:
    """Accounting for one merge run.

    ``decontextualized_ids`` and ``kept_contextualized_ids`` partition the
    input constraint ids (phase 1); ``removed_redundant_ids`` lists what
    phase 2 deleted. ``checks_phase1`` always equals the total input
    constraint count: decontextualization costs one consistency check per
    constraint. ``nodes_phase1``/``nodes_phase2`` sum the search nodes of
    each phase's checks, both pools of a split check included, and
    ``build_ms`` is the one solver instance build, search tables included,
    that all checks of the merge share: 2d+2 formulas for d distinct bodies.
    ``checks`` records every check in the order it ran, the two input checks
    first.
    """

    decontextualized_ids: tuple[str, ...]
    kept_contextualized_ids: tuple[str, ...]
    removed_redundant_ids: tuple[str, ...]
    checks_phase1: int
    checks_phase2: int
    elapsed_phase1_ms: float
    elapsed_phase2_ms: float
    nodes_phase1: int
    nodes_phase2: int
    build_ms: float
    checks: tuple[CheckRecord, ...] = ()


def contextualize(kb: KnowledgeBase, ctx_var: str, ctx_val: str) -> KnowledgeBase:
    """Guard every constraint with ``ctx_var = ctx_val``.

    The context variable must either be declared with the singleton domain
    {ctx_val} or be absent, in which case it is appended with that domain.
    Under a singleton context domain every guard is vacuously true on all
    in-context assignments, so the solution space is unchanged. A
    constraint already guarded by ``ctx_var = ctx_val`` is left as it is,
    and a KB already contextualized on ``(ctx_var, ctx_val)`` is returned
    unchanged, so contextualizing twice is the same as once. It runs no
    search: ``ckb_merge`` proves each source consistent.

    The output, valid as the input is, is not validated again: it keeps every
    id and adds only a context variable and guards that name its one value.
    """
    require_kb(kb)
    _require_names(ctx_var, ctx_val)
    declared = kb.variables_by_name().get(ctx_var)
    if declared is not None and declared.domain != (ctx_val,):
        raise ValidationError(
            f"context variable '{ctx_var}' must have the singleton domain "
            f"{{{ctx_val}}} in '{kb.name}', found {{{', '.join(declared.domain)}}}"
        )

    context = (ctx_var, ctx_val)
    guarded = [is_contextualized(c.formula, context) for c in kb.constraints]
    if kb.context == context and all(guarded):
        return kb
    variables = kb.variables
    if declared is None:
        variables += (Variable(ctx_var, (ctx_val,)),)
    guard = Atom(ctx_var, AtomOp.EQ, ctx_val)
    constraints = tuple(
        c if already else Constraint(c.id, Implies(guard, c.formula), c.provenance)
        for c, already in zip(kb.constraints, guarded)
    )
    return KnowledgeBase._derived(kb.name, variables, constraints, context)


def _require_names(*names: object) -> None:
    """Raise ValidationError unless every context name given is a string."""
    if not all(isinstance(name, str) for name in names):
        raise ValidationError(f"context names must be strings, got {', '.join(map(repr, names))}")


def align(
    kb1: KnowledgeBase, kb2: KnowledgeBase, ctx_var: str
) -> tuple[Variable, ...]:
    """Compute the merged variable set of two aligned sources.

    Every non-context variable must exist in both KBs with the same name
    and the same domain as a set; the result keeps kb1's declaration order
    and value order, with the context variable's domain replaced by the
    union of the two context domains (kb1 values first).
    """
    require_kb(kb1)
    require_kb(kb2)
    _require_names(ctx_var)
    table1, table2 = _check_shared_variables(kb1, kb2, ctx_var)
    if ctx_var not in table1 or ctx_var not in table2:
        missing = kb1.name if ctx_var not in table1 else kb2.name
        raise AlignmentError(
            ctx_var, f"context variable not declared in '{missing}'"
        )

    dom1 = table1[ctx_var].domain
    dom2 = table2[ctx_var].domain
    union = dom1 + tuple(x for x in dom2 if x not in dom1)
    return tuple(
        Variable(ctx_var, union) if v.name == ctx_var else v for v in kb1.variables
    )


def _check_shared_variables(
    kb1: KnowledgeBase, kb2: KnowledgeBase, ctx_var: Optional[str]
) -> tuple[dict[str, Variable], dict[str, Variable]]:
    """Every variable but ``ctx_var`` is declared in both KBs, with the same
    domain as a set; raises AlignmentError naming the first that is not.
    Returns the two KBs' variables by name."""
    table1 = kb1.variables_by_name()
    table2 = kb2.variables_by_name()
    for v in kb1.variables:
        if v.name == ctx_var:
            continue
        other = table2.get(v.name)
        if other is None:
            raise AlignmentError(v.name, f"not declared in '{kb2.name}'")
        if set(other.domain) != set(v.domain):
            raise AlignmentError(
                v.name,
                f"domain mismatch: {{{', '.join(v.domain)}}} in '{kb1.name}' vs "
                f"{{{', '.join(other.domain)}}} in '{kb2.name}'",
            )
    for v in kb2.variables:
        if v.name != ctx_var and v.name not in table1:
            raise AlignmentError(v.name, f"not declared in '{kb1.name}'")
    return table1, table2


def _context_var(kb1: KnowledgeBase, kb2: KnowledgeBase) -> Optional[str]:
    """The context variable that two KBs declare, either of which may declare
    none; None if neither does. Raises AlignmentError if they differ."""
    ctx1, ctx2 = (kb.context[0] if kb.context else None for kb in (kb1, kb2))
    if ctx1 is not None and ctx2 is not None and ctx1 != ctx2:
        raise AlignmentError(
            ctx1,
            f"context variables differ: '{ctx1}' in '{kb1.name}' vs "
            f"'{ctx2}' in '{kb2.name}'",
        )
    return ctx2 if ctx1 is None else ctx1


_IDENT_SAFE = re.compile(r"[^A-Za-z0-9_.]")


def _merged_ids(kb1c: KnowledgeBase, kb2c: KnowledgeBase) -> list[str]:
    """The merged id of every input constraint, kb1c's first.

    An id that both sources hold gets a suffix on each side: its provenance,
    or else its KB name, made safe; if the two are equal, its context value,
    made safe. A suffixed id that meets another id raises ValidationError
    naming it, since the merged ids must be unique.
    """
    sides = [(kb, {c.id: c for c in kb.constraints}) for kb in (kb1c, kb2c)]
    ids = []
    for k, (kb, _) in enumerate(sides):
        other_kb, other = sides[1 - k]
        for c in kb.constraints:
            twin = other.get(c.id)
            if twin is None:
                ids.append(c.id)
                continue
            tag = _IDENT_SAFE.sub("_", c.provenance or kb.name)
            if tag == _IDENT_SAFE.sub("_", twin.provenance or other_kb.name):
                tag = _IDENT_SAFE.sub("_", kb.context[1])
            ids.append(f"{c.id}.{tag}")
    if len(set(ids)) < len(ids):
        duplicate = next(cid for k, cid in enumerate(ids) if cid in ids[:k])
        raise ValidationError(f"duplicate constraint id '{duplicate}'")
    return ids


def _suffix_ors(masks: list[int]) -> list[int]:
    """Entry ``k`` ORs ``masks[k:]``; the last entry is 0."""
    return list(accumulate(reversed(masks), or_, initial=0))[::-1]


def _require_contextualized(kb: KnowledgeBase) -> tuple[str, str]:
    """Prove ``kb`` a merge source, a KB that :func:`contextualize` returns
    unchanged: with a singleton context domain and every constraint
    guarded. Returns its context pair."""
    require_kb(kb)
    if kb.context is None:
        raise NotContextualizedError(f"knowledge base '{kb.name}' declares no context")
    if contextualize(kb, *kb.context) is not kb:
        c = next(c for c in kb.constraints if not is_contextualized(c.formula, kb.context))
        raise NotContextualizedError(f"constraint '{c.id}' of '{kb.name}' is not contextualized")
    return kb.context


def ckb_merge(
    kb1c: KnowledgeBase, kb2c: KnowledgeBase
) -> tuple[KnowledgeBase, MergeReport]:
    """Merge two contextualized, individually consistent knowledge bases.

    Each source must be a KB that :func:`contextualize` returns unchanged,
    and the two must share their context variable. Two input checks come
    first, the only proof that each source is consistent;
    InconsistentInputError names a source that is not. Phase 1 walks the
    concatenated input constraints in file order. For each guarded c' with
    bare body c, the two-phase pseudocode checks {not c} against the still
    unprocessed inputs, c' included, plus the output built so far. Pinning
    the context to the value w of the other source O loses no solution,
    since c' keeps not c out of c's own context, and under that pin the pool
    is O's bodies alone: O's guarded inputs are their bodies, those of c's
    own source are vacuous, and every body merged bare so far is entailed by
    O (by induction on the order: a body of O is in the pool anyway, and one
    of c's source was merged bare because O refuted its negation). So the
    check asks whether O entails c, and an input's phase-1 verdict, and
    whether an equal constraint settles it, depend only on its body and the
    other source, not on any constraint order. Unsatisfiable means the guard
    carries no information and c joins the output decontextualized,
    otherwise c' is kept guarded. Phase 2 walks the output in insertion
    order and deletes any constraint whose negation is unsatisfiable with
    the rest; deletions are visible to the remaining checks.

    Every check pins the context to a value v, which makes the premise of a
    guard ``ctx = w -> c`` true or false: the guard is c itself if w is v and
    vacuous otherwise. So a pool is a pin ORed with the bodies that pin
    enables, and the one solver instance, built up front, holds no guard:
    only each distinct body, its negation and the two pins. A phase-2 check
    of a guarded c' pins its source's value, as not c' does; one of a
    decontextualized c is split into a pool per context value and is
    consistent if either is, which is exact since the merged context domain
    holds exactly the two values. A pool that holds a body equal to the one
    its check negates, or for a cube body refutes each literal that
    body refutes, holds c and not c: it is settled inconsistent with no
    search. A check's record sums the searches of its pools, and reads 0
    nodes and 0.0 ms only when all of them are settled.

    Returns the merged KB over the aligned variables (context domain is the
    union of the two context values) and a MergeReport. The merged KB has
    no single context, so its ``context`` is empty: the guards that survive
    inside the formulas no longer count as contextualized. No KB is validated
    here: the sources are valid since built, and so is the merged KB by
    construction. Only a decontextualized or renamed output is a new Constraint.
    """
    ctx_val1 = _require_contextualized(kb1c)[1]
    ctx_val2 = _require_contextualized(kb2c)[1]
    ctx_var = _context_var(kb1c, kb2c)
    if ctx_val1 == ctx_val2:
        raise ValidationError(
            f"both sources use the same context value '{ctx_val1}'; "
            f"nothing distinguishes them"
        )
    variables = align(kb1c, kb2c, ctx_var)

    ids = _merged_ids(kb1c, kb2c)
    inputs = kb1c.constraints + kb2c.constraints
    # _require_contextualized proved every input a guard over its body
    bodies = [c.formula.right for c in inputs]
    n, n1 = len(inputs), len(kb1c.constraints)

    # The instance holds each distinct body once. A check is handed each of
    # its pools as one int, the OR of the instance masks of its formulas, so
    # no check walks a pool: input i's body has the mask bare[i], shared by
    # every input with an equal body, its negation the mask not_bare[i], and
    # pins[k] pins source k's context value.
    slots: dict[Formula, int] = {}
    slot = [slots.setdefault(body, len(slots)) for body in bodies]
    distinct = list(slots)
    tb = time.perf_counter()
    inst = _Instance(
        variables,
        distinct
        + [negate(body) for body in distinct]
        + [Atom(ctx_var, AtomOp.EQ, ctx_val1), Atom(ctx_var, AtomOp.EQ, ctx_val2)],
    )
    build_ms = (time.perf_counter() - tb) * 1000.0
    bare = [inst.masks[s] for s in slot]
    not_bare = [inst.masks[len(distinct) + s] for s in slot]
    pins = inst.masks[-2:]
    # each source's bodies under its own pin
    sources = [reduce(or_, bare[:n1], pins[0]), reduce(or_, bare[n1:], pins[1])]

    records: list[CheckRecord] = []

    def check(phase: str, i: int, pools: list[int]) -> bool:
        """Record the check of input i, consistent iff one of its ``pools``
        is: a pool that holds bare[i] is settled, the others are searched in
        turn until one is consistent."""
        verdict, nodes, search_ms = False, 0, 0.0
        for pool in pools:
            if pool & bare[i] != bare[i]:
                verdict, more, ms = inst.check(pool)
                nodes, search_ms = nodes + more, search_ms + ms
                if verdict:
                    break
        records.append(CheckRecord(phase, ids[i], verdict, nodes, search_ms))
        return verdict

    # The only consistency proof of the sources: a source's singleton context
    # domain makes its guards vacuous, so it is consistent iff its bare bodies
    # are, with the context variable pinned to its value.
    for kb, pool in zip((kb1c, kb2c), sources):
        result = inst.check(pool)
        records.append(CheckRecord("input", None, *result))
        if not result[0]:
            raise InconsistentInputError(f"knowledge base '{kb.name}' is inconsistent")

    # per input, the context values whose pins enable its merged formula:
    # both if it was merged bare, else its source's. Its phase-1 pool is the
    # other source's bodies under that source's pin (see the docstring).
    t0 = time.perf_counter()
    enabled = [
        (int(i >= n1),) if check("1", i, [sources[i < n1] | not_bare[i]]) else (0, 1)
        for i in range(n)
    ]
    t1 = time.perf_counter()

    # under each pin, the bodies it enables among the merged constraints
    # after j, and those kept before j with the pin itself
    later = [_suffix_ors([b if k in ks else 0 for b, ks in zip(bare, enabled)]) for k in (0, 1)]
    done = list(pins)
    kept: list[Constraint] = []
    removed: list[str] = []
    for j, c in enumerate(inputs):
        if not check("2", j, [done[k] | later[k][j + 1] | not_bare[j] for k in enabled[j]]):
            removed.append(ids[j])
            continue
        # an input that keeps its id and guarded formula is its output
        formula = bodies[j] if len(enabled[j]) == 2 else c.formula
        if ids[j] != c.id or formula is not c.formula:
            c = Constraint(ids[j], formula, c.provenance)
        kept.append(c)
        for k in enabled[j]:
            done[k] |= bare[j]
    t2 = time.perf_counter()

    # valid by construction: the aligned variables declare every atom of
    # the inputs, and _merged_ids leaves the ids unique
    out = KnowledgeBase._derived(f"{kb1c.name}+{kb2c.name}", variables, tuple(kept), None)
    phase1 = [r for r in records if r.phase == "1"]
    phase2 = [r for r in records if r.phase == "2"]
    report = MergeReport(
        decontextualized_ids=tuple(cid for cid, ks in zip(ids, enabled) if len(ks) == 2),
        kept_contextualized_ids=tuple(cid for cid, ks in zip(ids, enabled) if len(ks) == 1),
        removed_redundant_ids=tuple(removed),
        checks_phase1=len(phase1),
        checks_phase2=len(phase2),
        elapsed_phase1_ms=(t1 - t0) * 1000.0,
        elapsed_phase2_ms=(t2 - t1) * 1000.0,
        nodes_phase1=sum(r.nodes for r in phase1),
        nodes_phase2=sum(r.nodes for r in phase2),
        build_ms=build_ms,
        checks=tuple(records),
    )
    return out, report


def is_redundant(kb: KnowledgeBase, c: Constraint) -> bool:
    """True iff the rest of the KB is inconsistent with the negation of c."""
    require_kb(kb)
    require_constraint(c)
    # ids are unique in a valid KB, and == compares formulas of any depth
    k = next((k for k, x in enumerate(kb.constraints) if x.id == c.id), None)
    if k is None or kb.constraints[k] != c:
        raise ConstraintNotFoundError(f"constraint '{c.id}' is not part of '{kb.name}'")
    rest = kb.constraints[:k] + kb.constraints[k + 1 :]
    ok, _ = is_consistent(kb.variables, [x.formula for x in rest] + [negate(c.formula)])
    return not ok


def intersection_count(kb1: KnowledgeBase, kb2: KnowledgeBase) -> int:
    """Count assignments of the shared non-context variables satisfying
    both KBs' bare constraint bodies.

    The context variable is projected away: the per-source context domains
    are disjoint, so a literal solution-set intersection would always be
    empty. With guards stripped, the count measures how much of the two
    solution spaces genuinely overlaps.
    """
    require_kb(kb1)
    require_kb(kb2)
    ctx_var = _context_var(kb1, kb2)
    # the context variable may be missing from an uncontextualized side
    _check_shared_variables(kb1, kb2, ctx_var)
    shared = [v for v in kb1.variables if v.name != ctx_var]

    bodies = [
        c.formula.right if is_contextualized(c.formula, kb.context) else c.formula
        for kb in (kb1, kb2)
        for c in kb.constraints
    ]
    result, _ = count_solutions(tuple(shared), bodies)
    return result.count
