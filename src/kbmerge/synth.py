"""Seeded generation of consistent knowledge-base pairs for benchmarking.

A pair shares one variable set plus a context variable (values ctxA and
ctxB). The total constraint budget splits into source-unique constraints
(drawn independently per source, these tend to stay contextualized after
a merge) and constraints planted identically in both sources (these
decontextualize and collapse to a single copy). The achieved
contextualization share of a merged pair is a measured outcome, not a
promise; merging can prove some unique constraints context-free too.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .errors import GenerationError, ValidationError
from .model import (
    Atom,
    AtomOp,
    Constraint,
    Formula,
    Implies,
    KnowledgeBase,
    Variable,
    is_int,
    is_number,
)
from .solver import is_consistent

CTX_VAR = "ctx"
CTX_VALUES = ("ctxA", "ctxB")

RETRY_BUDGET = 100

# fraction of constraints drawn as bare exclusion atoms instead of implications
BARE_ATOM_SHARE = 0.1


@dataclass(frozen=True)
class SynthConfig:
    """Generation parameters; two configs with equal fields give equal pairs."""

    n_constraints: int
    context_share: float
    seed: int
    n_vars: int = 10
    domain_size: int = 4

    def __post_init__(self):
        for name in ("n_constraints", "seed", "n_vars", "domain_size"):
            if not is_int(getattr(self, name)):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not is_number(self.context_share):
            raise ValidationError(f"context_share must be a number, got {self.context_share!r}")
        if self.n_constraints < 1:
            raise ValidationError("n_constraints must be at least 1")
        if not 0.0 <= self.context_share <= 1.0:
            raise ValidationError("context_share must lie in [0, 1]")
        if self.n_vars < 2:
            raise ValidationError("n_vars must be at least 2 for implications")
        if self.domain_size < 1:
            raise ValidationError("domain_size must be at least 1")


def _domain_values(size: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    if size <= len(letters):
        return tuple(letters[:size])
    return tuple(f"w{i}" for i in range(size))


def _draw_formula(rng: random.Random, variables: list[Variable]) -> Formula:
    if rng.random() < BARE_ATOM_SHARE:
        v = rng.choice(variables)
        return Atom(v.name, AtomOp.NEQ, rng.choice(v.domain))
    v1, v2 = rng.sample(variables, 2)
    return Implies(
        Atom(v1.name, AtomOp.EQ, rng.choice(v1.domain)),
        Atom(v2.name, AtomOp.NEQ, rng.choice(v2.domain)),
    )


def _draw_consistent_batch(
    rng: random.Random,
    variables: list[Variable],
    count: int,
    base: list[Formula],
    what: str,
) -> list[Formula]:
    """Draw ``count`` formulas that stay consistent together with ``base``."""
    for _ in range(RETRY_BUDGET):
        batch = [_draw_formula(rng, variables) for _ in range(count)]
        ok, _ = is_consistent(variables, base + batch)
        if ok:
            return batch
    raise GenerationError(
        f"could not draw a consistent {what} batch of {count} constraints "
        f"within {RETRY_BUDGET} attempts"
    )


def synthesize_pair(cfg: SynthConfig) -> tuple[KnowledgeBase, KnowledgeBase]:
    """Generate two consistent sources whose merged size budget is
    ``cfg.n_constraints`` total constraints.

    ``k = round(context_share * n_constraints)`` constraints are unique
    (split as evenly as possible between the sources; kb1 takes the odd
    one); the remaining budget is filled with shared constraints planted
    in both sources under the same id. A shared constraint consumes two
    slots of the budget, so k is bumped by one when the remainder is odd.
    """
    if not isinstance(cfg, SynthConfig):
        raise ValidationError(f"not a SynthConfig: {cfg!r}")
    k = round(cfg.context_share * cfg.n_constraints)
    if (cfg.n_constraints - k) % 2:
        k += 1
    n_shared = (cfg.n_constraints - k) // 2
    k1 = k - k // 2
    k2 = k // 2

    values = _domain_values(cfg.domain_size)
    plain = [Variable(f"v{i + 1}", values) for i in range(cfg.n_vars)]

    rng = random.Random(cfg.seed)
    shared = _draw_consistent_batch(rng, plain, n_shared, [], "shared")
    unique1 = _draw_consistent_batch(rng, plain, k1, shared, "first-source")
    unique2 = _draw_consistent_batch(rng, plain, k2, shared, "second-source")

    def build(name: str, ctx_val: str, uniques: list[Formula], tag: str) -> KnowledgeBase:
        variables = (Variable(CTX_VAR, (ctx_val,)),) + tuple(plain)
        constraints = [
            Constraint(id=f"s{i + 1}", formula=f, provenance=name)
            for i, f in enumerate(shared)
        ]
        constraints += [
            Constraint(id=f"{tag}{i + 1}", formula=f, provenance=name)
            for i, f in enumerate(uniques)
        ]
        return KnowledgeBase(name, variables, tuple(constraints), (CTX_VAR, ctx_val))

    kb1 = build("ckbA", CTX_VALUES[0], unique1, "a")
    kb2 = build("ckbB", CTX_VALUES[1], unique2, "b")
    return kb1, kb2
