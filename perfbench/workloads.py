"""The three benchmark workloads: input synthesis, the timed op, and its check.

Every input is derived from the workload seed alone, so the same seed gives
the same inputs in every process. The program under test only ever sees the
generated knowledge bases.

An op receives its input and an ``Api`` holding the public kbmerge functions
it may call. The untraced run passes the plain functions; the traced run
passes wrappers that record a span per call (see ``tracing.py``).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from kbmerge import (
    KnowledgeBase,
    SynthConfig,
    ckb_merge,
    contextualize,
    count_solutions,
    is_consistent,
    parse_kb,
    serialize_kb,
    synthesize_pair,
)
from kbmerge.bench import _derive_seed, _shuffled
from kbmerge.synth import CTX_VAR


class Api(NamedTuple):
    """The kbmerge entry points an op may call."""

    parse_kb: Callable
    serialize_kb: Callable
    contextualize: Callable
    ckb_merge: Callable
    count_solutions: Callable


PLAIN_API = Api(parse_kb, serialize_kb, contextualize, ckb_merge, count_solutions)


def _pairs(name: str, seed: int, count: int, orders: int, cfg: dict) -> list:
    """``count`` synthesized pairs, each in ``orders`` shuffled constraint orders.

    The list is order-major (every pair in its first order, then every pair
    in its second order, ...), so any prefix of it covers as many distinct
    pairs as possible: the timed loop cycles through it and a run that is
    cut anywhere still samples the pairs evenly.
    """
    raw = [
        synthesize_pair(SynthConfig(seed=_derive_seed(name, seed, "pair", i), **cfg))
        for i in range(count)
    ]
    out = []
    for order in range(orders):
        for i, (kb1, kb2) in enumerate(raw):
            rng = random.Random(_derive_seed(name, seed, "order", i, order))
            out.append((_shuffled(kb1, rng), _shuffled(kb2, rng)))
    return out


class Checker:
    """Per-op output checks, run outside the timed interval.

    Merged texts are remembered per input index: a repeat of an input must
    reproduce the first text exactly. The consistency verdict of a merged KB
    is remembered per text, since an identical text is an identical KB.
    """

    def __init__(self):
        self.first_text: dict[int, str] = {}
        self.consistent: dict[str, bool] = {}

    def merged_ok(self, index: int, n: int, merged: KnowledgeBase, report, text: str) -> bool:
        if report.checks_phase1 != n:
            return False
        if self.first_text.setdefault(index, text) != text:
            return False
        if text not in self.consistent:
            ok, _ = is_consistent(merged.variables, merged.formulas())
            self.consistent[text] = ok
        return self.consistent[text]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``setup(seed)`` returns the list of distinct inputs the timed
    loop cycles through; ``op(input, api)`` is the timed unit of work;
    ``check(checker, index, input, output)`` says whether the output is
    correct. ``trace_ops_per_s`` fixes the traced run's op count as
    ``seconds * trace_ops_per_s``, so that its counts depend only on the
    arguments and not on machine speed.
    """

    name: str
    setup: Callable[[int], list]
    op: Callable[[Any, Api], Any]
    check: Callable[[Checker, int, Any, Any], bool]
    trace_ops_per_s: float


# -- merge_n100: the top of the paper's grid, in memory ----------------------
# Consistency checks are nearly all of the op, so changes to instance build
# and search show here first.

MERGE_N = 100
MERGE_CFG = dict(n_constraints=MERGE_N, context_share=0.3, n_vars=10, domain_size=4)
MERGE_PAIRS = 48
MERGE_ORDERS = 2


def _merge_setup(seed: int) -> list:
    return _pairs("merge_n100", seed, MERGE_PAIRS, MERGE_ORDERS, MERGE_CFG)


def _merge_op(inp, api: Api):
    kb1, kb2 = inp
    kb1c = api.contextualize(kb1, CTX_VAR, kb1.context[1])
    kb2c = api.contextualize(kb2, CTX_VAR, kb2.context[1])
    return api.ckb_merge(kb1c, kb2c)


def _merge_check(checker: Checker, index: int, inp, out) -> bool:
    merged, report = out
    return checker.merged_ok(index, MERGE_N, merged, report, serialize_kb(merged))


# -- pipeline_small: the `kbmerge merge` path, text to text --------------------
# Small KBs, so fixed per-merge costs (parsing, input checks, any up-front
# compilation) are a visible share of the op.

PIPELINE_N = 15
PIPELINE_CFG = dict(n_constraints=PIPELINE_N, context_share=0.3, n_vars=10, domain_size=4)
PIPELINE_PAIRS = 64
PIPELINE_ORDERS = 2


def _pipeline_setup(seed: int) -> list:
    pairs = _pairs("pipeline_small", seed, PIPELINE_PAIRS, PIPELINE_ORDERS, PIPELINE_CFG)
    return [(serialize_kb(kb1), serialize_kb(kb2)) for kb1, kb2 in pairs]


def _pipeline_op(inp, api: Api):
    text1, text2 = inp
    kb1 = api.parse_kb(text1)
    kb2 = api.parse_kb(text2)
    kb1c = api.contextualize(kb1, CTX_VAR, kb1.context[1])
    kb2c = api.contextualize(kb2, CTX_VAR, kb2.context[1])
    merged, report = api.ckb_merge(kb1c, kb2c)
    return merged, report, api.serialize_kb(merged)


def _pipeline_check(checker: Checker, index: int, inp, out) -> bool:
    merged, report, text = out
    return checker.merged_ok(index, PIPELINE_N, merged, report, text)


# -- count_small: solution counting on merged KBs, no merge code timed --------
# Counting changes show here; merge changes may move only setup_s.

COUNT_CFG = dict(n_constraints=16, context_share=0.3, n_vars=7, domain_size=4)
COUNT_INPUTS = 160


def _count_setup(seed: int) -> list:
    out = []
    for i in range(COUNT_INPUTS):
        kb1, kb2 = synthesize_pair(
            SynthConfig(seed=_derive_seed("count_small", seed, "pair", i), **COUNT_CFG)
        )
        kb1c = contextualize(kb1, CTX_VAR, kb1.context[1])
        kb2c = contextualize(kb2, CTX_VAR, kb2.context[1])
        merged, _ = ckb_merge(kb1c, kb2c)
        # the context values are disjoint, so the union count is the sum
        expected = sum(
            count_solutions(kb.variables, kb.formulas())[0].count for kb in (kb1c, kb2c)
        )
        out.append((merged.variables, merged.formulas(), expected))
    return out


def _count_op(inp, api: Api):
    variables, formulas, _ = inp
    return api.count_solutions(variables, formulas)


def _count_check(checker: Checker, index: int, inp, out) -> bool:
    result, _ = out
    return not result.capped and result.count == inp[2]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="merge_n100",
            setup=_merge_setup,
            op=_merge_op,
            check=_merge_check,
            trace_ops_per_s=3.0,
        ),
        Workload(
            name="pipeline_small",
            setup=_pipeline_setup,
            op=_pipeline_op,
            check=_pipeline_check,
            trace_ops_per_s=60.0,
        ),
        Workload(
            name="count_small",
            setup=_count_setup,
            op=_count_op,
            check=_count_check,
            trace_ops_per_s=20.0,
        ),
    )
}
