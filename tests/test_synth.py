"""Tests for the synthetic benchmark pair generator."""

import pytest

from kbmerge import (
    GenerationError,
    SynthConfig,
    ValidationError,
    contextualize,
    is_consistent,
    synthesize_pair,
    validate_kb,
)
from kbmerge.model import Atom, AtomOp, Implies, Not, is_contextualized
from kbmerge.synth import CTX_VALUES, CTX_VAR


def make(n, share, seed=0, **kw):
    return synthesize_pair(SynthConfig(n, share, seed, **kw))


def test_pair_is_deterministic_for_a_seed():
    a1, b1 = make(20, 0.3, seed=7)
    a2, b2 = make(20, 0.3, seed=7)
    assert a1 == a2
    assert b1 == b2


def test_different_seeds_differ():
    a1, _ = make(20, 0.3, seed=1)
    a2, _ = make(20, 0.3, seed=2)
    assert a1 != a2


def test_sources_validate_and_are_consistent():
    kb1, kb2 = make(30, 0.4, seed=3)
    for kb in (kb1, kb2):
        validate_kb(kb)
        assert is_consistent(kb.variables, kb.formulas())[0]


def test_context_declarations():
    kb1, kb2 = make(10, 0.5, seed=0)
    assert kb1.context == (CTX_VAR, CTX_VALUES[0])
    assert kb2.context == (CTX_VAR, CTX_VALUES[1])
    # the context variable is declared first with a singleton domain,
    # so the pair is ready for contextualize() as-is
    assert kb1.variables[0].name == CTX_VAR
    assert kb1.variables[0].domain == (CTX_VALUES[0],)
    assert kb2.variables[0].domain == (CTX_VALUES[1],)


def test_constraints_are_raw_not_guarded():
    kb1, _ = make(10, 0.5, seed=0)
    assert not any(is_contextualized(c.formula, kb1.context) for c in kb1.constraints)
    kb1c = contextualize(kb1, CTX_VAR, CTX_VALUES[0])
    assert all(is_contextualized(c.formula, kb1c.context) for c in kb1c.constraints)


def test_total_constraint_count_matches_config():
    for n in (4, 10, 17, 40):
        for share in (0.0, 0.25, 0.5, 0.75, 1.0):
            kb1, kb2 = make(n, share, seed=11)
            assert len(kb1.constraints) + len(kb2.constraints) == n, (n, share)


def test_share_zero_means_everything_is_shared():
    kb1, kb2 = make(10, 0.0, seed=5)
    assert len(kb1.constraints) == 5
    assert len(kb2.constraints) == 5
    assert [c.id for c in kb1.constraints] == [c.id for c in kb2.constraints]
    assert [c.formula for c in kb1.constraints] == [
        c.formula for c in kb2.constraints
    ]


def test_share_one_means_nothing_is_shared():
    kb1, kb2 = make(10, 1.0, seed=5)
    ids1 = {c.id for c in kb1.constraints}
    ids2 = {c.id for c in kb2.constraints}
    assert len(kb1.constraints) + len(kb2.constraints) == 10
    assert not ids1 & ids2


def test_odd_remainder_is_bumped_to_the_unique_side():
    # n=10, share=0.3 gives k=3 unique; the leftover 7 cannot be split
    # evenly so k is bumped to 4 and the extra unique goes to kb1
    kb1, kb2 = make(10, 0.3, seed=9)
    shared1 = [c for c in kb1.constraints if c.id.startswith("s")]
    shared2 = [c for c in kb2.constraints if c.id.startswith("s")]
    unique1 = [c for c in kb1.constraints if not c.id.startswith("s")]
    unique2 = [c for c in kb2.constraints if not c.id.startswith("s")]
    assert len(shared1) == len(shared2) == 3
    assert len(unique1) == 2
    assert len(unique2) == 2


def test_shared_constraints_agree_across_the_pair():
    kb1, kb2 = make(24, 0.5, seed=13)
    shared1 = {c.id: c.formula for c in kb1.constraints if c.id.startswith("s")}
    shared2 = {c.id: c.formula for c in kb2.constraints if c.id.startswith("s")}
    assert shared1 == shared2
    assert shared1  # the split actually produced shared constraints


def test_formula_shapes():
    kb1, kb2 = make(60, 0.5, seed=21)
    bare = 0
    for c in list(kb1.constraints) + list(kb2.constraints):
        f = c.formula
        if isinstance(f, Implies):
            assert isinstance(f.left, Atom) and f.left.op is AtomOp.EQ
            assert isinstance(f.right, Atom) and f.right.op is AtomOp.NEQ
            assert f.left.var != f.right.var
            assert f.left.var != CTX_VAR
            assert f.right.var != CTX_VAR
        else:
            assert isinstance(f, Atom) and f.op is AtomOp.NEQ
            bare += 1
    # roughly one in ten draws is a bare disequality
    assert 0 < bare < 20


def test_variable_layout_respects_config():
    kb1, _ = make(5, 0.0, seed=0, n_vars=3, domain_size=2)
    names = [v.name for v in kb1.variables]
    assert names == [CTX_VAR, "v1", "v2", "v3"]
    assert all(len(v.domain) == 2 for v in kb1.variables[1:])


def test_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        SynthConfig(0, 0.5, 0)
    with pytest.raises(ValidationError):
        SynthConfig(10, -0.1, 0)
    with pytest.raises(ValidationError):
        SynthConfig(10, 1.5, 0)
    with pytest.raises(ValidationError):
        SynthConfig(10, 0.5, 0, n_vars=1)
    with pytest.raises(ValidationError):
        SynthConfig(10, 0.5, 0, domain_size=0)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(context_share="0.3"), "context_share must be a number"),
        (dict(n_constraints=10.5), "n_constraints must be an integer"),
        (dict(n_vars="4"), "n_vars must be an integer"),
        (dict(domain_size=2.0), "domain_size must be an integer"),
    ],
    ids=["str-share", "float-size", "str-vars", "float-domain"],
)
def test_config_rejects_bad_field_types_at_construction(kw, message):
    fields = dict(n_constraints=10, context_share=0.3, seed=0) | kw
    with pytest.raises(ValidationError, match=message):
        synthesize_pair(SynthConfig(**fields))


@pytest.mark.parametrize("cfg", [None, (10, 0.3, 0), {"n_constraints": 10}])
def test_synthesize_pair_rejects_what_is_no_config(cfg):
    with pytest.raises(ValidationError, match="not a SynthConfig"):
        synthesize_pair(cfg)


def test_unsatisfiable_draws_exhaust_the_retry_budget():
    # two variables with singleton domains: v1 = a -> v2 != b is violated
    # whenever the pair (a, b) is drawn, and bare atoms v != x are always
    # violated, so a big batch cannot stay consistent
    with pytest.raises(GenerationError):
        make(40, 0.0, seed=0, n_vars=2, domain_size=1)


def test_pairs_merge_cleanly_end_to_end():
    from kbmerge import ckb_merge, count_solutions

    kb1, kb2 = make(12, 0.5, seed=4, n_vars=4, domain_size=3)
    kb1c = contextualize(kb1, CTX_VAR, CTX_VALUES[0])
    kb2c = contextualize(kb2, CTX_VAR, CTX_VALUES[1])
    merged, report = ckb_merge(kb1c, kb2c)
    assert report.checks_phase1 == 12
    result, _ = count_solutions(merged.variables, merged.formulas())
    assert result.count > 0
