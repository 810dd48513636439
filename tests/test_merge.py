import hashlib
import random
from dataclasses import replace

import pytest

from conftest import FIXTURES, load_fixture
from kbmerge import (
    AlignmentError,
    GenerationError,
    Atom,
    AtomOp,
    Constraint,
    Implies,
    InconsistentInputError,
    KnowledgeBase,
    NotContextualizedError,
    Or,
    ValidationError,
    Variable,
    align,
    brute_force_solutions,
    ckb_merge,
    contextualize,
    count_solutions,
    intersection_count,
    is_consistent,
    is_contextualized,
    is_redundant,
    negate,
    parse_kb,
    serialize_kb,
    synthesize_pair,
    validate_kb,
)
from kbmerge import solver
from kbmerge.bench import _shuffled
from kbmerge.errors import ConstraintNotFoundError
from kbmerge.merge import _merged_ids
from kbmerge.synth import CTX_VALUES, CTX_VAR, SynthConfig

ELECTRO_BODY = Implies(
    Atom("fuel", AtomOp.EQ, "electro"), Atom("couplingdev", AtomOp.EQ, "no")
)


# --- contextualize -----------------------------------------------------------


def test_contextualize_guards_every_constraint(kb_us):
    out = contextualize(kb_us, "country", "US")
    assert out.context == ("country", "US")
    assert len(out.constraints) == 3
    first = out.constraints[0]
    assert first.formula == Implies(
        Atom("country", AtomOp.EQ, "US"), Atom("fuel", AtomOp.NEQ, "hybrid")
    )
    assert all(is_contextualized(c.formula, out.context) for c in out.constraints)


def test_contextualize_is_idempotent(kb_us, kb_ger):
    once = contextualize(kb_us, "country", "US")
    assert contextualize(once, "country", "US") is once
    # an already guarded KB comes back as it is, consistent or not: the
    # merge's input check is the one consistency proof, and it names the KB
    # c1us already rules out hybrid fuel
    hybrid = Implies(Atom("country", AtomOp.EQ, "US"), Atom("fuel", AtomOp.EQ, "hybrid"))
    dead = replace(once, constraints=once.constraints + (Constraint("c4us", hybrid),))
    assert contextualize(dead, "country", "US") is dead
    with pytest.raises(InconsistentInputError, match="CKB_us"):
        ckb_merge(dead, contextualize(kb_ger, "country", "GER"))


def test_contextualize_leaves_an_already_guarded_constraint_as_it_is(kb_us, kb_ger):
    text = (FIXTURES / "ckb_us.kb").read_text(encoding="utf-8")
    mixed = parse_kb(text.replace("c1us: fuel", "c1us: country = US -> fuel"))
    assert is_contextualized(mixed.constraints[0].formula, mixed.context)
    ger = contextualize(kb_ger, "country", "GER")
    runs = [
        ckb_merge(contextualize(kb, "country", "US"), ger) for kb in (kb_us, mixed)
    ]
    # c1us is guarded once, so the merge keeps it contextualized either way
    (clean, clean_report), (merged, report) = runs
    assert serialize_kb(merged) == serialize_kb(clean)
    assert (
        report.decontextualized_ids,
        report.kept_contextualized_ids,
        report.removed_redundant_ids,
    ) == (
        clean_report.decontextualized_ids,
        clean_report.kept_contextualized_ids,
        clean_report.removed_redundant_ids,
    )
    assert "c1us" in report.kept_contextualized_ids


def test_contextualize_preserves_solution_space(kb_us):
    out = contextualize(kb_us, "country", "US")
    assert count_solutions(out.variables, out.formulas())[0].count == 288


def test_contextualize_empty_kb():
    kb = parse_kb('kb "t" { var x : { a, b }; }')
    out = contextualize(kb, "market", "EU")
    assert out.constraints == ()
    assert out.context == ("market", "EU")


def test_contextualize_appends_missing_context_variable():
    kb = parse_kb('kb "t" { var x : { a, b }; constraint c: x != a; }')
    out = contextualize(kb, "market", "EU")
    assert out.variables[-1] == Variable("market", ("EU",))
    assert count_solutions(out.variables, out.formulas())[0].count == 1


def test_contextualize_rejects_widened_context_domain():
    kb = parse_kb('kb "t" { var market : { EU, US }; var x : { a }; }')
    with pytest.raises(ValidationError, match="singleton"):
        contextualize(kb, "market", "EU")


def test_contextualize_guards_an_inconsistent_kb_that_the_merge_rejects():
    kb = parse_kb(
        'kb "bad" { var x : { a, b }; constraint c1: x = a;'
        " constraint c2: x != a; }"
    )
    # contextualize runs no search; the merge's input check names the KB
    bad = contextualize(kb, "market", "EU")
    assert bad.context == ("market", "EU")
    assert all(is_contextualized(c.formula, bad.context) for c in bad.constraints)
    other = contextualize(parse_kb('kb "other" { var x : { a, b }; }'), "market", "US")
    with pytest.raises(InconsistentInputError, match="bad"):
        ckb_merge(bad, other)
    with pytest.raises(InconsistentInputError, match="bad"):
        ckb_merge(other, bad)


def _raw_kbs():
    """Uncontextualized synthesized KBs, desk-sized and at n = 30 and 60."""
    rng = random.Random(7)
    configs = [
        SynthConfig(
            n_constraints=rng.randint(2, 10),
            context_share=rng.random(),
            seed=rng.randrange(10**9),
            n_vars=rng.randint(2, 5),
            domain_size=rng.randint(2, 3),
        )
        for _ in range(20)
    ]
    configs += [SynthConfig(n_constraints=n, context_share=0.3, seed=n) for n in (30, 60)]
    for cfg in configs:
        try:
            yield from synthesize_pair(cfg)
        except GenerationError:
            continue


def test_contextualize_output_is_valid_by_construction():
    # the output is not validated again, so it must be valid as built
    done = 0
    for kb in _raw_kbs():
        ctx_var, ctx_val = kb.context
        absent = KnowledgeBase(
            kb.name, tuple(v for v in kb.variables if v.name != ctx_var), kb.constraints
        )
        for source in (kb, absent):
            out = contextualize(source, ctx_var, ctx_val)
            validate_kb(out)
            assert out.context == (ctx_var, ctx_val)
            assert out.variables_by_name()[ctx_var].domain == (ctx_val,)
            assert [(c.id, c.provenance) for c in out.constraints] == [
                (c.id, c.provenance) for c in source.constraints
            ]
            assert contextualize(out, ctx_var, ctx_val) is out
            done += 1
    assert done >= 40


# --- align -------------------------------------------------------------------


def test_align_unions_context_domain(car_pair):
    us, ger = car_pair
    variables = align(us, ger, "country")
    assert variables[0] == Variable("country", ("US", "GER"))
    assert variables[1:] == us.variables[1:]


def test_align_reports_missing_variable(car_pair):
    us, ger = car_pair
    shrunk = replace(
        ger, variables=tuple(v for v in ger.variables if v.name != "service")
    )
    with pytest.raises(AlignmentError) as err:
        align(us, shrunk, "country")
    assert err.value.variable == "service"


def test_align_reports_extra_variable(car_pair):
    us, ger = car_pair
    grown = replace(ger, variables=ger.variables + (Variable("extra", ("x",)),))
    with pytest.raises(AlignmentError) as err:
        align(us, grown, "country")
    assert err.value.variable == "extra"


def test_align_reports_domain_mismatch(car_pair):
    us, ger = car_pair
    recolored = replace(
        ger,
        variables=tuple(
            Variable("color", ("white", "black", "red")) if v.name == "color" else v
            for v in ger.variables
        ),
    )
    with pytest.raises(AlignmentError) as err:
        align(us, recolored, "country")
    assert err.value.variable == "color"


def test_align_ignores_domain_value_order(car_pair):
    us, ger = car_pair
    permuted = replace(
        ger,
        variables=tuple(
            Variable("color", ("black", "white")) if v.name == "color" else v
            for v in ger.variables
        ),
    )
    variables = align(us, permuted, "country")
    # first KB's value order wins
    assert dict((v.name, v.domain) for v in variables)["color"] == ("white", "black")


def test_align_requires_context_variable(kb_us, kb_ger):
    stripped = replace(
        kb_us,
        variables=tuple(v for v in kb_us.variables if v.name != "country"),
        context=None,
    )
    with pytest.raises(AlignmentError) as err:
        align(stripped, kb_ger, "country")
    assert err.value.variable == "country"


# --- ckb_merge on the car example ---------------------------------------------


def test_car_merge_structure(car_merged):
    merged, report = car_merged
    assert len(merged.constraints) == 5
    by_id = {c.id: c for c in merged.constraints}
    assert set(by_id) == {"c1us", "c3us", "c1ger", "c2ger", "c3ger"}

    # the shared electro constraint survives exactly once, unguarded
    assert by_id["c2ger"].formula == ELECTRO_BODY

    guards = {
        "c1us": "US",
        "c3us": "US",
        "c1ger": "GER",
        "c3ger": "GER",
    }
    for cid, country in guards.items():
        f = by_id[cid].formula
        assert f.left == Atom("country", AtomOp.EQ, country)

    assert report.checks_phase1 == 6
    assert report.checks_phase2 == 6
    assert report.decontextualized_ids == ("c2us", "c2ger")
    assert report.kept_contextualized_ids == ("c1us", "c3us", "c1ger", "c3ger")
    assert report.removed_redundant_ids == ("c2us",)
    assert report.elapsed_phase1_ms >= 0
    assert report.elapsed_phase2_ms >= 0


def test_car_merge_report_partitions_inputs(car_pair, car_merged):
    us, ger = car_pair
    _, report = car_merged
    input_ids = [c.id for c in us.constraints] + [c.id for c in ger.constraints]
    assert sorted(report.decontextualized_ids + report.kept_contextualized_ids) == sorted(
        input_ids
    )


def test_car_merge_solution_space(car_pair, car_merged):
    us, ger = car_pair
    merged, _ = car_merged
    assert count_solutions(merged.variables, merged.formulas())[0].count == 612
    # each source is evaluated on its own grid, where its context is pinned
    union = brute_force_solutions(
        us.variables, us.formulas()
    ) | brute_force_solutions(ger.variables, ger.formulas())
    assert brute_force_solutions(merged.variables, merged.formulas()) == union


def test_car_merge_is_deterministic(car_pair, car_merged):
    merged, report = car_merged
    again, report2 = ckb_merge(*car_pair)
    assert [c.id for c in again.constraints] == [c.id for c in merged.constraints]
    assert [c.formula for c in again.constraints] == [
        c.formula for c in merged.constraints
    ]
    assert report2.removed_redundant_ids == report.removed_redundant_ids


def test_merged_output_declares_no_single_context(car_merged):
    merged, _ = car_merged
    assert merged.context is None
    assert not any(
        is_contextualized(c.formula, merged.context) for c in merged.constraints
    )


def test_merging_identical_constraint_sets_keeps_one_copy():
    text = 'kb "%s" { context market = %s; var market : { %s };' \
           " var x : { a, b, c }; constraint c1: x != a; }"
    kb1 = contextualize(parse_kb(text % ("left", "L", "L")), "market", "L")
    kb2 = contextualize(parse_kb(text % ("right", "R", "R")), "market", "R")
    merged, report = ckb_merge(kb1, kb2)
    assert len(merged.constraints) == 1
    assert merged.constraints[0].formula == Atom("x", AtomOp.NEQ, "a")
    # duplicate ids got provenance suffixes before merging
    assert report.decontextualized_ids == ("c1.left", "c1.right")
    assert report.removed_redundant_ids == ("c1.left",)
    union = brute_force_solutions(
        kb1.variables, kb1.formulas()
    ) | brute_force_solutions(kb2.variables, kb2.formulas())
    assert brute_force_solutions(merged.variables, merged.formulas()) == union


def _clashing_pair(kb1_constraints):
    text = 'kb "%s" { context ctx = %s; var ctx : { %s };' \
           " var x : { a, b }; var y : { a, b }; %s }"
    kb1 = parse_kb(text % ("kb1", "A", "A", kb1_constraints))
    kb2 = parse_kb(text % ("kb2", "B", "B", "constraint r: y = b;"))
    return contextualize(kb1, "ctx", "A"), contextualize(kb2, "ctx", "B")


@pytest.mark.parametrize(
    "kb1_constraints",
    [
        "constraint r: x = a; constraint r.kb2: y = a;",
        # r.kb2 of kb1 is redundant, so phase 2 would drop one of the two
        "constraint r.kb2: x = a; constraint r: x = a;",
    ],
)
def test_merge_rejects_renamed_ids_that_clash(kb1_constraints, monkeypatch):
    # r of kb2 is renamed r.kb2, an id that kb1 already holds
    kb1c, kb2c = _clashing_pair(kb1_constraints)
    built = []
    original = solver._Instance.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(solver._Instance, "__init__", counting_init)
    with pytest.raises(ValidationError, match="duplicate constraint id 'r.kb2'"):
        ckb_merge(kb1c, kb2c)
    # raised before the instance build, so no check ran
    assert built == []


SAME_NAME_KB = 'kb "%s" { var fuel : { gas, hybrid }; constraint c1: fuel != %s; }'


@pytest.mark.parametrize("names", [("car", "car"), ("x y", "x-y")])
def test_merge_suffixes_ids_with_equal_tags_by_context_value(names):
    # both tags of c1 are the same, car or x_y, so each side's context value
    # tells them apart
    kb1 = contextualize(parse_kb(SAME_NAME_KB % (names[0], "hybrid")), "country", "US")
    kb2 = contextualize(parse_kb(SAME_NAME_KB % (names[1], "gas")), "country", "GER")
    merged, report = ckb_merge(kb1, kb2)
    assert [c.id for c in merged.constraints] == ["c1.US", "c1.GER"]
    assert report.kept_contextualized_ids == ("c1.US", "c1.GER")
    assert [c.formula for c in merged.constraints] == [
        c.formula for c in kb1.constraints + kb2.constraints
    ]


# --- ckb_merge preconditions ---------------------------------------------------


def test_merge_rejects_uncontextualized_inputs(kb_us, kb_ger):
    with pytest.raises(NotContextualizedError):
        ckb_merge(kb_us, kb_ger)


def test_merge_rejects_a_source_with_no_context_or_an_unguarded_constraint(car_pair):
    us, ger = car_pair
    with pytest.raises(
        NotContextualizedError, match=r"^knowledge base 'CKB_us' declares no context$"
    ):
        ckb_merge(replace(us, context=None), ger)
    # c2us loses its guard: contextualize would guard it, so us is no source
    unguarded = replace(
        us,
        constraints=tuple(
            Constraint(c.id, c.formula.right, c.provenance) if c.id == "c2us" else c
            for c in us.constraints
        ),
    )
    with pytest.raises(
        NotContextualizedError, match=r"^constraint 'c2us' of 'CKB_us' is not contextualized$"
    ):
        ckb_merge(ger, unguarded)


def test_merge_rejects_a_source_with_a_widened_context_domain(car_pair):
    us, ger = car_pair
    widened = replace(
        us,
        variables=tuple(
            Variable("country", ("US", "GER")) if v.name == "country" else v
            for v in us.variables
        ),
    )
    # the singleton rule is contextualize's, and so is the message
    with pytest.raises(ValidationError) as err:
        ckb_merge(widened, ger)
    assert type(err.value) is ValidationError
    assert str(err.value) == (
        "context variable 'country' must have the singleton domain {US} in "
        "'CKB_us', found {US, GER}"
    )
    with pytest.raises(ValidationError) as direct:
        contextualize(widened, "country", "US")
    assert str(direct.value) == str(err.value)
    assert err.value.exit_code == 1


def test_merge_rejects_different_context_variables(car_pair, kb_ger):
    us, _ = car_pair
    text = serialize_kb(contextualize(kb_ger, "country", "GER"))
    market = parse_kb(text.replace("country", "market"))
    want = (
        "variable 'country': context variables differ: 'country' in 'CKB_us' "
        "vs 'market' in 'CKB_ger'"
    )
    with pytest.raises(AlignmentError) as err:
        ckb_merge(us, market)
    assert str(err.value) == want


def test_merge_rejects_same_context_value(kb_us):
    a = contextualize(kb_us, "country", "US")
    with pytest.raises(ValidationError, match="same context value"):
        ckb_merge(a, a)


def test_merge_rejects_unaligned_inputs(car_pair):
    us, ger = car_pair
    shrunk = replace(
        ger,
        variables=tuple(v for v in ger.variables if v.name != "service"),
        constraints=ger.constraints,
    )
    with pytest.raises(AlignmentError):
        ckb_merge(us, shrunk)


def test_merge_rejects_inconsistent_contextualized_input():
    ctx = Atom("country", AtomOp.EQ, "US")
    variables = (Variable("country", ("US",)), Variable("x", ("a", "b")))
    constraints = (
        Constraint("c1", Implies(ctx, Atom("x", AtomOp.EQ, "a")), "bad"),
        Constraint("c2", Implies(ctx, Atom("x", AtomOp.NEQ, "a")), "bad"),
    )
    bad = KnowledgeBase("bad", variables, constraints, ("country", "US"))
    aligned_ger = KnowledgeBase(
        "other",
        (Variable("country", ("GER",)), Variable("x", ("a", "b"))),
        (),
        ("country", "GER"),
    )
    with pytest.raises(InconsistentInputError, match="bad"):
        ckb_merge(bad, aligned_ger)


def test_merge_checks_input_consistency_under_the_source_context():
    # the body is satisfiable over the merged context domain {US, GER}, but
    # not within the source, where the context is pinned to US
    us = Atom("country", AtomOp.EQ, "US")
    body = Atom("country", AtomOp.NEQ, "US")
    bad = KnowledgeBase(
        "bad",
        (Variable("country", ("US",)), Variable("x", ("a", "b"))),
        (Constraint("c1", Implies(us, body), "bad"),),
        ("country", "US"),
    )
    other = KnowledgeBase(
        "other",
        (Variable("country", ("GER",)), Variable("x", ("a", "b"))),
        (),
        ("country", "GER"),
    )
    with pytest.raises(InconsistentInputError, match="bad"):
        ckb_merge(bad, other)
    with pytest.raises(InconsistentInputError, match="bad"):
        ckb_merge(other, bad)


# --- redundancy ---------------------------------------------------------------


def test_duplicate_constraint_is_redundant():
    kb = parse_kb(
        'kb "t" { var x : { a, b }; constraint c1: x = a; constraint c2: x = a; }'
    )
    assert is_redundant(kb, kb.constraints[1])
    assert is_redundant(kb, kb.constraints[0])


def test_lone_constraint_is_not_redundant():
    kb = parse_kb('kb "t" { var x : { a, b }; constraint c1: x = a; }')
    assert not is_redundant(kb, kb.constraints[0])


def test_second_decontextualized_copy_is_redundant(kb_union):
    # the phase-1 picture of the car merge: both electro constraints bare
    constraints = tuple(
        Constraint(c.id, c.formula.right, c.provenance)
        if c.id in ("c2us", "c2ger")
        else c
        for c in kb_union.constraints
    )
    kb = replace(kb_union, constraints=constraints)
    by_id = {c.id: c for c in kb.constraints}
    assert is_redundant(kb, by_id["c2ger"])
    assert is_redundant(kb, by_id["c2us"])
    assert not is_redundant(kb, by_id["c1us"])


def test_is_redundant_requires_membership(kb_union):
    stray = Constraint("zz", Atom("fuel", AtomOp.NEQ, "gas"))
    with pytest.raises(ConstraintNotFoundError, match="constraint 'zz' is not part of"):
        is_redundant(kb_union, stray)
    # an id the KB holds, but with another formula or provenance
    held = kb_union.constraints[0]
    for other in (replace(held, formula=negate(held.formula)), replace(held, provenance="x")):
        with pytest.raises(ConstraintNotFoundError, match=f"constraint '{held.id}'"):
            is_redundant(kb_union, other)


def _or_chain(depth: int):
    f = Atom("x", AtomOp.EQ, "a")
    for _ in range(depth):
        f = Or(f, Atom("y", AtomOp.EQ, "a"))
    return f


def test_is_redundant_finds_a_deep_constraint_by_id():
    # a fresh copy of a 400-level chain is the KB's constraint: it is found
    # by its id and compared with ==, which does not recurse
    variables = (Variable("x", ("a", "b")), Variable("y", ("a", "b")))
    kb = KnowledgeBase("deep", variables, (Constraint("c", _or_chain(400)),))
    copy = Constraint("c", _or_chain(400))
    assert copy.formula is not kb.constraints[0].formula
    assert not is_redundant(kb, copy)
    kb2 = KnowledgeBase("deep", variables, (Constraint("d", Atom("x", AtomOp.EQ, "a")), copy))
    assert is_redundant(kb2, Constraint("c", _or_chain(400)))
    with pytest.raises(ConstraintNotFoundError):
        is_redundant(kb2, Constraint("c", _or_chain(399)))


# --- intersection -------------------------------------------------------------


def test_car_intersection(kb_us, kb_ger):
    assert intersection_count(kb_us, kb_ger) == 126


def test_car_intersection_on_contextualized_pair(car_pair):
    assert intersection_count(*car_pair) == 126


def test_intersection_with_unconstrained_side(kb_us, kb_ger):
    empty_ger = replace(kb_ger, constraints=())
    assert intersection_count(kb_us, empty_ger) == 288


def test_intersection_rejects_context_variable_mismatch(kb_us, kb_ger):
    renamed = parse_kb(serialize_kb(kb_ger).replace("country", "market"))
    # the message of ckb_merge, naming both KBs
    with pytest.raises(
        AlignmentError,
        match=r"^variable 'country': context variables differ: 'country' in 'CKB_us' "
        r"vs 'market' in 'CKB_ger'$",
    ):
        intersection_count(kb_us, renamed)


def test_intersection_matches_brute_force_on_random_pairs():
    rng = random.Random(99)
    for _ in range(25):
        seed = rng.randrange(10**6)
        kb1, kb2 = synthesize_pair(
            SynthConfig(
                n_constraints=6,
                context_share=0.5,
                seed=seed,
                n_vars=4,
                domain_size=3,
            )
        )
        shared = tuple(v for v in kb1.variables if v.name != "ctx")
        bodies = kb1.formulas() + kb2.formulas()
        assert intersection_count(kb1, kb2) == len(
            brute_force_solutions(shared, bodies)
        )


# --- semantics preservation on random pairs ------------------------------------


def random_desk_pairs():
    """40 seeded contextualized pairs of 2-10 constraints."""
    rng = random.Random(4242)
    done = 0
    while done < 40:
        seed = rng.randrange(10**9)
        try:
            kb1, kb2 = synthesize_pair(
                SynthConfig(
                    n_constraints=rng.randint(2, 10),
                    context_share=rng.random(),
                    seed=seed,
                    n_vars=rng.randint(2, 5),
                    domain_size=rng.randint(2, 3),
                )
            )
        except GenerationError:
            continue
        yield contextualize(kb1, "ctx", "ctxA"), contextualize(kb2, "ctx", "ctxB")
        done += 1


def test_merge_preserves_union_semantics_on_random_pairs():
    for kb1c, kb2c in random_desk_pairs():
        merged, report = ckb_merge(kb1c, kb2c)
        assert report.checks_phase1 == len(kb1c.constraints) + len(kb2c.constraints)
        ids = [c.id for c in merged.constraints]
        assert len(ids) == len(set(ids))
        union = brute_force_solutions(
            kb1c.variables, kb1c.formulas()
        ) | brute_force_solutions(kb2c.variables, kb2c.formulas())
        assert brute_force_solutions(merged.variables, merged.formulas()) == union
        for c in merged.constraints:
            assert not is_redundant(merged, c)


# --- one solver instance per merge ---------------------------------------------


def _renamed(kb1c: KnowledgeBase, kb2c: KnowledgeBase) -> list[Constraint]:
    """The input constraints of both sources, kb1c's first, under their
    merged ids."""
    inputs = kb1c.constraints + kb2c.constraints
    return [replace(c, id=cid) for c, cid in zip(inputs, _merged_ids(kb1c, kb2c))]


def reference_merge(kb1c: KnowledgeBase, kb2c: KnowledgeBase):
    """The two-phase merge with a fresh solver instance per check.

    Every check calls ``is_consistent`` on its explicit constraint pool, as
    the pseudocode reads; returns the merged KB, the three report id tuples
    and the (phase, id, verdict) of each phase-1 and phase-2 check.
    """
    ctx_var = kb1c.context[0]
    variables = align(kb1c, kb2c, ctx_var)
    renamed = _renamed(kb1c, kb2c)
    decontextualized, kept_contextualized, merged = [], [], []
    checks = []
    for i, guarded in enumerate(renamed):
        bare = Constraint(guarded.id, guarded.formula.right, guarded.provenance)
        pool = [c.formula for c in renamed[i:]] + [c.formula for c in merged]
        ok, _ = is_consistent(variables, pool + [negate(bare.formula)])
        checks.append(("1", bare.id, ok))
        if not ok:
            merged.append(bare)
            decontextualized.append(bare.id)
        else:
            merged.append(guarded)
            kept_contextualized.append(guarded.id)
    kept = list(merged)
    removed = []
    for c in merged:
        rest = [x.formula for x in kept if x is not c]
        ok, _ = is_consistent(variables, rest + [negate(c.formula)])
        checks.append(("2", c.id, ok))
        if not ok:
            kept = [x for x in kept if x is not c]
            removed.append(c.id)
    out = KnowledgeBase(
        f"{kb1c.name}+{kb2c.name}", variables, tuple(kept), context=None
    )
    ids = (tuple(decontextualized), tuple(kept_contextualized), tuple(removed))
    return out, ids, checks


def raw_synthesized_pairs():
    """Synthesized pairs at n = 30 and 60, two orders each, not yet guarded."""
    for n in (30, 60):
        kb1, kb2 = synthesize_pair(SynthConfig(n_constraints=n, context_share=0.3, seed=n))
        for order in range(2):
            rng = random.Random(order)
            yield _shuffled(kb1, rng), _shuffled(kb2, rng)


def synthesized_pairs():
    """The pairs of ``raw_synthesized_pairs``, contextualized."""
    for kb1, kb2 in raw_synthesized_pairs():
        yield (
            contextualize(kb1, CTX_VAR, CTX_VALUES[0]),
            contextualize(kb2, CTX_VAR, CTX_VALUES[1]),
        )


def test_merge_matches_pool_per_check_reference(car_pair):
    pairs = [car_pair, *random_desk_pairs(), *synthesized_pairs()]
    for kb1c, kb2c in pairs:
        merged, report = ckb_merge(kb1c, kb2c)
        want, want_ids, want_checks = reference_merge(kb1c, kb2c)
        assert merged == want
        assert serialize_kb(merged) == serialize_kb(want)
        assert (
            report.decontextualized_ids,
            report.kept_contextualized_ids,
            report.removed_redundant_ids,
        ) == want_ids
        assert settled_checks(report) == predicted_settled(kb1c, kb2c, report)
        # the pinned pools of each check (see explicit_pools) give the
        # verdict of the pseudocode's pool
        assert want_checks == [record[:3] for record in report.checks[2:]]


def explicit_pools(kb1c: KnowledgeBase, kb2c: KnowledgeBase, report):
    """The (phase, id, pinned pools) of every check of a merge, in run order.

    Each pool is a list of formulas: a pin ``ctx = v``, the bare bodies
    that the pin enables and, last, the negated body the check tests (an
    input check has none). Under a pin, a guarded constraint is its body
    if it guards the pinned value and vacuous otherwise, so the pool is the
    pseudocode's pool with the context fixed. The verdicts of ``report``
    decide what each phase adds or removes:

    - an input check pins its source's value over that source's bodies;
    - a phase-1 check of c_i pins the other source's value, over that
      source's bodies alone;
    - a phase-2 check of a kept guarded c_j pins its source's value, over
      the kept bodies that value enables but c_j's;
    - a phase-2 check of a decontextualized c_j has one such pool per value.
    """
    ctx_var = kb1c.context[0]
    renamed = _renamed(kb1c, kb2c)
    n1 = len(kb1c.constraints)
    pins = [Atom(ctx_var, AtomOp.EQ, kb.context[1]) for kb in (kb1c, kb2c)]
    source = [int(i >= n1) for i in range(len(renamed))]
    bodies = [c.formula.right for c in renamed]
    verdicts = iter(r.consistent for r in report.checks)
    checks = []
    for k in (0, 1):
        own = [body for body, s in zip(bodies, source) if s == k]
        checks.append(("input", None, [[pins[k], *own]]))
        next(verdicts)
    enabled = []  # per input, the values whose pins enable its merged body
    for i, c in enumerate(renamed):
        other = 1 - source[i]
        pool = [pins[other], *(body for body, s in zip(bodies, source) if s == other)]
        checks.append(("1", c.id, [pool + [negate(bodies[i])]]))
        enabled.append((source[i],) if next(verdicts) else (0, 1))
    kept = list(range(len(renamed)))
    for j, c in enumerate(renamed):
        pools = [
            [pins[k], *(bodies[x] for x in kept if x != j and k in enabled[x])]
            + [negate(bodies[j])]
            for k in enabled[j]
        ]
        checks.append(("2", c.id, pools))
        if not next(verdicts):
            kept.remove(j)
    return checks


def settled_checks(report) -> set[tuple[str, str]]:
    """The (phase, id) of the checks a merge settled without search."""
    return {
        (r.phase, r.constraint_id)
        for r in report.checks
        if r.nodes == 0 and r.search_ms == 0.0
    }


def holds_twin(pool: list) -> bool:
    """Whether a pinned pool of ``explicit_pools`` holds, besides the
    negated body it ends with, that body itself. Read from the formulas
    alone, with no instance mask."""
    return pool[-1].child in pool[:-1]


def predicted_settled(
    kb1c: KnowledgeBase, kb2c: KnowledgeBase, report
) -> set[tuple[str, str]]:
    """The (phase, id) of every check whose every pinned pool holds a twin
    of the body it negates, from ``explicit_pools``."""
    return {
        (phase, cid)
        for phase, cid, pools in explicit_pools(kb1c, kb2c, report)
        if phase != "input" and all(map(holds_twin, pools))
    }


def fresh_check(variables, phase: str, pools: list) -> tuple[bool, int]:
    """A check's verdict and nodes from a fresh instance per pinned pool:
    phase-1 and phase-2 pools holding a twin are skipped, the others
    searched in turn until one is consistent, their nodes summed."""
    nodes = 0
    for pool in pools:
        if phase == "input" or not holds_twin(pool):
            ok, stats = is_consistent(variables, pool)
            nodes += stats.nodes_explored
            if ok:
                return True, nodes
    return False, nodes


def test_each_merge_check_matches_its_explicit_pool(car_pair):
    # every searched pool searches the tree of a fresh instance over that
    # pool alone; a settled one searches nothing, and a fresh instance finds
    # it inconsistent (the oracle does so on small pairs, below)
    for kb1c, kb2c in [car_pair, *synthesized_pairs()]:
        merged, report = ckb_merge(kb1c, kb2c)
        variables = merged.variables
        checks = explicit_pools(kb1c, kb2c, report)
        assert len(checks) == len(report.checks)
        assert settled_checks(report) == predicted_settled(kb1c, kb2c, report)
        for (phase, cid, pools), record in zip(checks, report.checks):
            assert (phase, cid, *fresh_check(variables, phase, pools)) == (
                record.phase,
                record.constraint_id,
                record.consistent,
                record.nodes,
            )
            for pool in pools:
                if phase != "input" and holds_twin(pool):
                    assert not is_consistent(variables, pool)[0]
        # both kinds of phase-2 check occur: one pin, and a pool per value
        sizes = {len(pools) for phase, _, pools in checks if phase == "2"}
        assert sizes == {1, 2}


def test_a_split_check_is_consistent_iff_one_of_its_pinned_pools_is():
    # a decontextualized constraint's phase-2 pool pins nothing in the
    # pseudocode; the merged context domain is exactly the two values, so
    # that pool is consistent iff the oracle finds a model of one of its two
    # pinned pools
    split = 0
    for kb1c, kb2c in random_desk_pairs():
        merged, report = ckb_merge(kb1c, kb2c)
        _, _, want_checks = reference_merge(kb1c, kb2c)
        checks = explicit_pools(kb1c, kb2c, report)[2:]
        for (phase, cid, pools), want, record in zip(checks, want_checks, report.checks[2:]):
            if len(pools) == 2:
                split += 1
                pinned = any(brute_force_solutions(merged.variables, pool) for pool in pools)
                assert (phase, cid, pinned) == want == record[:3]
    assert split > 40


TWINS_LEFT = """kb "left" {
  context side = L;
  var side : { L };
  var x : { a, b };
  var y : { a, b };
  var z : { a, b };
  constraint p1: x = a -> y = a;
  constraint p2: y = b or z = a;
  constraint p3: y = b or z = a;
}"""

TWINS_RIGHT = """kb "right" {
  context side = R;
  var side : { R };
  var x : { a, b };
  var y : { a, b };
  var z : { a, b };
  constraint q1: x = a -> y = a;
  constraint q2: not (x = a and y = b);
  constraint q3: not (x = a and y = b);
}"""


def _reparsed(kb1c: KnowledgeBase, kb2c: KnowledgeBase):
    """The pair read back from its text: equal bodies, distinct objects."""
    return parse_kb(serialize_kb(kb1c)), parse_kb(serialize_kb(kb2c))


def _twins():
    """The TWINS pair, contextualized."""
    return (
        contextualize(parse_kb(TWINS_LEFT), "side", "L"),
        contextualize(parse_kb(TWINS_RIGHT), "side", "R"),
    )


def test_checks_settled_by_an_equal_constraint_have_inconsistent_pools():
    kb1c, kb2c = _twins()
    # the implication bodies of p1 and q1 are equal, but parsed apart
    assert kb1c.constraints[0].formula.right == kb2c.constraints[0].formula.right
    assert kb1c.constraints[0].formula.right is not kb2c.constraints[0].formula.right
    _, report = ckb_merge(kb1c, kb2c)
    assert settled_checks(report) == {
        ("1", "p1"),  # q1, the other source's, is enforced under the pin
        ("1", "q1"),  # p1, the other source's
        ("2", "p1"),  # q1, decontextualized
        ("2", "p2"),  # p3, the same source's, kept guarded as p2 is
        ("2", "q2"),  # q3, decontextualized
    }
    assert {"p2", "p3"} <= set(report.kept_contextualized_ids)
    pairs = [(kb1c, kb2c), *random_desk_pairs()]
    pairs += [_reparsed(*pair) for pair in pairs]
    total = 0
    for kb1c, kb2c in pairs:
        merged, report = ckb_merge(kb1c, kb2c)
        settled = settled_checks(report)
        # the rule settles exactly the checks whose pool holds the twin ...
        assert settled == predicted_settled(kb1c, kb2c, report)
        # ... and the oracle finds no solution of any such pool
        for phase, cid, pools in explicit_pools(kb1c, kb2c, report):
            if (phase, cid) in settled:
                for pool in pools:
                    assert not brute_force_solutions(merged.variables, pool)
        total += len(settled)
    assert total > len(pairs)


def test_an_input_is_decontextualized_iff_the_other_source_entails_it(car_pair):
    # under the other source's pin the pseudocode's phase-1 pool is that
    # source's bodies alone: the oracle finds no model of them with the pin
    # and the negated body exactly when the input is merged bare
    entailed = 0
    for kb1c, kb2c in [car_pair, _twins(), *random_desk_pairs()]:
        merged, report = ckb_merge(kb1c, kb2c)
        decontextualized = set(report.decontextualized_ids)
        sources = (kb1c, kb2c)
        ids = iter(_merged_ids(kb1c, kb2c))
        for k, kb in enumerate(sources):
            other = sources[1 - k]
            pin = Atom(other.context[0], AtomOp.EQ, other.context[1])
            theory = [pin, *(c.formula.right for c in other.constraints)]
            for c in kb.constraints:
                pool = theory + [negate(c.formula.right)]
                bare = not brute_force_solutions(merged.variables, pool)
                assert (next(ids) in decontextualized) == bare
                entailed += bare
    assert entailed > 40


def _phase1(report) -> dict[str, tuple[bool, bool]]:
    """Each input id's phase-1 verdict and whether it was settled."""
    settled = settled_checks(report)
    return {
        r.constraint_id: (r.consistent, ("1", r.constraint_id) in settled)
        for r in report.checks
        if r.phase == "1"
    }


def test_phase1_verdicts_do_not_depend_on_the_constraint_order():
    # each phase-1 pool is the other source under its pin, in any order: no
    # body merged bare earlier settles a check, so neither of the twins q2
    # and q3 of TWINS settles the other, whichever comes first
    for kb1c, kb2c in [_twins(), *synthesized_pairs(), *random_desk_pairs()]:
        want = _phase1(ckb_merge(kb1c, kb2c)[1])
        for order in range(3):
            rng = random.Random(order)
            _, report = ckb_merge(_shuffled(kb1c, rng), _shuffled(kb2c, rng))
            assert _phase1(report) == want


def test_a_pool_that_refutes_a_one_variable_body_holds_it():
    # the instance keeps a one-variable body as the literals it refutes, so
    # x = a and x != b over {a, b} share a mask: a pool holding either one
    # settles a check that negates the other
    left = 'kb "l" { var x : { a, b }; var y : { a, b }; constraint c1: x = a; }'
    right = 'kb "r" { var x : { a, b }; var y : { a, b }; constraint d1: x != b; }'
    kb1c = contextualize(parse_kb(left), "side", "L")
    kb2c = contextualize(parse_kb(right), "side", "R")
    merged, report = ckb_merge(kb1c, kb2c)
    settled = settled_checks(report)
    assert settled == {("1", "c1"), ("1", "d1"), ("2", "c1")}
    assert reference_merge(kb1c, kb2c)[2] == [r[:3] for r in report.checks[2:]]
    for phase, cid, pools in explicit_pools(kb1c, kb2c, report):
        if (phase, cid) in settled:
            for pool in pools:
                assert not brute_force_solutions(merged.variables, pool)


def test_merge_outputs_reuse_their_inputs(car_pair):
    # an output that keeps its input's id and formula is that input, and a
    # decontextualized one holds its input's body itself
    for kb1c, kb2c in [car_pair, *synthesized_pairs()]:
        merged, report = ckb_merge(kb1c, kb2c)
        by_id = dict(zip(_merged_ids(kb1c, kb2c), kb1c.constraints + kb2c.constraints))
        decontextualized = set(report.decontextualized_ids)
        reused = bodies = 0
        for c in merged.constraints:
            source = by_id[c.id]
            if c.id in decontextualized:
                assert c.formula is source.formula.right
                bodies += 1
            elif c.id == source.id:
                assert c is source
                reused += 1
            else:
                assert c.formula is source.formula
        assert reused and bodies


def test_merges_and_counts_keep_their_pinned_outputs_and_search_trees():
    # the reference merge above runs this engine too, so only constants pin
    # the search tree: a change to a verdict, a node count or an output
    # changes a digest
    merges = hashlib.sha256()
    counts = hashlib.sha256()
    for kb1c, kb2c in synthesized_pairs():
        merged, report = ckb_merge(kb1c, kb2c)
        merges.update(
            repr(
                (
                    serialize_kb(merged),
                    report.decontextualized_ids,
                    report.kept_contextualized_ids,
                    report.removed_redundant_ids,
                    [(r.phase, r.constraint_id, r.consistent, r.nodes) for r in report.checks],
                )
            ).encode()
        )
        result, stats = count_solutions(merged.variables, merged.formulas())
        counts.update(repr((result.count, stats.nodes_explored)).encode())
    assert merges.hexdigest()[:16] == "b7dacd5225e10859"
    assert counts.hexdigest()[:16] == "6f1db5f1128d4bf4"


def test_each_merge_builds_one_solver_instance(kb_us, kb_ger, monkeypatch):
    built = []
    original = solver._Instance.__init__

    def counting_init(self, variables, constraints):
        built.append(len(constraints))
        original(self, variables, constraints)

    monkeypatch.setattr(solver._Instance, "__init__", counting_init)
    twins = (parse_kb(TWINS_LEFT), parse_kb(TWINS_RIGHT))
    sizes = []
    for kb1, kb2 in [(kb_us, kb_ger), twins, *raw_synthesized_pairs()]:
        built.clear()
        # a whole merge op, from the raw sources: contextualize searches
        # nothing, so the merge's instance is the op's only one
        kb1c = contextualize(kb1, kb1.context[0], kb1.context[1])
        kb2c = contextualize(kb2, kb2.context[0], kb2.context[1])
        ckb_merge(kb1c, kb2c)
        # each distinct body once, with its negation, and a pin per source;
        # no guard is built
        d = len({c.formula.right for c in kb1c.constraints + kb2c.constraints})
        assert built == [2 * d + 2]
        sizes.append((len(kb1.constraints) + len(kb2.constraints), d))
    # equal bodies parsed apart share one slot: the electro body of c2us and
    # c2ger, and the bodies of p1/q1, p2/p3 and q2/q3
    assert sizes[:2] == [(6, 5), (6, 3)]


def test_a_merge_evaluates_no_constraint_and_takes_a_bit_per_body(kb_us, kb_ger, monkeypatch):
    # bodies are requires/excludes clauses and atoms, their negations
    # cubes: the root settles every cube, and every clause filters with its
    # constant, so no constraint is ever evaluated
    built = []
    original = solver._Instance.__init__

    def keeping_init(self, variables, constraints):
        built.append(self)
        original(self, variables, constraints)

    calls = []
    allowed = solver._allowed

    def counted(*args):
        calls.append(args)
        return allowed(*args)

    monkeypatch.setattr(solver._Instance, "__init__", keeping_init)
    monkeypatch.setattr(solver, "_allowed", counted)
    raw = synthesize_pair(SynthConfig(n_constraints=100, context_share=0.3, seed=1))
    for kb1, kb2 in [raw, (kb_us, kb_ger)]:
        built.clear()
        kb1c = contextualize(kb1, kb1.context[0], kb1.context[1])
        kb2c = contextualize(kb2, kb2.context[0], kb2.context[1])
        merged, _ = ckb_merge(kb1c, kb2c)
        assert calls == []
        (inst,) = built
        # one bit per distinct body over two variables; a body over one
        # variable, every negation and both pins are cubes and take none
        bodies = {c.formula.right for c in kb1c.constraints + kb2c.constraints}
        wide = [f for f in bodies if not isinstance(f, Atom)]
        assert len(inst.records) == len(wide)
        assert all(ok is not None for _, _, _, _, ok, _, _ in inst.records)
    # the electro body of c2us and c2ger, c3us and c3ger
    assert len(wide) == 3
    assert serialize_kb(merged) == (FIXTURES / "car_merged.kb").read_text(encoding="utf-8")


def test_merge_report_solver_work_is_deterministic(car_pair):
    _, first = ckb_merge(*car_pair)
    _, second = ckb_merge(*car_pair)
    assert first.nodes_phase1 == second.nodes_phase1 > 0
    assert first.nodes_phase2 == second.nodes_phase2 > 0
    assert first.build_ms >= 0


def test_check_records_sum_to_the_phase_totals(car_pair):
    for kb1c, kb2c in [car_pair, *synthesized_pairs()]:
        merged, report = ckb_merge(kb1c, kb2c)
        phases = [record.phase for record in report.checks]
        n = report.checks_phase1
        assert phases == ["input"] * 2 + ["1"] * n + ["2"] * report.checks_phase2
        for phase, checks, nodes in (
            ("1", report.checks_phase1, report.nodes_phase1),
            ("2", report.checks_phase2, report.nodes_phase2),
        ):
            records = [r for r in report.checks if r.phase == phase]
            assert len(records) == checks
            assert sum(r.nodes for r in records) == nodes
            assert all(r.search_ms >= 0 for r in records)
        assert all(r.consistent and r.constraint_id is None for r in report.checks[:2])
        phase1 = report.checks[2 : 2 + n]
        # an unsatisfiable check is what drops a guard or a constraint
        assert tuple(r.constraint_id for r in phase1 if not r.consistent) == (
            report.decontextualized_ids
        )
        phase2 = report.checks[2 + n :]
        assert tuple(r.constraint_id for r in phase2 if not r.consistent) == (
            report.removed_redundant_ids
        )
        assert len(merged.constraints) == n - len(report.removed_redundant_ids)
