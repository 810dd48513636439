import itertools
import random
import string
import sys
from math import prod

import pytest
from hypothesis import given, settings

from conftest import (
    STRATEGY_VARS,
    formula_strategy,
    partial_assignment_strategy,
    random_formula,
    random_instance,
)
from kbmerge import (
    And,
    Atom,
    AtomOp,
    CountResult,
    Implies,
    Not,
    Or,
    SpaceTooLargeError,
    SynthConfig,
    ValidationError,
    Variable,
    align,
    brute_force_solutions,
    ckb_merge,
    contextualize,
    count_solutions,
    enumerate_solutions,
    evaluate,
    is_consistent,
    negate,
    synthesize_pair,
)
from kbmerge import solver
from kbmerge.model import validate_formula
from kbmerge.solver import (
    _compile,
    _depths,
    _Instance,
    _literal_offsets,
    _Memo,
    _refute,
    _search,
)
from kbmerge.synth import CTX_VALUES, CTX_VAR
from kleene import Tri, free_vars, partial_eval

STRATEGY_DOMAINS = [v.domain for v in STRATEGY_VARS]
STRATEGY_OFFSETS = _literal_offsets(STRATEGY_DOMAINS)

ELECTRO_NEEDS_NO_COUPLING = Implies(
    Atom("fuel", AtomOp.EQ, "electro"), Atom("couplingdev", AtomOp.EQ, "no")
)


# --- partial evaluation ------------------------------------------------------


def test_partial_eval_decided_atom():
    f = Atom("fuel", AtomOp.NEQ, "hybrid")
    assert partial_eval(f, {"fuel": "gas"}) is Tri.TRUE


def test_partial_eval_false_antecedent_forces_truth():
    assert (
        partial_eval(ELECTRO_NEEDS_NO_COUPLING, {"fuel": "diesel"}) is Tri.TRUE
    )


def test_partial_eval_undecided_implication():
    assert (
        partial_eval(ELECTRO_NEEDS_NO_COUPLING, {"couplingdev": "yes"})
        is Tri.UNKNOWN
    )


def _completions(f, partial):
    table = {v.name: v.domain for v in STRATEGY_VARS}
    missing = sorted(free_vars(f) - partial.keys())
    for combo in itertools.product(*(table[name] for name in missing)):
        total = dict(partial)
        total.update(zip(missing, combo))
        yield total


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=formula_strategy, partial=partial_assignment_strategy)
def test_partial_eval_is_sound(f, partial):
    verdict = partial_eval(f, partial)
    if verdict is Tri.UNKNOWN:
        return
    want = verdict is Tri.TRUE
    assert all(evaluate(f, total) == want for total in _completions(f, partial))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=formula_strategy)
def test_compiled_evaluator_agrees_with_evaluate(f):
    # the search calls a closure only on a complete scope, so it is checked
    # on every total assignment; a closure's operands must give exact bools
    index = {v.name: i for i, v in enumerate(STRATEGY_VARS)}
    ev = _compile(f, index, STRATEGY_DOMAINS, STRATEGY_OFFSETS)[0]
    for slots in itertools.product(*STRATEGY_DOMAINS):
        assert ev(list(slots)) is evaluate(f, dict(zip(index, slots)))


def _literal_set(bits, variables):
    """The literals ``(name, value)`` in ``bits``, numbered variable by variable."""
    literals = [(v.name, value) for v in variables for value in v.domain]
    return {literal for k, literal in enumerate(literals) if bits >> k & 1}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=formula_strategy)
def test_refuted_literals_are_those_that_falsify_alone(f):
    index = {v.name: i for i, v in enumerate(STRATEGY_VARS)}
    _, _, true_bits, false_bits, _ = _compile(f, index, STRATEGY_DOMAINS, STRATEGY_OFFSETS)
    forced_true = _literal_set(true_bits, STRATEGY_VARS)
    refuted = _literal_set(false_bits, STRATEGY_VARS)
    for v in STRATEGY_VARS:
        for value in v.domain:
            verdict = partial_eval(f, {v.name: value})
            assert ((v.name, value) in refuted) == (verdict is Tri.FALSE)
            assert ((v.name, value) in forced_true) == (verdict is Tri.TRUE)


def _product(variables, keep):
    """The assignments over ``variables`` whose every literal ``keep`` holds."""
    names = [v.name for v in variables]
    values = [[value for value in v.domain if keep((v.name, value))] for v in variables]
    return {frozenset(zip(names, combo)) for combo in itertools.product(*values)}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=formula_strategy)
def test_a_shape_is_exact_on_the_oracle(f):
    # a cube's solutions are the literals it does not refute, a clause's
    # falsifying assignments the literals that do not force it true
    index = {v.name: i for i, v in enumerate(STRATEGY_VARS)}
    _, _, true_bits, false_bits, shape = _compile(f, index, STRATEGY_DOMAINS, STRATEGY_OFFSETS)
    solutions = brute_force_solutions(STRATEGY_VARS, [f])
    if shape & solver._CUBE:
        refuted = _literal_set(false_bits, STRATEGY_VARS)
        assert solutions == _product(STRATEGY_VARS, lambda lit: lit not in refuted)
    if shape & solver._CLAUSE:
        forced_true = _literal_set(true_bits, STRATEGY_VARS)
        falsifying = _product(STRATEGY_VARS, lambda lit: True) - solutions
        assert falsifying == _product(STRATEGY_VARS, lambda lit: lit not in forced_true)


def test_no_solution_holds_a_refuted_literal():
    rng = random.Random(1977)
    refuted_total = narrow_total = 0
    for _ in range(200):
        variables, formulas = random_instance(rng)
        inst = _Instance(variables, formulas)
        solutions = brute_force_solutions(variables, formulas)
        m = len(inst.scopes)
        # constraints over two or more variables that are no cube carry m
        # distinct single low bits, covering (1 << m) - 1; the others,
        # cubes and constraints over one variable, carry none
        low = [mask & ((1 << m) - 1) for mask in inst.masks]
        index = {v.name: i for i, v in enumerate(variables)}
        offsets = _literal_offsets(inst.domains)
        shapes = [_compile(f, index, inst.domains, offsets)[4] for f in formulas]
        wide = [
            len(free_vars(f)) > 1 and not shape & solver._CUBE
            for f, shape in zip(formulas, shapes)
        ]
        assert sorted(bits for bits, w in zip(low, wide) if w) == [1 << k for k in range(m)]
        assert not any(bits for bits, w in zip(low, wide) if not w)
        narrow_total += wide.count(False)
        for mask in inst.masks:
            refuted = _literal_set(mask >> m, variables)
            refuted_total += len(refuted)
            assert not any(refuted & s for s in solutions), (variables, formulas)
    assert refuted_total > 100
    assert narrow_total > 100


# --- consistency -------------------------------------------------------------


def test_us_kb_is_consistent(kb_us):
    ok, stats = is_consistent(kb_us.variables, kb_us.formulas())
    assert ok is True
    assert stats.nodes_explored >= 0
    assert stats.elapsed_ms >= 0


def test_direct_contradiction_is_inconsistent():
    variables = (Variable("x", ("a",)),)
    formulas = [Atom("x", AtomOp.EQ, "a"), Atom("x", AtomOp.NEQ, "a")]
    ok, _ = is_consistent(variables, formulas)
    assert not ok


def test_negated_shared_constraint_conflicts_with_union(kb_union):
    # the electro constraint holds in both contexts, so its negation
    # cannot be satisfied anywhere in the contextualized union
    formulas = kb_union.formulas() + [negate(ELECTRO_NEEDS_NO_COUPLING)]
    ok, _ = is_consistent(kb_union.variables, formulas)
    assert not ok


def test_consistency_node_counts_are_pinned(car_pair):
    # Merge reports and the benchmark read these counts; a change to the
    # search core must leave the consistency search tree as it is. The phase
    # totals sum only the searched checks: a check that an equal constraint
    # in its pool settles adds no node.
    _, report = ckb_merge(*car_pair)
    assert (report.nodes_phase1, report.nodes_phase2) == (21, 23)
    pinned = {
        (20, 1): ((9, 9), (57, 119)),
        (50, 2): ((10, 10), (163, 314)),
        (100, 3): ((9, 10), (232, 492)),
    }
    for (n, seed), (sources, phases) in pinned.items():
        kb1, kb2 = synthesize_pair(
            SynthConfig(n_constraints=n, context_share=0.3, seed=seed)
        )
        got = tuple(
            is_consistent(kb.variables, kb.formulas())[1].nodes_explored
            for kb in (kb1, kb2)
        )
        assert got == sources
        _, report = ckb_merge(
            contextualize(kb1, CTX_VAR, CTX_VALUES[0]),
            contextualize(kb2, CTX_VAR, CTX_VALUES[1]),
        )
        assert (report.nodes_phase1, report.nodes_phase2) == phases


def test_is_consistent_validates_variables():
    with pytest.raises(ValidationError):
        is_consistent((Variable("x", ("a",)),), [Atom("y", AtomOp.EQ, "a")])


class SubAnd(And):
    """A subclass of a connective: none of the five node types, so no
    formula node."""


BAD_VARIABLES = (Variable("x", ("a", "b")), Variable("z", ("a",)))
SUB_AND = SubAnd(Atom("x", AtomOp.EQ, "a"), Atom("z", AtomOp.EQ, "a"))


def _solver_calls(variables, formulas):
    return [
        lambda: is_consistent(variables, formulas),
        lambda: count_solutions(variables, formulas),
        lambda: enumerate_solutions(variables, formulas, 1),
    ]


@pytest.mark.parametrize(
    "bad, raw",
    [
        (Atom("y", AtomOp.EQ, "a"), KeyError),
        (Atom("x", AtomOp.NEQ, "q"), ValueError),
        (Atom(["x"], AtomOp.EQ, "a"), TypeError),
        (Atom("x", "!=", "a"), TypeError),
        (SUB_AND, KeyError),
    ],
    ids=["undeclared-variable", "out-of-domain-value", "unhashable-variable", "str-op",
         "connective-subclass"],
)
def test_solver_entry_points_reject_bad_atoms_like_validate_formula(bad, raw):
    variables = BAD_VARIABLES
    # the bad node sits below a valid one, in the second constraint
    formulas = [Atom("z", AtomOp.EQ, "a"), Or(Atom("x", AtomOp.EQ, "a"), Not(bad))]
    with pytest.raises(ValidationError) as want:
        validate_formula(formulas[1], {v.name: v for v in variables})
    # _compile meets it in a plain lookup, whose error makes the instance
    # validate its formulas
    domains = [v.domain for v in variables]
    with pytest.raises(raw):
        _compile(formulas[1], {"x": 0, "z": 1}, domains, _literal_offsets(domains))
    for call in _solver_calls(variables, formulas):
        with pytest.raises(ValidationError) as got:
            call()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "formulas, message",
    [
        (
            [Or(Atom("x", AtomOp.NEQ, "q"), Not(Atom("y", AtomOp.EQ, "a")))],
            "value 'q' is not in the domain of 'x'",
        ),
        (
            [Atom("z", AtomOp.EQ, "a"), Implies(SUB_AND, Atom("y", AtomOp.EQ, "a"))],
            f"not a formula node: {SUB_AND!r}",
        ),
        (
            [Not(Atom("y", AtomOp.EQ, "a")), Atom("x", "=", "a")],
            "undeclared variable 'y'",
        ),
    ],
    ids=["one-formula", "below-a-bad-connective", "two-formulas"],
)
def test_solver_entry_points_name_the_first_of_two_bad_nodes(formulas, message):
    for call in _solver_calls(BAD_VARIABLES, formulas):
        with pytest.raises(ValidationError) as got:
            call()
        assert str(got.value) == message


def test_solver_entry_points_reject_a_variable_declared_twice():
    variables = (Variable("x", ("a",)), Variable("y", ("a",)), Variable("x", ("b",)))
    for call in _solver_calls(variables, [Atom("y", AtomOp.EQ, "a")]):
        with pytest.raises(ValidationError, match="^variable 'x' declared twice$"):
            call()


# --- counting ----------------------------------------------------------------


def test_car_counts(kb_us, kb_ger, kb_union):
    assert count_solutions(kb_us.variables, kb_us.formulas())[0].count == 288
    assert count_solutions(kb_ger.variables, kb_ger.formulas())[0].count == 324
    assert (
        count_solutions(kb_union.variables, kb_union.formulas())[0].count == 612
    )


def test_unconstrained_count_is_domain_product(kb_us):
    variables = tuple(v for v in kb_us.variables if v.name != "country")
    result, stats = count_solutions(variables, [])
    assert result.count == 576
    assert not result.capped
    # all constraints decided at the root: the product shortcut fires
    assert stats.nodes_explored == 0


def test_count_cap_is_an_outcome_not_an_error():
    variables = (Variable("x", ("a", "b")), Variable("y", ("a", "b")))
    result, _ = count_solutions(variables, [], cap=3)
    assert result.capped
    assert result.count > 3
    uncapped, _ = count_solutions(variables, [], cap=4)
    assert not uncapped.capped
    assert uncapped.count == 4


def test_count_stats_report_the_count(kb_us):
    result, stats = count_solutions(kb_us.variables, kb_us.formulas())
    assert result == CountResult(288)
    assert stats.nodes_explored > 0


# --- enumeration -------------------------------------------------------------


def test_enumerate_unconstrained():
    variables = (Variable("x", ("a", "b")),)
    assert enumerate_solutions(variables, [], 10) == [{"x": "a"}, {"x": "b"}]


def test_enumerate_empty_when_contradictory():
    variables = (Variable("x", ("a", "b")),)
    formulas = [Atom("x", AtomOp.NEQ, "a"), Atom("x", AtomOp.NEQ, "b")]
    assert enumerate_solutions(variables, formulas, 10) == []


def test_enumerate_respects_declaration_and_domain_order():
    variables = (Variable("x", ("a", "b")), Variable("y", ("c", "d")))
    assert enumerate_solutions(variables, [], 99) == [
        {"x": "a", "y": "c"},
        {"x": "a", "y": "d"},
        {"x": "b", "y": "c"},
        {"x": "b", "y": "d"},
    ]


def test_enumerate_limit_and_zero():
    variables = (Variable("x", ("a", "b")), Variable("y", ("c", "d")))
    assert len(enumerate_solutions(variables, [], 3)) == 3
    assert enumerate_solutions(variables, [], 0) == []


def test_enumerate_accepts_a_limit_above_sys_maxsize(kb_us):
    limit = sys.maxsize + 1
    assert enumerate_solutions(kb_us.variables, kb_us.formulas(), limit) == (
        enumerate_solutions(kb_us.variables, kb_us.formulas(), 288)
    )
    # one cube holds every solution of an unconstrained grid
    variables = (Variable("x", ("a", "b")), Variable("y", ("c", "d")))
    assert len(enumerate_solutions(variables, [], limit)) == 4


def test_enumerate_us_kb_solutions_all_satisfy(kb_us):
    solutions = enumerate_solutions(kb_us.variables, kb_us.formulas(), 288)
    assert len(solutions) == 288
    for s in solutions:
        assert all(evaluate(f, s) for f in kb_us.formulas())


# --- brute-force oracle ------------------------------------------------------


def test_brute_force_us_size(kb_us):
    assert len(brute_force_solutions(kb_us.variables, kb_us.formulas())) == 288


def test_brute_force_overlap_of_car_bodies(kb_us, kb_ger):
    shared = tuple(v for v in kb_us.variables if v.name != "country")
    bodies = kb_us.formulas() + kb_ger.formulas()
    assert len(brute_force_solutions(shared, bodies)) == 126


def test_brute_force_unconstrained():
    variables = (Variable("x", ("a", "b")), Variable("y", ("a", "b", "c")))
    assert len(brute_force_solutions(variables, [])) == 6


def test_brute_force_guard():
    variables = tuple(
        Variable(f"x{i}", ("a", "b", "c", "d")) for i in range(12)
    )
    with pytest.raises(SpaceTooLargeError):
        brute_force_solutions(variables, [])


# --- solver vs oracle --------------------------------------------------------


def test_count_matches_brute_force_on_random_instances():
    rng = random.Random(20240817)
    small = [random_instance(rng) for _ in range(200)]
    # deeper trees, where counting and enumeration backjump over several levels
    large = [
        random_instance(rng, n_vars=(3, 8), n_constraints=(2, 14)) for _ in range(100)
    ]
    for variables, formulas in small + large:
        result, _ = count_solutions(variables, formulas)
        oracle = brute_force_solutions(variables, formulas)
        assert result.count == len(oracle), (variables, formulas)
        if result.count:
            capped, _ = count_solutions(variables, formulas, cap=result.count - 1)
            assert capped == CountResult(result.count, capped=True)
        ok, _ = is_consistent(variables, formulas)
        assert ok == (result.count > 0)
        found = enumerate_solutions(variables, formulas, result.count + 1)
        assert len(found) == result.count
        assert {frozenset(s.items()) for s in found} == oracle


def test_generators_are_answered_as_lists_are():
    # each argument is read once: a generator read twice once counted 1
    # solution of two free variables, and accepted every assignment under x = a
    x, y = Variable("x", ("a", "b")), Variable("y", ("a", "b"))
    x_is_a = Atom("x", AtomOp.EQ, "a")
    assert count_solutions((v for v in (x, y)), [])[0] == CountResult(4, capped=False)
    assert len(brute_force_solutions([x, y], (f for f in [x_is_a]))) == 2

    def answers(make):
        """Every entry point's answer, each handed a fresh pair from ``make``."""
        ok, check = is_consistent(*make())
        count, stats = count_solutions(*make())
        found = enumerate_solutions(*make(), 100)
        oracle = brute_force_solutions(*make())
        return ok, check.nodes_explored, count, stats.nodes_explored, found, oracle

    rng = random.Random(20261021)
    cases = [((x, y), []), ((x, y), [x_is_a])] + [random_instance(rng) for _ in range(60)]
    for variables, formulas in cases:
        as_lists = answers(lambda: (list(variables), list(formulas)))
        assert answers(lambda: (iter(variables), iter(formulas))) == as_lists, (variables, formulas)


def random_shaped(rng, variables, kind, depth=3):
    """A formula over ``variables`` that the shape rules make a cube
    (``kind`` is ``_CUBE``) or a clause (``_CLAUSE``)."""
    if depth == 0 or rng.random() < 0.3:
        # a formula over one variable is both
        return random_formula(rng, [rng.choice(variables)], 2)
    if rng.random() < 0.3:
        return Not(random_shaped(rng, variables, solver._CUBE + solver._CLAUSE - kind, depth - 1))
    if kind == solver._CUBE:
        return And(*(random_shaped(rng, variables, kind, depth - 1) for _ in range(2)))
    if rng.random() < 0.5:
        return Or(*(random_shaped(rng, variables, kind, depth - 1) for _ in range(2)))
    return Implies(
        random_shaped(rng, variables, solver._CUBE, depth - 1),
        random_shaped(rng, variables, kind, depth - 1),
    )


def test_cubes_clauses_and_other_formulas_together_match_brute_force():
    rng = random.Random(1977)
    held = {"bitless": 0, "constant": 0, "memo": 0}
    for _ in range(300):
        variables, formulas = random_instance(rng, n_constraints=(0, 3))
        index = {v.name: i for i, v in enumerate(variables)}
        domains = [v.domain for v in variables]
        offsets = _literal_offsets(domains)
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice((solver._CUBE, solver._CLAUSE))
            f = random_shaped(rng, variables, kind)
            assert _compile(f, index, domains, offsets)[4] & kind, f
            formulas.append(f)
        rng.shuffle(formulas)
        inst = _Instance(variables, formulas)
        low = (1 << len(inst.scopes)) - 1
        held["bitless"] += sum(
            len(free_vars(f)) > 1 and not mask & low for f, mask in zip(formulas, inst.masks)
        )
        for ok in inst.constants:
            held["memo" if ok is None else "constant"] += 1
        oracle = brute_force_solutions(variables, formulas)
        assert inst.check()[0] == bool(oracle), (variables, formulas)
        assert count_solutions(variables, formulas)[0] == CountResult(len(oracle))
        if oracle:
            cap = rng.randrange(len(oracle))
            capped, _ = count_solutions(variables, formulas, cap)
            assert capped.capped and cap < capped.count <= len(oracle), (variables, formulas)
        found = enumerate_solutions(variables, formulas, len(oracle) + 1)
        assert found == lexicographic(variables, oracle), (variables, formulas)
    # every kind of constraint is met many times
    assert min(held.values()) > 100, held


def grouped_instance(rng):
    """Disjoint variable groups that repeat one random sub-structure.

    Each group is a copy of the same formulas over its own variables, the
    declaration order interleaves the groups, and an optional hub variable
    guards one more formula per group, so the groups split apart only once
    the hub is assigned.
    """
    values = tuple(string.ascii_lowercase[: rng.randint(2, 3)])
    width = rng.randint(1, 3)
    groups = [
        [Variable(f"g{g}_{i}", values) for i in range(width)]
        for g in range(rng.randint(2, 6 // width + 1))
    ]
    template = rng.randrange(1 << 30)
    formulas = []
    for group in groups:
        copy = random.Random(template)
        formulas += [random_formula(copy, group, 2) for _ in range(copy.randint(1, 3))]
    variables = [v for group in groups for v in group]
    rng.shuffle(variables)
    if rng.random() < 0.5:
        hub = Variable("hub", values)
        variables.insert(0, hub)
        for group in groups:
            guard = Atom("hub", AtomOp.EQ, rng.choice(values))
            formulas.append(Implies(guard, random_formula(rng, group, 2)))
    return tuple(variables), formulas


def test_count_matches_brute_force_on_grouped_instances():
    rng = random.Random(4242)
    for _ in range(150):
        variables, formulas = grouped_instance(rng)
        want = len(brute_force_solutions(variables, formulas))
        result, _ = count_solutions(variables, formulas)
        assert result == CountResult(want), (variables, formulas)
        if want:
            # stopped early, the count is a lower bound above the cap
            capped, _ = count_solutions(variables, formulas, cap=0)
            assert capped.capped and 0 < capped.count <= want
            capped, _ = count_solutions(variables, formulas, cap=want - 1)
            assert capped == CountResult(want, capped=True)
        exact, _ = count_solutions(variables, formulas, cap=want)
        assert exact == CountResult(want)


def test_count_decomposes_into_components():
    group = [Variable("x", ("a", "b", "c")), Variable("y", ("a", "b", "c"))]
    distinct = Not(Implies(Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.EQ, "a")))
    one, one_stats = count_solutions(group, [distinct])
    copies = [Variable(f"{v.name}{k}", v.domain) for k in range(3) for v in group]
    formulas = [
        Not(Implies(Atom(f"x{k}", AtomOp.EQ, "a"), Atom(f"y{k}", AtomOp.EQ, "a")))
        for k in range(3)
    ]
    three, three_stats = count_solutions(copies, formulas)
    assert three.count == one.count**3
    # independent copies are counted one after another, not nested
    assert three_stats.nodes_explored == 3 * one_stats.nodes_explored


def test_count_reuses_a_component_met_again():
    variables = [Variable(name, ("a", "b")) for name in "pqxy"]
    formulas = [
        Implies(Atom("p", AtomOp.EQ, "a"), Atom("q", AtomOp.EQ, "a")),
        Implies(
            Atom("q", AtomOp.EQ, "a"),
            And(Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.EQ, "b")),
        ),
    ]
    result, stats = count_solutions(variables, formulas)
    assert result.count == len(brute_force_solutions(variables, formulas)) == 6
    # p = a: 1 binding, whose filter leaves q = a: 1 binding, then x 2
    # bindings (x = a filters y to b, x = b falsifies the second formula).
    # p = b: 1 binding, then q 2 bindings, and under q = a the component
    # {x, y} of the second formula is the one counted under p = a
    assert stats.nodes_explored == 1 + 1 + 2 + 1 + 2


def test_count_nodes_of_a_merged_pair_are_pinned():
    # per-solution enumeration took 446,914 nodes here; a count far above
    # the pin means counting no longer decomposes
    kb1, kb2 = synthesize_pair(SynthConfig(n_constraints=50, context_share=0.3, seed=2))
    merged, _ = ckb_merge(
        contextualize(kb1, CTX_VAR, CTX_VALUES[0]),
        contextualize(kb2, CTX_VAR, CTX_VALUES[1]),
    )
    result, stats = count_solutions(merged.variables, merged.formulas())
    assert result.count == 305091
    assert stats.nodes_explored == 779


def test_count_of_a_wide_kb_does_not_recurse_per_variable():
    variables = [Variable(f"x{i}", ("a", "b")) for i in range(1500)]
    result, stats = count_solutions(variables, [Atom("x1499", AtomOp.EQ, "a")])
    assert result == CountResult(2**1499)
    # the root settles the constraint over one variable
    assert stats.nodes_explored == 0


def test_count_of_a_long_chain_does_not_recurse_per_variable():
    # one component as deep as the variables; the counter keeps its frames
    # on an explicit stack
    variables = [Variable(f"x{i}", ("a", "b")) for i in range(1500)]
    formulas = [
        Implies(Atom(f"x{i}", AtomOp.EQ, "a"), Atom(f"x{i + 1}", AtomOp.EQ, "a"))
        for i in range(1499)
    ]
    assert count_solutions(variables, formulas)[0] == CountResult(1501)


def test_solver_is_deterministic():
    rng = random.Random(7)
    variables, formulas = random_instance(rng)
    first = (
        is_consistent(variables, formulas)[1].nodes_explored,
        count_solutions(variables, formulas)[1].nodes_explored,
        enumerate_solutions(variables, formulas, 50),
    )
    second = (
        is_consistent(variables, formulas)[1].nodes_explored,
        count_solutions(variables, formulas)[1].nodes_explored,
        enumerate_solutions(variables, formulas, 50),
    )
    assert first == second


# --- forward checking and the filter memo ------------------------------------


def fc_instance(rng):
    """A small CSP whose constraints span 3 or more variables and repeat
    atoms on their deepest variable.

    Domains have 1-4 values, so singleton domains occur. The repeated
    atoms form ``x = v or x != v``, ``not (x = v and x != v)`` or
    ``x = v and x != v``: Kleene evaluation leaves the first two
    undecided until ``x`` is assigned, although they allow every value.
    """
    variables = tuple(
        Variable(f"x{i + 1}", tuple(string.ascii_lowercase[: rng.randint(1, 4)]))
        for i in range(rng.randint(3, 6))
    )
    formulas = []
    for _ in range(rng.randint(1, 6)):
        scope = sorted(rng.sample(range(len(variables)), rng.randint(3, len(variables))))
        chosen = [variables[i] for i in scope]
        f = random_formula(rng, chosen, 2)
        for v in chosen:
            op = rng.choice((AtomOp.EQ, AtomOp.NEQ))
            f = rng.choice((And, Or, Implies))(f, Atom(v.name, op, rng.choice(v.domain)))
        deep = chosen[-1]
        value = rng.choice(deep.domain)
        eq = Atom(deep.name, AtomOp.EQ, value)
        neq = Atom(deep.name, AtomOp.NEQ, value)
        kind = rng.randrange(4)
        if kind == 0:
            f = And(f, Or(eq, neq))
        elif kind == 1:
            f = Implies(Not(And(eq, neq)), f)
        elif kind == 2:
            f = Or(f, And(eq, neq))
        formulas.append(f)
    if rng.random() < 0.3:
        # a constraint over one variable, filtered before the search
        v = rng.choice(variables)
        eq = Atom(v.name, AtomOp.EQ, rng.choice(v.domain))
        formulas.append(Or(eq, Atom(v.name, AtomOp.NEQ, eq.value)))
    return variables, formulas


def test_root_refutation_cuts_each_variables_own_literals():
    rng = random.Random(1977)
    outcomes = set()
    for _ in range(300):
        variables, formulas = fc_instance(rng)
        inst = _Instance(variables, formulas)
        offsets = inst.offsets
        density = rng.uniform(0.05, 0.6)
        refuted = sum(
            1 << k for k in range(offsets[-1]) if rng.random() < density
        )
        want = [
            full & ~(refuted >> offsets[d]) for d, full in enumerate(inst.full)
        ]
        live = inst.full[:]
        ok = _refute(live, offsets, refuted)
        assert ok == all(want), (variables, refuted)
        # it stops at the first emptied domain, having cut every one before it
        stop = len(want) if ok else want.index(0)
        assert live[:stop] == want[:stop], (variables, refuted)
        outcomes.add(ok)
    assert outcomes == {True, False}


def lexicographic(variables, solutions):
    """Oracle solutions in declaration order, values in domain order."""
    rank = [{value: j for j, value in enumerate(v.domain)} for v in variables]
    return sorted(
        (dict(s) for s in solutions),
        key=lambda s: [r[s[v.name]] for v, r in zip(variables, rank)],
    )


def cube_sizes(inst):
    """The sizes of all cubes a full search over ``inst`` meets, summed."""
    total = 0

    def on_cube(assignment, live, depth):
        nonlocal total
        total += prod(live[d].bit_count() for d in range(depth, len(live)))
        return False

    _search(inst, on_cube=on_cube)
    return total


def test_forward_checking_matches_brute_force():
    rng = random.Random(1993)
    filtered = 0
    for _ in range(300):
        variables, formulas = fc_instance(rng)
        oracle = brute_force_solutions(variables, formulas)
        inst = _Instance(variables, formulas)
        ok, _, _ = inst.check()
        assert ok == bool(oracle), (variables, formulas)
        # the cubes of live domains the search meets add up to the solutions
        assert cube_sizes(inst) == len(oracle), (variables, formulas)
        assert count_solutions(variables, formulas)[0] == CountResult(len(oracle))
        found = enumerate_solutions(variables, formulas, len(oracle) + 1)
        assert found == lexicographic(variables, oracle), (variables, formulas)
        filtered += memo_entries(inst)
    assert filtered > 300


def active_mask(inst, indices):
    """The int that hands ``inst.check`` the constraints at ``indices``."""
    active = 0
    for ci in indices:
        active |= inst.masks[ci]
    return active


def test_tautology_on_the_deepest_variable_filters_nothing():
    variables = (
        Variable("x", ("a", "b")),
        Variable("y", ("a", "b", "c")),
        Variable("z", ("a", "b", "c", "d")),
    )

    def z(op, value):
        return Atom("z", op, value)

    formulas = [
        Implies(Atom("x", AtomOp.EQ, "a"), Or(z(AtomOp.EQ, "b"), z(AtomOp.NEQ, "b"))),
        Or(Atom("y", AtomOp.EQ, "c"), Not(And(z(AtomOp.EQ, "a"), z(AtomOp.NEQ, "a")))),
    ]
    inst = _Instance(variables, formulas)
    # every value of x and y is tried once; each is a cube over all of z
    assert _search(inst, on_cube=lambda *_: False) == (6, 8)
    assert cube_sizes(inst) == 24
    # x = a leaves the first constraint, a clause, undecided, and its
    # constant filter keeps all of z's values
    assert inst.deeps[0] == 2
    assert inst.constants[0] == 0b1111
    assert inst.memos[0] is None


def memo_entries(inst):
    """The number of filters that ``inst`` has memoised."""
    return sum(len(memo) for memo in inst.memos if memo is not None)


def test_full_searches_and_their_memos_are_pinned():
    # every cube of every search, so each level below a cube backtracks
    # chronologically, and the filters those searches memoise
    rng = random.Random(2001)
    cubes = nodes = entries = 0
    for make in (fc_instance, random_instance):
        for _ in range(300):
            variables, formulas = make(rng)
            inst = _Instance(variables, formulas)
            found, tried = _search(inst, on_cube=lambda *_: False)
            cubes += found
            nodes += tried
            entries += memo_entries(inst)
    assert (cubes, nodes, entries) == (3997, 9788, 6620)


def test_a_warm_filter_memo_explores_the_nodes_of_a_cold_one():
    rng = random.Random(5)
    reused = 0
    for _ in range(100):
        variables, formulas = fc_instance(rng)
        pool_formulas = formulas + [negate(f) for f in formulas]
        inst = _Instance(variables, pool_formulas)
        # one negation and every constraint, in a random order
        pool = [len(formulas) + rng.randrange(len(formulas)), *range(len(formulas))]
        rng.shuffle(pool)
        cold_ok, cold_nodes, _ = inst.check(active_mask(inst, pool))
        entries = memo_entries(inst)
        warm_ok, warm_nodes, _ = inst.check(active_mask(inst, pool))
        fresh_ok, fresh_nodes, _ = _Instance(variables, [pool_formulas[ci] for ci in pool]).check()
        assert cold_ok == warm_ok == fresh_ok
        assert cold_nodes == warm_nodes == fresh_nodes
        # the warm check computed no filter the cold one had not
        assert memo_entries(inst) == entries
        reused += entries
    assert reused > 0


def test_a_warm_check_evaluates_no_constraint():
    kb1, kb2 = synthesize_pair(SynthConfig(n_constraints=30, context_share=0.3, seed=4))
    kb1c = contextualize(kb1, CTX_VAR, CTX_VALUES[0])
    kb2c = contextualize(kb2, CTX_VAR, CTX_VALUES[1])
    guarded = [c.formula for c in kb1c.constraints + kb2c.constraints]
    variables = align(kb1c, kb2c, CTX_VAR)
    # the guarded constraints are clauses, which filter with a constant; a
    # disjunction of two cubes over two variables each has no shape, so
    # its filters are evaluated
    rng = random.Random(4)
    pairs = []
    for _ in range(8):
        w, x, y, z = (
            Atom(v.name, AtomOp.NEQ, rng.choice(v.domain))
            for v in rng.sample(variables[1:], 4)
        )
        pairs.append(Or(And(w, x), And(y, z)))
    inst = _Instance(variables, guarded + pairs + [negate(f) for f in guarded])
    assert max(scope.bit_count() for scope in inst.scopes) == 4
    calls = [0]

    def counted(ev):
        def wrapper(a):
            calls[0] += 1
            return ev(a)

        return wrapper

    for memo in inst.memos:
        if memo is not None:
            memo.ev = counted(memo.ev)
    # every guarded constraint and every disjunction
    pool = range(len(guarded) + len(pairs))
    cold_ok, cold_nodes, _ = inst.check(active_mask(inst, pool))
    assert cold_ok
    assert calls[0] > 0
    calls[0] = 0
    warm_ok, warm_nodes, _ = inst.check(active_mask(inst, pool))
    assert (cold_ok, cold_nodes) == (warm_ok, warm_nodes)
    assert warm_nodes > 0
    # literals decide the constraints they force true, and every filter is
    # a clause's constant or comes from the memo with its verdict
    assert calls[0] == 0


def test_a_literal_decides_what_it_forces_true_below_the_shallowest_variable():
    variables = tuple(Variable(name, ("a", "b")) for name in "gxy")
    guarded = Implies(
        Atom("g", AtomOp.EQ, "a"),
        Implies(Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.NEQ, "b")),
    )
    inst = _Instance(variables, [guarded, Atom("g", AtomOp.EQ, "a"), Atom("y", AtomOp.EQ, "b")])
    seen = []
    rank = (inst.masks[0] & -inst.masks[0]).bit_length() - 1
    # a clause: it allows y the values it forces true there, y != b
    assert inst.deeps[rank] == 2
    assert inst.constants[rank] == 0b01
    assert inst.memos[rank] is None
    index = {name: i for i, name in enumerate(inst.names)}
    ev = _compile(guarded, index, inst.domains, inst.offsets)[0]

    def wrapper(a):
        seen.append(tuple(a))
        return ev(a)

    # the constant swapped for a memo of the closure, so that each filter
    # the search looks at is computed and recorded
    memo = _Memo(wrapper, (0, 1), 2, inst.domains[2], [None] * 3)
    inst.constants[rank] = None
    inst.memos[rank] = memo
    ok, nodes, _ = inst.check()
    # g = a; x = a empties y's domain; x = b leaves a cube
    assert ok
    assert nodes == 3
    # x = b forces the constraint true, so its filter of y is never computed
    assert memo == {("a", "a"): 0b01}
    assert seen and all(a[1] != "b" for a in seen)


def test_a_constraint_is_evaluated_only_on_a_complete_scope(monkeypatch):
    # compiled closures are two-valued, so every call must find a value in
    # each slot of its constraint's scope
    calls = []
    early = []

    def watched(ev, mask):
        scope = [d for d in range(mask.bit_length()) if mask >> d & 1]

        def wrapper(a):
            calls.append(1)
            if any(a[d] is None for d in scope):
                early.append(tuple(a))
            return ev(a)

        return wrapper

    class Watched(_Instance):
        def __init__(self, variables, constraints):
            super().__init__(variables, constraints)
            for memo, scope in zip(self.memos, self.scopes):
                if memo is not None:
                    memo.ev = watched(memo.ev, scope)

    monkeypatch.setattr(solver, "_Instance", Watched)
    rng = random.Random(1993)
    for make in (fc_instance, random_instance):
        for _ in range(150):
            variables, formulas = make(rng)
            pool_formulas = formulas + [negate(f) for f in formulas]
            inst = Watched(variables, pool_formulas)
            for _ in range(2):
                pool = rng.sample(range(len(pool_formulas)), rng.randint(0, len(pool_formulas)))
                inst.check(active_mask(inst, pool))
            is_consistent(variables, formulas)
            count = count_solutions(variables, formulas)[0].count
            count_solutions(variables, formulas, count // 2)
            enumerate_solutions(variables, formulas, 20)
            assert not early, (variables, formulas, early[0])
    assert len(calls) > 1000


class ClosuresOnly(_Instance):
    """An instance whose clauses filter with their memoised closures, as
    constraints with no shape do, instead of with their constants."""

    def __init__(self, variables, constraints):
        super().__init__(variables, constraints)
        index = {name: i for i, name in enumerate(self.names)}
        low = (1 << len(self.scopes)) - 1
        scratch = [None] * len(self.domains)
        for f, own in zip(constraints, self.masks):
            b = (own & low).bit_length() - 1
            if b >= 0 and self.constants[b] is not None:
                self.constants[b] = None
                ev = _compile(f, index, self.domains, self.offsets)[0]
                deep = self.deeps[b]
                rest = _depths(self.rests[b])
                self.memos[b] = _Memo(ev, rest, deep, self.domains[deep], scratch)


class ShallowestOnly(ClosuresOnly):
    """An instance whose literals decide a constraint only at its shallowest
    variable, the narrower table that the search's results must not depend
    on. A clause's constant assumes that no literal forcing it true was
    assigned, which only the full table ensures, so it filters with its
    closure here."""

    def __init__(self, variables, constraints):
        super().__init__(variables, constraints)
        offsets = self.offsets
        index = {name: i for i, name in enumerate(self.names)}
        self.true_by = [0] * offsets[-1]
        low = (1 << len(self.scopes)) - 1
        for f, own in zip(constraints, self.masks):
            # a cube, and so a constraint over one variable, has no bit
            bit = own & low
            _, mask, forced, _, _ = _compile(f, index, self.domains, offsets)
            first = (mask & -mask).bit_length() - 1
            if bit:
                for lit in range(offsets[first], offsets[first + 1]):
                    if forced >> lit & 1:
                        self.true_by[lit] |= bit


def test_deciding_below_the_shallowest_variable_changes_no_result_and_adds_no_node(monkeypatch):
    rng = random.Random(2001)
    classes = (_Instance, ClosuresOnly, ShallowestOnly)
    entries = dict.fromkeys(classes, 0)
    for _ in range(200):
        variables, formulas = fc_instance(rng)
        pool_formulas = formulas + [negate(f) for f in formulas]
        pools = [
            rng.sample(range(len(pool_formulas)), rng.randint(1, len(pool_formulas)))
            for _ in range(4)
        ]
        seen = []
        for cls in classes:
            inst = cls(variables, pool_formulas)
            checks = [inst.check(active_mask(inst, pool)) for pool in pools]
            with monkeypatch.context() as patched:
                patched.setattr(solver, "_Instance", cls)
                ok, stats = is_consistent(variables, formulas)
                count, count_stats = count_solutions(variables, formulas)
                caps = (0, count.count // 2)
                capped = [count_solutions(variables, formulas, cap)[0] for cap in caps]
                # past its cap a count is a lower bound, and where counting
                # stopped depends on the search tree, as its nodes do
                assert all(cap < r.count <= count.count for cap, r in zip(caps, capped) if r.capped)
                results = (
                    [verdict for verdict, _, _ in checks],
                    ok,
                    count,
                    [None if r.capped else r.count for r in capped],
                    enumerate_solutions(variables, formulas, 100),
                )
                nodes = [nodes for _, nodes, _ in checks]
                nodes += [stats.nodes_explored, count_stats.nodes_explored]
                seen.append((results, nodes))
            entries[cls] += memo_entries(inst)
        (results, nodes), closures, (narrow_results, narrow_nodes) = seen
        # a clause's constant is the filter its closure computes
        assert (results, nodes) == closures, (variables, formulas, pools)
        assert results == narrow_results, (variables, formulas, pools)
        # a constraint that a literal decides true leaves every later
        # filter, cube test and component, so the wider table tries no more
        # values; its filter would have allowed every value
        assert all(map(int.__le__, nodes, narrow_nodes)), (variables, formulas, pools)
    # the wider table skips filters that the narrower one computes
    assert entries[ClosuresOnly] < entries[ShallowestOnly]


def test_a_shared_instance_searches_like_a_fresh_one_in_any_order():
    rng = random.Random(2008)
    for _ in range(100):
        variables, formulas = fc_instance(rng)
        pool_formulas = formulas + [negate(f) for f in formulas]
        inst = _Instance(variables, pool_formulas)
        for _ in range(4):
            active = rng.sample(range(len(pool_formulas)), rng.randint(1, len(pool_formulas)))
            shared_ok, shared_nodes, _ = inst.check(active_mask(inst, active))
            rng.shuffle(active)
            fresh_ok, fresh_nodes, _ = _Instance(
                variables, [pool_formulas[ci] for ci in active]
            ).check()
            assert shared_ok == fresh_ok, (variables, formulas, active)
            assert shared_nodes == fresh_nodes, (variables, formulas, active)


def test_consistency_and_enumeration_of_a_wide_kb():
    variables = [Variable(f"x{i}", ("a", "b")) for i in range(1500)]
    formulas = [Atom("x1499", AtomOp.EQ, "a")]
    ok, stats = is_consistent(variables, formulas)
    assert ok
    # the constraint filters x1499 before the search, which then stops at
    # the root with the cube of every live domain
    assert stats.nodes_explored == 0
    assert enumerate_solutions(variables, formulas, 1) == [
        {f"x{i}": "a" for i in range(1500)}
    ]


def test_consistency_and_enumeration_of_a_long_chain():
    variables = [Variable(f"x{i}", ("a", "b")) for i in range(1500)]
    chain = [
        Implies(Atom(f"x{i}", AtomOp.EQ, "a"), Atom(f"x{i + 1}", AtomOp.EQ, "a"))
        for i in range(1499)
    ]
    ok, stats = is_consistent(variables, chain)
    assert ok
    # x0 to x1498 are a, and the last constraint decided leaves x1499 a cube
    assert stats.nodes_explored == 1499
    # solutions are a run of b's followed by a's
    assert enumerate_solutions(variables, chain, 3) == [
        {f"x{i}": "a" if i >= k else "b" for i in range(1500)} for k in range(3)
    ]
    pinned = chain + [Atom("x0", AtomOp.EQ, "a"), Atom("x1499", AtomOp.EQ, "b")]
    ok, stats = is_consistent(variables, pinned)
    assert not ok
    # each level has one live value, and each wipe-out jumps one level back
    assert stats.nodes_explored == 1499
