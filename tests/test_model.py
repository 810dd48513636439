import copy
import dataclasses
import itertools
import pickle
import re
import sys

import pytest
from hypothesis import given, settings

from conftest import FIXTURES, formula_strategy
from kbmerge import (
    And,
    Atom,
    AtomOp,
    Constraint,
    Implies,
    KnowledgeBase,
    Not,
    Or,
    UnassignedVariableError,
    ValidationError,
    Variable,
    align,
    brute_force_solutions,
    ckb_merge,
    contextualize,
    count_solutions,
    enumerate_solutions,
    evaluate,
    format_formula,
    intersection_count,
    is_consistent,
    is_contextualized,
    is_redundant,
    negate,
    serialize_kb,
    validate_kb,
)
from kbmerge.model import validate_formula
from kleene import free_vars

FUEL = Variable("fuel", ("electro", "diesel", "gas", "hybrid"))
COUPLING = Variable("couplingdev", ("yes", "no"))

NO_COUPLING_FOR_ELECTRO = Implies(
    Atom("fuel", AtomOp.EQ, "electro"), Atom("couplingdev", AtomOp.EQ, "no")
)


def test_variable_rejects_empty_domain():
    with pytest.raises(ValidationError):
        Variable("x", ())


def test_variable_rejects_duplicate_values():
    with pytest.raises(ValidationError):
        Variable("x", ("a", "b", "a"))


@pytest.mark.parametrize(
    "name, domain",
    [("x", 5), ("x", ["a", "b"]), ("x", ("a", 1)), (5, ("a",))],
    ids=["int-domain", "list-domain", "int-value", "int-name"],
)
def test_variable_rejects_bad_field_types(name, domain):
    with pytest.raises(ValidationError, match="needs a string name and a tuple of string values"):
        Variable(name, domain)


def test_evaluate_atoms():
    a = {"fuel": "gas"}
    assert evaluate(Atom("fuel", AtomOp.EQ, "gas"), a)
    assert not evaluate(Atom("fuel", AtomOp.EQ, "diesel"), a)
    assert evaluate(Atom("fuel", AtomOp.NEQ, "hybrid"), a)


def test_evaluate_connectives():
    a = {"x": "a", "y": "b"}
    t = Atom("x", AtomOp.EQ, "a")
    f = Atom("y", AtomOp.EQ, "a")
    assert evaluate(And(t, Not(f)), a)
    assert evaluate(Or(f, t), a)
    assert evaluate(Implies(f, f), a)
    assert not evaluate(Implies(t, f), a)


def test_evaluate_is_strict_about_missing_variables():
    # no short-circuit: the satisfied left branch does not excuse the right
    t = Atom("x", AtomOp.EQ, "a")
    dangling = Atom("missing", AtomOp.EQ, "a")
    with pytest.raises(UnassignedVariableError) as err:
        evaluate(Or(t, dangling), {"x": "a"})
    assert err.value.variable == "missing"


@pytest.mark.parametrize("assignment", [None, [("x", "a")], "x"])
def test_evaluate_rejects_an_assignment_that_is_no_mapping(assignment):
    with pytest.raises(ValidationError, match="assignment must be a mapping"):
        evaluate(Not(Atom("x", AtomOp.EQ, "a")), assignment)


def test_connectives_stay_distinct():
    # the same operands under different connectives are different formulas,
    # so neither equality nor the hash may depend on the operands alone
    a, b = Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.NEQ, "b")
    nodes = [And(a, b), Or(a, b), Implies(a, b)]
    for p, q in itertools.combinations(nodes, 2):
        assert p != q
        assert hash(p) != hash(q)
    assert And(a, b) == And(a, b) and hash(And(a, b)) == hash(And(a, b))
    assert len(set(nodes)) == 3


def _deep_chains(depth: int, last: str = "a"):
    """An ``or`` chain and a ``not`` chain ``depth`` levels deep, built anew
    on every call; ``last`` is the value of their innermost atom."""
    chain = negated = Atom("x", AtomOp.EQ, last)
    for _ in range(depth):
        chain = Or(chain, Atom("x", AtomOp.NEQ, "a"))
        negated = Not(negated)
    return chain, negated


def test_equality_and_hash_take_formulas_of_any_depth():
    # 900 levels, past where a generated __eq__ (about 400) or hash (about
    # 900) recursed, inside what a KnowledgeBase accepts
    first, second, other = _deep_chains(900), _deep_chains(900), _deep_chains(900, "b")
    for f, g, h in zip(first, second, other):
        assert f is not g and f == g and hash(f) == hash(g)
        assert f != h
    kbs = [
        KnowledgeBase("deep", (X,), (Constraint("c1", f), Constraint("c2", g)))
        for f, g in (first, second, other)
    ]
    assert kbs[0] == kbs[1] and hash(kbs[0]) == hash(kbs[1])
    assert kbs[0] != kbs[2]


def test_a_knowledge_base_validates_a_formula_of_any_depth():
    # 3000 levels: validation once recursed per level and raised a raw
    # RecursionError near 1000
    chain, negated = _deep_chains(3000)
    kb = KnowledgeBase("deep", (X,), (Constraint("c1", chain), Constraint("c2", negated)))
    assert kb.constraints[0].formula is chain
    bad_chain, bad_negated = _deep_chains(3000, "zz")
    for f in (bad_chain, bad_negated):
        with pytest.raises(
            ValidationError, match="^value 'zz' is not in the domain of 'x' in constraint 'c1'$"
        ):
            KnowledgeBase("deep", (X,), (Constraint("c1", f),))


@pytest.mark.parametrize(
    "f, message",
    [
        (
            And(Not(Atom("y", AtomOp.EQ, "a")), Atom("x", AtomOp.EQ, "zz")),
            "undeclared variable 'y'",
        ),
        (
            Or(Atom("x", AtomOp.EQ, "zz"), Atom("y", AtomOp.EQ, "a")),
            "value 'zz' is not in the domain",
        ),
        (
            Implies(Atom("x", AtomOp.EQ, "a"), Or(Not(None), Atom("y", AtomOp.EQ, "a"))),
            "not a formula node: None",
        ),
        (Not(And(Atom("x", "=", "a"), None)), "not a formula node: Atom"),
    ],
    ids=["left-first", "left-atom-first", "inner-left-first", "bad-op-first"],
)
def test_validation_reports_the_first_bad_node_in_preorder(f, message):
    with pytest.raises(ValidationError, match=message):
        validate_formula(f, {"x": X})


def _dataclass_text(f) -> str:
    """The text a generated dataclass ``__repr__`` gives a formula."""
    if isinstance(f, Not):
        return f"Not(child={_dataclass_text(f.child)})"
    if isinstance(f, (And, Or, Implies)):
        left, right = _dataclass_text(f.left), _dataclass_text(f.right)
        return f"{type(f).__qualname__}(left={left}, right={right})"
    return repr(f)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(f=formula_strategy)
def test_a_formula_reads_as_its_dataclass_text(f):
    assert repr(f) == _dataclass_text(f)


def test_a_message_naming_a_deep_formula_does_not_recurse():
    # a 600-level chain once raised a raw RecursionError from the repr in
    # require_constraint's message
    chain, negated = _deep_chains(900)
    chain_text = negated_text = repr(Atom("x", AtomOp.EQ, "a"))
    for _ in range(900):
        chain_text = f"Or(left={chain_text}, right={Atom('x', AtomOp.NEQ, 'a')!r})"
        negated_text = f"Not(child={negated_text})"
    for f, text in ((chain, chain_text), (negated, negated_text)):
        with pytest.raises(ValidationError) as err:
            KnowledgeBase("k", (X,), (Constraint(5, f),))
        assert str(err.value) == (
            f"not a constraint with a string id: Constraint(id=5, formula={text}, provenance='')"
        )
    shallow = Or(Not(A), Implies(A, And(A, Atom("x", AtomOp.NEQ, "a"))))
    assert repr(Constraint(5, shallow)) == (
        "Constraint(id=5, formula=Or(left=Not(child=Atom(var='x', op=<AtomOp.EQ: '='>,"
        " value='a')), right=Implies(left=Atom(var='x', op=<AtomOp.EQ: '='>, value='a'),"
        " right=And(left=Atom(var='x', op=<AtomOp.EQ: '='>, value='a'), right=Atom(var='x',"
        " op=<AtomOp.NEQ: '!='>, value='a')))), provenance='')"
    )


# --- slotted, immutable model objects ------------------------------------------

_US_BODY = Constraint("c1us", NO_COUPLING_FOR_ELECTRO, "CKB_us")
MODEL_OBJECTS = {
    "Variable": FUEL,
    "Atom": Atom("fuel", AtomOp.EQ, "electro"),
    "Not": Not(Atom("fuel", AtomOp.EQ, "electro")),
    "And": And(Atom("fuel", AtomOp.EQ, "gas"), Atom("couplingdev", AtomOp.EQ, "yes")),
    "Or": Or(Atom("fuel", AtomOp.EQ, "gas"), Atom("couplingdev", AtomOp.NEQ, "yes")),
    "Implies": NO_COUPLING_FOR_ELECTRO,
    "Constraint": _US_BODY,
    "KnowledgeBase": KnowledgeBase("car", (FUEL, COUPLING), (_US_BODY,)),
}


def _model_objects(root):
    """``root`` and every model object reachable through its fields."""
    out, todo = [], [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, tuple):
            todo += obj
        elif dataclasses.is_dataclass(obj):
            out.append(obj)
            todo += (getattr(obj, f.name) for f in dataclasses.fields(obj))
    return out


@pytest.mark.parametrize("obj", list(MODEL_OBJECTS.values()), ids=list(MODEL_OBJECTS))
def test_a_model_object_has_slots_and_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")
    assert type(obj).__slots__ == tuple(f.name for f in dataclasses.fields(obj))


def test_no_object_of_a_merge_has_an_instance_dict(car_pair, car_merged):
    # the merged KB and the contextualized sources are built by
    # KnowledgeBase._derived, past __init__
    objects = _model_objects((car_pair, car_merged[0]))
    kinds = {"Atom", "Constraint", "Implies", "KnowledgeBase", "Variable"}
    assert {type(obj).__name__ for obj in objects} == kinds
    assert not [obj for obj in objects if hasattr(obj, "__dict__")]


@pytest.mark.parametrize("obj", list(MODEL_OBJECTS.values()), ids=list(MODEL_OBJECTS))
def test_a_field_can_be_neither_assigned_nor_deleted(obj):
    before = repr(obj)
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    assert repr(obj) == before


# CPython 3.10-3.13: the generated __setattr__ and __delattr__ call super()
# with the class that slots=True replaced, which raises TypeError for a name
# that is not a field
_NOT_A_FIELD_ERROR = TypeError if sys.version_info < (3, 14) else (TypeError, AttributeError)


@pytest.mark.parametrize("obj", list(MODEL_OBJECTS.values()), ids=list(MODEL_OBJECTS))
def test_a_name_that_is_not_a_field_can_be_neither_assigned_nor_deleted(obj):
    with pytest.raises(_NOT_A_FIELD_ERROR):
        obj.cache = "x"
    with pytest.raises(_NOT_A_FIELD_ERROR):
        del obj.cache
    assert not hasattr(obj, "cache")


def test_copies_pickles_and_replacements_of_the_car_kbs_are_equal(kb_us, kb_ger, car_merged):
    merged = car_merged[0]
    golden = (FIXTURES / "car_merged.kb").read_text(encoding="utf-8")
    assert serialize_kb(merged) == golden
    for kb in (kb_us, kb_ger, merged):
        copies = [copy.copy(kb), copy.deepcopy(kb), dataclasses.replace(kb)]
        copies += (pickle.loads(pickle.dumps(kb, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1))
        for other in copies:
            assert other == kb and hash(other) == hash(kb) and repr(other) == repr(kb)
            assert _model_objects(other) == _model_objects(kb)
        renamed = dataclasses.replace(kb, name="other")
        assert (renamed.name, renamed.variables, renamed.constraints, renamed.context) == (
            "other", kb.variables, kb.constraints, kb.context,
        )
    assert serialize_kb(pickle.loads(pickle.dumps(merged))) == golden
    assert serialize_kb(copy.deepcopy(merged)) == golden
    for obj in _model_objects(merged):
        assert pickle.loads(pickle.dumps(obj)) == copy.deepcopy(obj) == obj
        assert dataclasses.replace(obj) == obj


def test_negate_wraps_without_simplifying():
    f = Not(Atom("x", AtomOp.EQ, "a"))
    assert negate(f) == Not(f)


def test_free_vars():
    assert free_vars(NO_COUPLING_FOR_ELECTRO) == {"fuel", "couplingdev"}
    assert free_vars(Not(Atom("x", AtomOp.NEQ, "v"))) == {"x"}


def test_is_context_guarded():
    guarded = Implies(Atom("country", AtomOp.EQ, "US"), NO_COUPLING_FOR_ELECTRO)
    assert is_contextualized(guarded, ("country", "US"))
    assert not is_contextualized(guarded, ("fuel", "US"))
    assert not is_contextualized(NO_COUPLING_FOR_ELECTRO, ("country", "US"))
    # a negated guard atom does not count as a guard
    wrong = Implies(Atom("country", AtomOp.NEQ, "US"), NO_COUPLING_FOR_ELECTRO)
    assert not is_contextualized(wrong, ("country", "US"))


def _kb(variables, constraints, context=None):
    return KnowledgeBase(
        name="t", variables=variables, constraints=constraints, context=context
    )


def test_validate_kb_accepts_well_formed():
    kb = _kb(
        (FUEL, COUPLING),
        (Constraint(id="c1", formula=NO_COUPLING_FOR_ELECTRO),),
    )
    validate_kb(kb)


def test_validate_kb_rejects_duplicate_variable_names():
    with pytest.raises(ValidationError, match="declared twice"):
        validate_kb(_kb((FUEL, Variable("fuel", ("a",))), ()))


def test_validate_kb_rejects_undeclared_variable_in_formula():
    # building the KB validates it
    with pytest.raises(ValidationError, match="couplingdev"):
        _kb((FUEL,), (Constraint(id="c1", formula=NO_COUPLING_FOR_ELECTRO),))


def test_validate_kb_rejects_out_of_domain_value():
    with pytest.raises(ValidationError, match="coal"):
        _kb(
            (FUEL,),
            (Constraint(id="c1", formula=Atom("fuel", AtomOp.EQ, "coal")),),
        )


def test_validate_kb_rejects_duplicate_constraint_ids():
    c = Constraint(id="c1", formula=Atom("fuel", AtomOp.NEQ, "gas"))
    with pytest.raises(ValidationError, match="duplicate constraint id"):
        validate_kb(_kb((FUEL,), (c, c)))


def test_validate_kb_rejects_bad_context_declaration():
    with pytest.raises(ValidationError, match="bad context"):
        validate_kb(_kb((FUEL,), (), context=("country", "US")))
    with pytest.raises(ValidationError, match="bad context"):
        validate_kb(_kb((FUEL,), (), context=("fuel", "coal")))



X = Variable("x", ("a", "b"))
US = Atom("country", AtomOp.EQ, "US")


def _holding(formula, context=None):
    """A KB over x, and the context variable if ``context`` is given, whose
    one constraint c1 is ``formula``."""
    variables = (X,) if context is None else (X, Variable(context[0], (context[1],)))
    return KnowledgeBase("bad", variables, (Constraint("c1", formula),), context)


MALFORMED_ENTRY_POINTS = {
    "validate_kb": lambda f: validate_kb(_holding(f)),
    "is_consistent": lambda f: is_consistent((X,), [f]),
    "count_solutions": lambda f: count_solutions((X,), [f]),
    "enumerate_solutions": lambda f: enumerate_solutions((X,), [f], 10),
    "brute_force_solutions": lambda f: brute_force_solutions((X,), [f]),
    "contextualize": lambda f: contextualize(_holding(f), "country", "US"),
    "ckb_merge": lambda f: ckb_merge(
        _holding(Implies(US, f), ("country", "US")),
        contextualize(KnowledgeBase("good", (X,)), "country", "GER"),
    ),
    "evaluate": lambda f: evaluate(f, {"x": "a"}),
    "format_formula": format_formula,
}


class SubOr(Or):
    """A subclass of a connective: none of the five node types."""


@pytest.mark.parametrize("entry", list(MALFORMED_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad",
    [
        None,
        "x = a",
        Atom("x", "=", "a"),
        SubOr(Atom("x", AtomOp.EQ, "b"), Atom("x", AtomOp.NEQ, "a")),
    ],
    ids=["none", "string", "atom-with-a-str-op", "connective-subclass"],
)
def test_malformed_formulas_raise_validation_error(bad, entry):
    # below a valid atom: an atom whose op is the string "=" is no x != a,
    # and a subclass of Or no Or
    formula = And(Atom("x", AtomOp.EQ, "a"), bad)
    with pytest.raises(ValidationError, match=f"^not a formula node: {re.escape(repr(bad))}"):
        MALFORMED_ENTRY_POINTS[entry](formula)


def _valid_kb(constraints=(), context=None):
    return KnowledgeBase("kb", (X,), tuple(constraints), context)


A = Atom("x", AtomOp.EQ, "a")
LISTED_VAR = Atom(["x"], AtomOp.EQ, "a")

MALFORMED_KBS = {
    "constraint-not-a-Constraint": (
        lambda: validate_kb(_valid_kb([A])),
        "not a constraint with a string id",
    ),
    "variable-not-a-Variable": (
        lambda: validate_kb(KnowledgeBase("kb", ("x",))),
        "not a variable: 'x'",
    ),
    "context-not-a-pair": (
        lambda: validate_kb(_valid_kb(context=("x",))),
        "bad context declaration",
    ),
    "contextualize-constraint-not-a-Constraint": (
        lambda: contextualize(_valid_kb([A]), "country", "US"),
        "not a constraint with a string id",
    ),
    "ckb_merge-context-not-a-pair": (
        lambda: ckb_merge(_valid_kb(context=("x", "a", "b")), _valid_kb(context=("x", "a"))),
        "bad context declaration",
    ),
    "validate_kb-atom-var-is-a-list": (
        lambda: validate_kb(_valid_kb([Constraint("c1", LISTED_VAR)])),
        "undeclared variable",
    ),
    "is_consistent-atom-var-is-a-list": (
        lambda: is_consistent((X,), [LISTED_VAR]),
        "undeclared variable",
    ),
    # such a KB cannot be built, so serialize_kb never sees it
    "serialize_kb-context-value-not-a-str": (
        lambda: serialize_kb(_valid_kb(context=("x", 5))),
        "bad context declaration: value '5' is not in the domain of 'x'",
    ),
    "serialize_kb-constraint-id-not-a-str": (
        lambda: serialize_kb(_valid_kb([Constraint(5, A)])),
        "not a constraint with a string id: Constraint(id=5",
    ),
    "is_redundant-of-a-str": (
        lambda: is_redundant(_valid_kb([Constraint("c", A)]), "c"),
        "not a constraint with a string id: 'c'",
    ),
    # a provenance that is no string once reached ckb_merge, which raised a
    # raw TypeError suffixing a clashing id with it
    "construction-provenance-not-a-str": (
        lambda: KnowledgeBase("kb", (X,), (Constraint("c1", A, 5),)),
        "constraint 'c1' has no string provenance: 5",
    ),
    "ckb_merge-clashing-id-provenance-not-a-str": (
        lambda: ckb_merge(*[
            KnowledgeBase(
                name,
                (X, Variable("country", (value,))),
                (Constraint("c1", Implies(Atom("country", AtomOp.EQ, value), A), 5),),
                ("country", value),
            )
            for name, value in (("us", "US"), ("ger", "GER"))
        ]),
        "constraint 'c1' has no string provenance: 5",
    ),
    # each knowledge-base rule, raised where the KB is built
    "construction-undeclared-atom-variable": (
        lambda: KnowledgeBase("kb", (X,), (Constraint("c1", Atom("y", AtomOp.EQ, "a")),)),
        "undeclared variable 'y' in constraint 'c1'",
    ),
    "construction-out-of-domain-value": (
        lambda: KnowledgeBase("kb", (X,), (Constraint("c1", Atom("x", AtomOp.EQ, "z")),)),
        "value 'z' is not in the domain of 'x' in constraint 'c1'",
    ),
    "construction-duplicate-id": (
        lambda: KnowledgeBase("kb", (X,), (Constraint("c1", A), Constraint("c1", A))),
        "duplicate constraint id 'c1'",
    ),
    "construction-bad-context": (
        lambda: KnowledgeBase("kb", (X,), (), ("country", "US")),
        "bad context declaration: variable 'country' is not declared",
    ),
    "construction-variables-a-list": (
        lambda: KnowledgeBase("kb", [X]),
        "knowledge base 'kb' needs a string name and tuples of variables and constraints",
    ),
    "construction-constraints-a-list": (
        lambda: KnowledgeBase("kb", (X,), [Constraint("c1", A)]),
        "needs a string name and tuples of variables and constraints",
    ),
    "construction-name-not-a-str": (
        lambda: KnowledgeBase(5, (X,)),
        "knowledge base 5 needs a string name",
    ),
    # a list context once reached ckb_merge and raised a bare StopIteration
    "ckb_merge-context-a-list": (
        lambda: ckb_merge(*[
            KnowledgeBase(
                name,
                (X, Variable("country", (value,))),
                (Constraint("c1", Implies(Atom("country", AtomOp.EQ, value), A)),),
                ["country", value],
            )
            for name, value in (("us", "US"), ("ger", "GER"))
        ]),
        "bad context declaration: ['country', 'US'] is not a (variable, value) pair",
    ),
    "contextualize-context-variable-a-list": (
        lambda: contextualize(_valid_kb(), ["c"], "a"),
        "context names must be strings, got ['c'], 'a'",
    ),
    "contextualize-context-value-an-int": (
        lambda: contextualize(_valid_kb(), "c", 1),
        "context names must be strings, got 'c', 1",
    ),
    "align-context-variable-a-list": (
        lambda: align(_valid_kb(), _valid_kb(), ["x"]),
        "context names must be strings, got ['x']",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_KBS))
def test_malformed_kb_objects_raise_validation_error(case):
    call, message = MALFORMED_KBS[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


NOT_A_KB_ENTRY_POINTS = {
    "validate_kb": lambda kb: validate_kb(kb),
    "contextualize": lambda kb: contextualize(kb, "country", "US"),
    "ckb_merge": lambda kb: ckb_merge(kb, kb),
    "serialize_kb": lambda kb: serialize_kb(kb),
    "is_redundant": lambda kb: is_redundant(kb, Constraint("c1", A)),
    "intersection_count": lambda kb: intersection_count(kb, kb),
    "align": lambda kb: align(kb, kb, "x"),
}


@pytest.mark.parametrize("entry", list(NOT_A_KB_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [None, "kb", ("kb", (X,))], ids=["none", "string", "tuple"])
def test_an_argument_that_is_no_knowledge_base_raises_validation_error(entry, bad):
    with pytest.raises(ValidationError, match=f"^not a knowledge base: {re.escape(repr(bad))}$"):
        NOT_A_KB_ENTRY_POINTS[entry](bad)


MALFORMED_SOLVER_ARGUMENTS = {
    "variable-a-str": (
        lambda: is_consistent(["x"], [A]),
        "not a variable: 'x'",
    ),
    "variables-none": (
        lambda: count_solutions(None, [A]),
        "need collections of variables and of formulas, got NoneType and list",
    ),
    "is_consistent-of-one-formula": (
        lambda: is_consistent([X], A),
        "need collections of variables and of formulas, got list and Atom",
    ),
    "count_solutions-of-one-formula": (
        lambda: count_solutions([X], A),
        "need collections of variables and of formulas, got list and Atom",
    ),
    "enumerate_solutions-limit-a-str": (
        lambda: enumerate_solutions([X], [], "3"),
        "limit must be an integer, got '3'",
    ),
    "count_solutions-cap-a-str": (
        lambda: count_solutions([X], [], cap="3"),
        "cap must be an integer, got '3'",
    ),
    "count_solutions-cap-a-float": (
        lambda: count_solutions([X], [], cap=1.5),
        "cap must be an integer, got 1.5",
    ),
    "enumerate_solutions-limit-a-bool": (
        lambda: enumerate_solutions([X], [], True),
        "limit must be an integer, got True",
    ),
    "count_solutions-cap-a-bool": (
        lambda: count_solutions([X], [], cap=True),
        "cap must be an integer, got True",
    ),
    "count_solutions-cap-false": (
        lambda: count_solutions([X], [], cap=False),
        "cap must be an integer, got False",
    ),
    "brute_force_solutions-of-one-formula": (
        lambda: brute_force_solutions([X], A),
        "need collections of variables and of formulas, got list and Atom",
    ),
    "brute_force_solutions-variables-none": (
        lambda: brute_force_solutions(None, [A]),
        "need collections of variables and of formulas, got NoneType and list",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_SOLVER_ARGUMENTS))
def test_malformed_solver_arguments_raise_validation_error(case):
    call, message = MALFORMED_SOLVER_ARGUMENTS[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()
