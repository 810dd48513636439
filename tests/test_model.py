import pytest

from kbmerge import (
    And,
    Atom,
    AtomOp,
    Constraint,
    Implies,
    KnowledgeBase,
    Not,
    NotContextualizedError,
    Or,
    UnassignedVariableError,
    ValidationError,
    Variable,
    evaluate,
    is_contextualized,
    negate,
    strip_context,
    validate_kb,
)
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


def test_strip_context_round_trip():
    guarded = Constraint(
        id="c2us",
        formula=Implies(Atom("country", AtomOp.EQ, "US"), NO_COUPLING_FOR_ELECTRO),
        provenance="CKB_us",
    )
    bare = strip_context(guarded, ("country", "US"))
    assert bare.formula == NO_COUPLING_FOR_ELECTRO
    assert bare.id == "c2us"
    assert bare.provenance == "CKB_us"
    assert not is_contextualized(bare.formula, ("country", "US"))


def test_strip_context_rejects_unguarded():
    plain = Constraint(id="c", formula=NO_COUPLING_FOR_ELECTRO)
    with pytest.raises(NotContextualizedError):
        strip_context(plain, ("country", "US"))
    # a guard on another value of the context variable does not count
    guarded = Constraint(
        id="c",
        formula=Implies(Atom("country", AtomOp.EQ, "GER"), NO_COUPLING_FOR_ELECTRO),
    )
    with pytest.raises(NotContextualizedError):
        strip_context(guarded, ("country", "US"))


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
    kb = _kb((FUEL,), (Constraint(id="c1", formula=NO_COUPLING_FOR_ELECTRO),))
    with pytest.raises(ValidationError, match="couplingdev"):
        validate_kb(kb)


def test_validate_kb_rejects_out_of_domain_value():
    kb = _kb(
        (FUEL,),
        (Constraint(id="c1", formula=Atom("fuel", AtomOp.EQ, "coal")),),
    )
    with pytest.raises(ValidationError, match="coal"):
        validate_kb(kb)


def test_validate_kb_rejects_duplicate_constraint_ids():
    c = Constraint(id="c1", formula=Atom("fuel", AtomOp.NEQ, "gas"))
    with pytest.raises(ValidationError, match="duplicate constraint id"):
        validate_kb(_kb((FUEL,), (c, c)))


def test_validate_kb_rejects_bad_context_declaration():
    with pytest.raises(ValidationError, match="bad context"):
        validate_kb(_kb((FUEL,), (), context=("country", "US")))
    with pytest.raises(ValidationError, match="bad context"):
        validate_kb(_kb((FUEL,), (), context=("fuel", "coal")))

