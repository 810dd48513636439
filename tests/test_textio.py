import pytest

from kbmerge import (
    And,
    Atom,
    AtomOp,
    Implies,
    Not,
    Or,
    ParseError,
    SynthConfig,
    ValidationError,
    format_formula,
    is_contextualized,
    parse_kb,
    serialize_kb,
    synthesize_pair,
    write_bench_csv,
)
from kbmerge.bench import BenchRow
from kbmerge.textio import parse_formula

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str):
    return parse_kb((FIXTURES / name).read_text(encoding="utf-8"))


def test_parses_us_fixture(kb_us):
    assert kb_us.name == "CKB_us"
    assert len(kb_us.variables) == 7
    assert len(kb_us.constraints) == 3
    assert kb_us.context == ("country", "US")
    assert [v.name for v in kb_us.variables] == [
        "country", "type", "color", "engine", "couplingdev", "fuel", "service",
    ]
    assert kb_us.constraints[1].formula == Implies(
        Atom("fuel", AtomOp.EQ, "electro"), Atom("couplingdev", AtomOp.EQ, "no")
    )
    assert kb_us.constraints[0].provenance == "CKB_us"


def test_parses_minimal_kb():
    kb = parse_kb('kb "empty" { var x : { a, b }; }')
    assert kb.name == "empty"
    assert len(kb.variables) == 1
    assert kb.constraints == ()
    assert kb.context is None


def test_contextualized_flag_follows_declared_context(kb_union):
    # the union fixture declares no context, so nothing is contextualized
    assert kb_union.context is None
    assert not any(
        is_contextualized(c.formula, kb_union.context) for c in kb_union.constraints
    )
    guarded = parse_kb(
        'kb "g" { context c = on; var c : { on }; var x : { a, b };'
        ' constraint k: c = on -> (x = a); }'
    )
    assert is_contextualized(guarded.constraints[0].formula, guarded.context)
    # guard on the wrong value of the context variable does not count
    other = parse_kb(
        'kb "g" { context c = on; var c : { on, off }; var x : { a, b };'
        ' constraint k: c = off -> (x = a); }'
    )
    assert not is_contextualized(other.constraints[0].formula, other.context)
    # and it stays that way through a round trip: only the body of a
    # contextualized constraint is parenthesized
    assert "c = off -> x = a;" in serialize_kb(other)
    assert parse_kb(serialize_kb(other)) == other


# --- formula syntax ---------------------------------------------------------


def test_operator_precedence():
    f = parse_formula("x = a or y = b and not z = c -> w = d")
    assert f == Implies(
        Or(
            Atom("x", AtomOp.EQ, "a"),
            And(Atom("y", AtomOp.EQ, "b"), Not(Atom("z", AtomOp.EQ, "c"))),
        ),
        Atom("w", AtomOp.EQ, "d"),
    )


def test_implication_is_right_associative():
    f = parse_formula("x = a -> y = b -> z = c")
    assert f == Implies(
        Atom("x", AtomOp.EQ, "a"),
        Implies(Atom("y", AtomOp.EQ, "b"), Atom("z", AtomOp.EQ, "c")),
    )


def test_and_or_fold_left():
    f = parse_formula("x = a and y = b and z = c")
    assert f == And(
        And(Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.EQ, "b")),
        Atom("z", AtomOp.EQ, "c"),
    )


def test_parentheses_and_nested_not():
    f = parse_formula("not (x = a or y != b)")
    assert f == Not(Or(Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.NEQ, "b")))
    assert parse_formula("not not x = a") == Not(Not(Atom("x", AtomOp.EQ, "a")))


def test_identifiers_allow_dots_and_underscores():
    f = parse_formula("engine.size = l1_5")
    assert f == Atom("engine.size", AtomOp.EQ, "l1_5")


# --- parse errors -----------------------------------------------------------


def test_syntax_error_carries_line_and_column():
    text = 'kb "t" {\n  var x : { a };\n  constraint c1 x = a;\n}'
    with pytest.raises(ParseError) as err:
        parse_kb(text)
    assert err.value.line == 3
    assert err.value.column == 17
    assert str(err.value).startswith("3:17:")


def test_rejects_unknown_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_kb('kb "t" { var x : { a }; constraint c: x = a & x = a; }')


def test_rejects_keyword_as_name():
    with pytest.raises(ParseError, match="keyword"):
        parse_kb('kb "t" { var not : { a }; }')


def test_rejects_duplicate_context_declaration():
    with pytest.raises(ParseError, match="duplicate context"):
        parse_kb(
            'kb "t" { context x = a; context x = a; var x : { a }; }'
        )


def test_rejects_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        parse_kb('kb "t" { var x : { a }; } kb "u" { }')


def test_rejects_undeclared_variable():
    with pytest.raises(ValidationError, match="undeclared variable 'y'"):
        parse_kb('kb "t" { var x : { a }; constraint c: y = a; }')


def test_rejects_out_of_domain_value():
    with pytest.raises(ValidationError, match="'q' is not in the domain"):
        parse_kb('kb "t" { var x : { a, b }; constraint c: x = q; }')


def test_rejects_duplicate_constraint_id():
    with pytest.raises(ValidationError, match="duplicate constraint id"):
        parse_kb(
            'kb "t" { var x : { a, b }; constraint c: x = a; constraint c: x = b; }'
        )


def test_rejects_bad_context_declaration():
    with pytest.raises(ValidationError, match="bad context"):
        parse_kb('kb "t" { context y = a; var x : { a }; }')


# --- serialization ----------------------------------------------------------


def _structurally_equal(kb1, kb2) -> bool:
    return (
        kb1.name == kb2.name
        and kb1.variables == kb2.variables
        and kb1.context == kb2.context
        and len(kb1.constraints) == len(kb2.constraints)
        and all(
            a.id == b.id and a.formula == b.formula
            for a, b in zip(kb1.constraints, kb2.constraints)
        )
    )


@pytest.mark.parametrize(
    "name", ["ckb_us.kb", "ckb_ger.kb", "ckb_union_ctx.kb"]
)
def test_round_trip_on_fixtures(name):
    kb = load_fixture(name)
    assert _structurally_equal(parse_kb(serialize_kb(kb)), kb)


def test_round_trip_on_synthesized_kbs():
    # one hundred random KBs
    count = 0
    seed = 0
    while count < 100:
        cfg = SynthConfig(
            n_constraints=6 + seed % 7,
            context_share=(seed % 11) / 10.0,
            seed=seed,
            n_vars=4,
            domain_size=3,
        )
        for kb in synthesize_pair(cfg):
            assert _structurally_equal(parse_kb(serialize_kb(kb)), kb)
            count += 1
        seed += 1


def test_round_trip_preserves_formula_shape():
    text = (
        'kb "t" { var x : { a, b }; var y : { a, b };\n'
        "  constraint c1: not (x = a and y = b) or x != b;\n"
        "  constraint c2: x = a -> y = b -> x = b;\n"
        "  constraint c3: (x = a or y = a) and (x = b or y = b);\n"
        "}"
    )
    kb = parse_kb(text)
    assert _structurally_equal(parse_kb(serialize_kb(kb)), kb)


def test_serializes_contextualized_guard_with_parenthesized_body(car_pair):
    us, _ = car_pair
    text = serialize_kb(us)
    assert "constraint c1us: country = US -> (fuel != hybrid);" in text
    assert (
        "constraint c2us: country = US -> (fuel = electro -> couplingdev = no);"
        in text
    )


def test_serializes_union_country_domain(car_merged):
    merged, _ = car_merged
    assert "var country : { US, GER };" in serialize_kb(merged)


def test_format_formula_minimal_parens():
    f = Or(And(Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.EQ, "b")),
           Atom("z", AtomOp.EQ, "c"))
    assert format_formula(f) == "x = a and y = b or z = c"
    g = And(Atom("x", AtomOp.EQ, "a"), Or(Atom("y", AtomOp.EQ, "b"),
                                          Atom("z", AtomOp.EQ, "c")))
    assert format_formula(g) == "x = a and (y = b or z = c)"
    h = Implies(Implies(Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.EQ, "b")),
                Atom("z", AtomOp.EQ, "c"))
    assert format_formula(h) == "(x = a -> y = b) -> z = c"
    assert format_formula(Not(Atom("x", AtomOp.NEQ, "a"))) == "not x != a"


# --- CSV --------------------------------------------------------------------

CSV_HEADER = "kb_id,n_constraints,context_share_pct,trial,merge_ms,solve_ms,checks_phase1,checks_phase2"


def test_empty_rows_give_header_only_csv():
    assert write_bench_csv([]) == CSV_HEADER + "\n"


def test_single_row_csv():
    row = BenchRow(
        kb_id=1, n_constraints=10, context_share_pct=10, trial=0,
        merge_ms=12, solve_ms=3, checks_phase1=10, checks_phase2=7,
    )
    assert write_bench_csv([row]) == CSV_HEADER + "\n1,10,10,0,12,3,10,7\n"


def test_full_sweep_row_count():
    rows = [
        BenchRow(
            kb_id=1 + i // 10, n_constraints=10, context_share_pct=10,
            trial=i % 10, merge_ms=0, solve_ms=0,
            checks_phase1=10, checks_phase2=5,
        )
        for i in range(10 * 5 * 10)
    ]
    text = write_bench_csv(rows)
    assert len(text.splitlines()) == 501
