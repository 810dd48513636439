import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbmerge import (
    And,
    Atom,
    AtomOp,
    Constraint,
    Implies,
    KbError,
    KnowledgeBase,
    Not,
    Or,
    ParseError,
    SynthConfig,
    ValidationError,
    Variable,
    format_formula,
    is_contextualized,
    parse_kb,
    serialize_kb,
    synthesize_pair,
    validate_kb,
    write_bench_csv,
)
from kbmerge.bench import BenchRow
from kbmerge.textio import parse_formula

from pathlib import Path

from conftest import STRATEGY_VARS, formula_strategy

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


# Each malformed input's exact error: type, message, line and column. The whole
# text is scanned before parsing, so a stray character is reported even where a
# syntax error comes earlier; a duplicate domain value is caught as its
# declaration is read, before a later syntax error.
PINNED_ERRORS = [
    pytest.param(
        parse_kb,
        'kb "t" {\n  var x : { a };\n  constraint c1 x = a;\n}',
        (ParseError, "3:17: expected ':', found 'x'", 3, 17),
        id="kb-missing-colon",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a }; constraint c: x = a & x = a; }',
        (ParseError, "1:45: unexpected character '&'", 1, 45),
        id="kb-ampersand",
    ),
    pytest.param(
        parse_kb,
        'kb "t" {\n  var é : { a };\n}',
        (ParseError, "2:7: unexpected character 'é'", 2, 7),
        id="kb-non-ascii",
    ),
    pytest.param(
        parse_kb,
        'kb "t { var x : { a }; }',
        (ParseError, '1:4: unexpected character \'"\'', 1, 4),
        id="kb-unterminated-string",
    ),
    pytest.param(
        parse_kb,
        'kb "t\n" { }',
        (ParseError, '1:4: unexpected character \'"\'', 1, 4),
        id="kb-string-across-lines",
    ),
    pytest.param(
        parse_kb,
        'kb t { }',
        (ParseError, "1:4: expected a quoted knowledge-base name, found 't'", 1, 4),
        id="kb-unquoted-name",
    ),
    pytest.param(
        parse_kb,
        'kb "t" "u" { }',
        (ParseError, "1:8: expected '{', found 'u'", 1, 8),
        id="kb-quoted-value",
    ),
    pytest.param(
        parse_kb,
        '',
        (ParseError, "1:1: expected 'kb', found end of input", 1, 1),
        id="kb-empty",
    ),
    pytest.param(
        parse_kb,
        '  \n\t# only a comment\n',
        (ParseError, "3:1: expected 'kb', found end of input", 3, 1),
        id="kb-blank",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a }; # no closing brace',
        (ParseError, "1:43: expected 'context', 'var' or 'constraint', found end of input", 1, 43),
        id="kb-comment-at-end",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a, }; }',
        (ParseError, "1:23: expected a domain value, found '}'", 1, 23),
        id="kb-trailing-comma",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a };\n constraint c: (x = a; }',
        (ParseError, "2:22: expected ')', found ';'", 2, 22),
        id="kb-open-paren",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a }; constraint c: x = a -> ; }',
        (ParseError, "1:48: expected a variable name, found ';'", 1, 48),
        id="kb-dangling-implies",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a }; constraint c: x == a; }',
        (ParseError, "1:42: expected a value, found '='", 1, 42),
        id="kb-double-equals",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var not : { a }; }',
        (ParseError, "1:14: keyword 'not' cannot be used as a variable name", 1, 14),
        id="kb-keyword-name",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a, or }; }',
        (ParseError, "1:23: keyword 'or' cannot be used as a domain value", 1, 23),
        id="kb-keyword-value",
    ),
    pytest.param(
        parse_kb,
        'kb "t" {\n  context x = a;\n  context x = a;\n  var x : { a };\n}',
        (ParseError, '3:3: duplicate context declaration', 3, 3),
        id="kb-duplicate-context",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a }; } kb "u" { }',
        (ParseError, "1:27: unexpected trailing 'kb'", 1, 27),
        id="kb-trailing-kb",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a }; } "u"',
        (ParseError, "1:27: unexpected trailing 'u'", 1, 27),
        id="kb-trailing-string",
    ),
    pytest.param(
        parse_kb,
        'kb "t" {\r\n\tvar x : { a };\r\n\t\tconstraint c1 x = a;\r\n}',
        (ParseError, "3:17: expected ':', found 'x'", 3, 17),
        id="kb-crlf-tabs",
    ),
    pytest.param(
        parse_kb,
        'kb t { var x : { a };\n constraint c: x = a -> y ! b; }',
        (ParseError, "2:27: unexpected character '!'", 2, 27),
        id="kb-error-then-stray",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a }; constraint c: x = a - x = a; }',
        (ParseError, "1:45: unexpected character '-'", 1, 45),
        id="kb-lone-minus",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { 1a }; }',
        (ParseError, "1:20: unexpected character '1'", 1, 20),
        id="kb-digit-value",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { variable x : { a }; }',
        (ParseError, "1:10: expected 'context', 'var' or 'constraint', found 'variable'", 1, 10),
        id="kb-bad-declaration",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a }',
        (ParseError, "1:23: expected ';', found end of input", 1, 23),
        id="kb-missing-close",
    ),
    pytest.param(
        parse_kb,
        'kb "t" { var x : { a, a }; constraint c1 x = a; }',
        (ValidationError, "variable 'x' has duplicate domain values", None, None),
        id="kb-duplicate-value-before-syntax-error",
    ),
    pytest.param(
        parse_kb,
        'kb "t" {\n\x0c}',
        (ParseError, "2:1: unexpected character '\\x0c'", 2, 1),
        id="kb-form-feed-is-no-blank",
    ),
    pytest.param(
        parse_formula,
        'x = a & y = b',
        (ParseError, "1:7: unexpected character '&'", 1, 7),
        id="formula-ampersand",
    ),
    pytest.param(
        parse_formula,
        'x = é',
        (ParseError, "1:5: unexpected character 'é'", 1, 5),
        id="formula-non-ascii",
    ),
    pytest.param(
        parse_formula,
        'x = "a',
        (ParseError, '1:5: unexpected character \'"\'', 1, 5),
        id="formula-unterminated-string",
    ),
    pytest.param(
        parse_formula,
        'x = "a"',
        (ParseError, "1:5: expected a value, found 'a'", 1, 5),
        id="formula-string-value",
    ),
    pytest.param(
        parse_formula,
        '',
        (ParseError, '1:1: expected a variable name, found end of input', 1, 1),
        id="formula-empty",
    ),
    pytest.param(
        parse_formula,
        'x = a and # no right operand',
        (ParseError, '1:29: expected a variable name, found end of input', 1, 29),
        id="formula-comment-at-end",
    ),
    pytest.param(
        parse_formula,
        '(x = a',
        (ParseError, "1:7: expected ')', found end of input", 1, 7),
        id="formula-open-paren",
    ),
    pytest.param(
        parse_formula,
        '(x = a;',
        (ParseError, "1:7: expected ')', found ';'", 1, 7),
        id="formula-open-paren-semicolon",
    ),
    pytest.param(
        parse_formula,
        'x = a -> ',
        (ParseError, '1:10: expected a variable name, found end of input', 1, 10),
        id="formula-dangling-implies",
    ),
    pytest.param(
        parse_formula,
        'x == a',
        (ParseError, "1:4: expected a value, found '='", 1, 4),
        id="formula-double-equals",
    ),
    pytest.param(
        parse_formula,
        'x = and',
        (ParseError, "1:5: keyword 'and' cannot be used as a value", 1, 5),
        id="formula-keyword-value",
    ),
    pytest.param(
        parse_formula,
        'x = a or or = b',
        (ParseError, "1:10: keyword 'or' cannot be used as a variable name", 1, 10),
        id="formula-keyword-variable",
    ),
    pytest.param(
        parse_formula,
        'x = a y = b',
        (ParseError, "1:7: unexpected trailing 'y'", 1, 7),
        id="formula-trailing",
    ),
    pytest.param(
        parse_formula,
        'x = a kb "u" { }',
        (ParseError, "1:7: unexpected trailing 'kb'", 1, 7),
        id="formula-trailing-kb",
    ),
    pytest.param(
        parse_formula,
        'x = a\r\n\tand\r\n\t\t= b',
        (ParseError, "3:3: expected a variable name, found '='", 3, 3),
        id="formula-crlf-tabs",
    ),
    pytest.param(
        parse_formula,
        'x = -> y ! b',
        (ParseError, "1:10: unexpected character '!'", 1, 10),
        id="formula-error-then-stray",
    ),
    pytest.param(
        parse_formula,
        'not x',
        (ParseError, "1:6: expected '=' or '!=', found end of input", 1, 6),
        id="formula-missing-operator",
    ),
    pytest.param(
        parse_formula,
        "x = a\xa0and y = b",
        (ParseError, "1:6: unexpected character '\\xa0'", 1, 6),
        id="formula-no-break-space-is-no-blank",
    ),
    pytest.param(
        parse_kb,
        None,
        (ValidationError, "can only parse a string, got NoneType", None, None),
        id="kb-of-none",
    ),
    pytest.param(
        parse_formula,
        3,
        (ValidationError, "can only parse a string, got int", None, None),
        id="formula-of-an-int",
    ),
]


@pytest.mark.parametrize("parse, text, want", PINNED_ERRORS)
def test_malformed_input_raises_its_pinned_error(parse, text, want):
    with pytest.raises(KbError) as info:
        parse(text)
    err = info.value
    got = (type(err), str(err), getattr(err, "line", None), getattr(err, "column", None))
    assert got == want


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


def test_serialize_refuses_names_it_could_not_read_back():
    # a valid KB whose name, values and constraint id the grammar cannot read
    kb = KnowledgeBase(
        'a"b',
        (Variable("x", ("1a", "or")),),
        (Constraint("not", Atom("x", AtomOp.EQ, "1a")),),
    )
    validate_kb(kb)
    with pytest.raises(ValidationError, match="knowledge-base name 'a\"b'"):
        serialize_kb(kb)
    with pytest.raises(ValidationError, match="knowledge-base name 'a\\\\nb'"):
        serialize_kb(replace(kb, name="a\nb"))
    kb = replace(kb, name="ab")
    # then the first unreadable name in text order
    with pytest.raises(ValidationError, match="cannot serialize '1a'"):
        serialize_kb(kb)
    not_a1 = Constraint("not", Atom("x", AtomOp.EQ, "a1"))
    kb = replace(kb, variables=(Variable("x", ("a1", "or")),), constraints=(not_a1,))
    with pytest.raises(ValidationError, match="cannot serialize 'or'"):
        serialize_kb(kb)
    kb = replace(kb, variables=(Variable("x", ("a1", "b")),))
    with pytest.raises(ValidationError, match="cannot serialize 'not'"):
        serialize_kb(kb)
    for name in ("x y", "a\nb", ""):
        with pytest.raises(ValidationError, match="cannot serialize"):
            serialize_kb(KnowledgeBase("t", (Variable(name, ("a",)),)))
    # a keyword with more after it is a name
    kb = replace(kb, constraints=(Constraint("or.x", Atom("x", AtomOp.EQ, "a1")),))
    assert _structurally_equal(parse_kb(serialize_kb(kb)), kb)


# --- noise between lexemes ----------------------------------------------------

# The canonical text's lexemes, found without the module's scanner: strings,
# runs of name characters, the two-character operators, any other character.
_CANONICAL_LEXEMES = re.compile(r'"[^"]*"|[A-Za-z0-9_.]+|!=|->|\S')
_WORD = re.compile(r"[A-Za-z0-9_.]+")
# Blanks, line ends and comments; a comment may hold any character but a line
# break, even a quote, a '#' or a character no lexeme starts with.
_NOISE = st.sampled_from(
    ["", " ", "\t", "\n", "\r\n", "\t\r\n  ", "#\n", '# "x é & {\r\n', " #x#\n\t"]
)


def _synthesized_kb(seed: int) -> KnowledgeBase:
    # the configurations of test_round_trip_on_synthesized_kbs
    cfg = SynthConfig(
        n_constraints=6 + seed % 7,
        context_share=(seed % 11) / 10.0,
        seed=seed,
        n_vars=4,
        domain_size=3,
    )
    return synthesize_pair(cfg)[seed % 2]


@st.composite
def _noise_kbs(draw):
    if draw(st.booleans()):
        return _synthesized_kb(draw(st.integers(0, 49)))
    formulas = draw(st.lists(formula_strategy, max_size=4))
    return KnowledgeBase(
        "k",
        STRATEGY_VARS,
        tuple(Constraint(f"c{i}", f, provenance="k") for i, f in enumerate(formulas)),
        draw(st.sampled_from([None, ("x", "a")])),
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kb=_noise_kbs(), data=st.data())
def test_noise_between_lexemes_reads_the_same_kb(kb, data):
    text = serialize_kb(kb)
    clean = parse_kb(text)
    assert _structurally_equal(clean, kb)
    lexemes = _CANONICAL_LEXEMES.findall(text)
    noise = data.draw(
        st.lists(_NOISE, min_size=len(lexemes) + 1, max_size=len(lexemes) + 1)
    )
    parts = [noise[0]]
    for k, lexeme in enumerate(lexemes):
        gap = noise[k + 1]
        after = lexemes[k + 1] if k + 1 < len(lexemes) else ""
        if not gap and _WORD.fullmatch(lexeme) and _WORD.fullmatch(after):
            gap = " "  # two names need a blank between them
        parts += [lexeme, gap]
    assert parse_kb("".join(parts)) == clean


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


_X, _Y, _Z = Atom("x", AtomOp.EQ, "a"), Atom("y", AtomOp.EQ, "b"), Atom("z", AtomOp.NEQ, "c")
_INNER = {
    "atom": _Y,
    "not": Not(_Y),
    "and": And(_Y, _Z),
    "or": Or(_Y, _Z),
    "implies": Implies(_Y, _Z),
}
_OUTER = {"and": And, "or": Or, "implies": Implies}


@pytest.mark.parametrize(
    "outer, side, inner, text",
    [
        ("and", "left", "atom", "y = b and x = a"),
        ("and", "left", "not", "not y = b and x = a"),
        ("and", "left", "and", "y = b and z != c and x = a"),
        ("and", "left", "or", "(y = b or z != c) and x = a"),
        ("and", "left", "implies", "(y = b -> z != c) and x = a"),
        ("and", "right", "atom", "x = a and y = b"),
        ("and", "right", "not", "x = a and not y = b"),
        ("and", "right", "and", "x = a and (y = b and z != c)"),
        ("and", "right", "or", "x = a and (y = b or z != c)"),
        ("and", "right", "implies", "x = a and (y = b -> z != c)"),
        ("or", "left", "atom", "y = b or x = a"),
        ("or", "left", "not", "not y = b or x = a"),
        ("or", "left", "and", "y = b and z != c or x = a"),
        ("or", "left", "or", "y = b or z != c or x = a"),
        ("or", "left", "implies", "(y = b -> z != c) or x = a"),
        ("or", "right", "atom", "x = a or y = b"),
        ("or", "right", "not", "x = a or not y = b"),
        ("or", "right", "and", "x = a or y = b and z != c"),
        ("or", "right", "or", "x = a or (y = b or z != c)"),
        ("or", "right", "implies", "x = a or (y = b -> z != c)"),
        ("implies", "left", "atom", "y = b -> x = a"),
        ("implies", "left", "not", "not y = b -> x = a"),
        ("implies", "left", "and", "y = b and z != c -> x = a"),
        ("implies", "left", "or", "y = b or z != c -> x = a"),
        ("implies", "left", "implies", "(y = b -> z != c) -> x = a"),
        ("implies", "right", "atom", "x = a -> y = b"),
        ("implies", "right", "not", "x = a -> not y = b"),
        ("implies", "right", "and", "x = a -> y = b and z != c"),
        ("implies", "right", "or", "x = a -> y = b or z != c"),
        ("implies", "right", "implies", "x = a -> y = b -> z != c"),
    ],
)
def test_each_operand_position_prints_its_pinned_text(outer, side, inner, text):
    node, f = _OUTER[outer], _INNER[inner]
    tree = node(f, _X) if side == "left" else node(_X, f)
    assert format_formula(tree) == text
    assert parse_formula(text) == tree


def _trees(depth):
    """Formula trees of at most ``depth`` connectives from root to leaf."""
    atoms = st.sampled_from([_X, _Y, _Z, Atom("x", AtomOp.NEQ, "b")])
    if depth == 0:
        return atoms
    child = _trees(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Not, child),
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=_trees(6))
def test_printed_formula_parses_back_to_its_tree(f):
    assert parse_formula(format_formula(f)) == f


def test_deeply_parenthesized_formula_parses():
    # each level of parentheses costs the parser a fixed number of frames
    text = "(" * 300 + "x = a" + ")" * 300
    assert parse_formula(text) == Atom("x", AtomOp.EQ, "a")


def test_a_run_of_not_parses_in_a_loop():
    # the parser once recursed once per ``not`` and failed near 1000
    want = Atom("x", AtomOp.EQ, "a")
    for _ in range(5000):
        want = Not(want)
    assert parse_formula("not " * 5000 + "x = a") == want
    kb = parse_kb('kb "k" { var x : { a, b }; constraint c1: ' + "not " * 5000 + "x = a; }")
    assert kb.constraints[0].formula == want
    # a run of not inside parentheses, and parentheses inside a run
    assert parse_formula("not not (not x = a and not not y = b)") == Not(
        Not(And(Not(Atom("x", AtomOp.EQ, "a")), Not(Not(Atom("y", AtomOp.EQ, "b")))))
    )


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
