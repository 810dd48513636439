"""Plain-text knowledge-base format.

Grammar (UTF-8, ``#`` line comments, semicolon-terminated declarations):

    kbfile      := "kb" STRING "{" decl* "}"
    decl        := contextdecl | vardecl | constraintdecl
    contextdecl := "context" IDENT "=" IDENT ";"
    vardecl     := "var" IDENT ":" "{" IDENT ("," IDENT)* "}" ";"
    constraintdecl := "constraint" IDENT ":" formula ";"
    formula     := orexpr ("->" formula)?
    orexpr      := andexpr ("or" andexpr)*
    andexpr     := unary ("and" unary)*
    unary       := "not" unary | "(" formula ")" | atom
    atom        := IDENT ("=" | "!=") IDENT

Precedence: not > and > or > ``->``; ``->`` is right-associative.
IDENT is ``[A-Za-z_][A-Za-z0-9_.]*``, so values may not start with a
digit; keywords (kb, var, constraint, context, not, and, or) are
reserved. ``parse_kb(serialize_kb(kb))`` preserves variable order,
constraint order, and formula shape.
"""
from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence

from .errors import ParseError
from .model import (
    And,
    Atom,
    AtomOp,
    Constraint,
    Formula,
    Implies,
    KnowledgeBase,
    Not,
    Or,
    Variable,
    is_contextualized,
    validate_kb,
)

KEYWORDS = frozenset({"kb", "var", "constraint", "context", "not", "and", "or"})

class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<string>"[^"\n]*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    | (?P<punct>!=|->|[{}();:,=])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            if "\n" in value:
                line += value.count("\n")
                line_start = pos + value.rindex("\n") + 1
        elif kind == "comment":
            pass
        elif kind == "string":
            tokens.append(Token("string", value[1:-1], line, col))
        elif kind == "ident":
            tokens.append(Token("ident", value, line, col))
        else:
            tokens.append(Token(value, value, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, want: str) -> ParseError:
        """The error for finding the next token where ``want`` belongs."""
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else f"'{tok.value}'"
        return ParseError(f"expected {want}, found {found}", tok.line, tok.col)

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        if self.peek().kind != kind:
            raise self.error(what or f"'{kind}'")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"'{word}'")
        return self.advance()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing '{tok.value}'", tok.line, tok.col)

    def expect_name(self, what: str) -> Token:
        tok = self.expect("ident", what)
        if tok.value in KEYWORDS:
            raise ParseError(
                f"keyword '{tok.value}' cannot be used as {what}", tok.line, tok.col
            )
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word


def _parse_atom(p: _Parser) -> Atom:
    var = p.expect_name("a variable name")
    tok = p.peek()
    if tok.kind not in ("=", "!="):
        raise p.error("'=' or '!='")
    p.advance()
    value = p.expect_name("a value")
    op = AtomOp.EQ if tok.kind == "=" else AtomOp.NEQ
    return Atom(var.value, op, value.value)


def _parse_unary(p: _Parser) -> Formula:
    if p.at_keyword("not"):
        p.advance()
        return Not(_parse_unary(p))
    if p.peek().kind == "(":
        p.advance()
        f = _parse_formula(p)
        p.expect(")")
        return f
    return _parse_atom(p)


def _parse_and(p: _Parser) -> Formula:
    f = _parse_unary(p)
    while p.at_keyword("and"):
        p.advance()
        f = And(f, _parse_unary(p))
    return f


def _parse_or(p: _Parser) -> Formula:
    f = _parse_and(p)
    while p.at_keyword("or"):
        p.advance()
        f = Or(f, _parse_and(p))
    return f


def _parse_formula(p: _Parser) -> Formula:
    left = _parse_or(p)
    if p.peek().kind == "->":
        p.advance()
        return Implies(left, _parse_formula(p))
    return left


def parse_formula(text: str) -> Formula:
    """Parse a bare formula (no surrounding kb document)."""
    p = _Parser(_tokenize(text))
    f = _parse_formula(p)
    p.expect_end()
    return f


def parse_kb(text: str) -> KnowledgeBase:
    """Parse and validate one knowledge-base document.

    Constraints get the kb name as provenance. Whether one of them is
    contextualized follows from its formula and the declared context (see
    :func:`kbmerge.model.is_contextualized`); nothing is stored for it.
    """
    p = _Parser(_tokenize(text))
    p.expect_keyword("kb")
    name = p.expect("string", "a quoted knowledge-base name")
    p.expect("{")

    context: Optional[tuple[str, str]] = None
    variables: list[Variable] = []
    constraints: list[Constraint] = []
    while p.peek().kind != "}":
        tok = p.peek()
        if p.at_keyword("context"):
            p.advance()
            var = p.expect_name("a context variable name")
            p.expect("=")
            val = p.expect_name("a context value")
            p.expect(";")
            if context is not None:
                raise ParseError("duplicate context declaration", tok.line, tok.col)
            context = (var.value, val.value)
        elif p.at_keyword("var"):
            p.advance()
            var = p.expect_name("a variable name")
            p.expect(":")
            p.expect("{")
            values = [p.expect_name("a domain value").value]
            while p.peek().kind == ",":
                p.advance()
                values.append(p.expect_name("a domain value").value)
            p.expect("}")
            p.expect(";")
            variables.append(Variable(var.value, tuple(values)))
        elif p.at_keyword("constraint"):
            p.advance()
            cid = p.expect_name("a constraint id")
            p.expect(":")
            f = _parse_formula(p)
            p.expect(";")
            constraints.append(Constraint(cid.value, f, provenance=name.value))
        else:
            raise p.error("'context', 'var' or 'constraint'")
    p.expect("}")
    p.expect_end()

    kb = KnowledgeBase(
        name=name.value,
        variables=tuple(variables),
        constraints=tuple(constraints),
        context=context,
    )
    validate_kb(kb)
    return kb


# Precedence ranks for minimal-parenthesis printing; higher binds tighter.
_ATOM, _NOT, _AND, _OR, _IMPLIES = 5, 4, 3, 2, 1


def _fmt(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f"{f.var} {f.op.value} {f.value}", _ATOM
    if isinstance(f, Not):
        txt, p = _fmt(f.child)
        if p < _NOT:
            txt = f"({txt})"
        return f"not {txt}", _NOT
    if isinstance(f, And):
        lt, lp = _fmt(f.left)
        if lp < _AND:
            lt = f"({lt})"
        rt, rp = _fmt(f.right)
        # right operand of a left-fold must bind tighter
        if rp < _NOT:
            rt = f"({rt})"
        return f"{lt} and {rt}", _AND
    if isinstance(f, Or):
        lt, lp = _fmt(f.left)
        if lp < _OR:
            lt = f"({lt})"
        rt, rp = _fmt(f.right)
        if rp < _AND:
            rt = f"({rt})"
        return f"{lt} or {rt}", _OR
    if isinstance(f, Implies):
        lt, lp = _fmt(f.left)
        if lp < _OR:
            lt = f"({lt})"
        rt, _ = _fmt(f.right)  # right-associative, never needs parens
        return f"{lt} -> {rt}", _IMPLIES
    raise TypeError(f"not a formula node: {f!r}")


def format_formula(f: Formula) -> str:
    """Render a formula with the fewest parentheses that round-trip."""
    return _fmt(f)[0]


def _format_constraint_formula(f: Formula, context: Optional[tuple[str, str]]) -> str:
    # contextualized constraints keep the body visually grouped
    if is_contextualized(f, context):
        return f"{format_formula(f.left)} -> ({format_formula(f.right)})"
    return format_formula(f)


def serialize_kb(kb: KnowledgeBase) -> str:
    """Render a knowledge base in the kb file grammar (canonical layout)."""
    lines = [f'kb "{kb.name}" {{']
    if kb.context is not None:
        lines.append(f"  context {kb.context[0]} = {kb.context[1]};")
    for v in kb.variables:
        lines.append(f"  var {v.name} : {{ {', '.join(v.domain)} }};")
    for c in kb.constraints:
        text = _format_constraint_formula(c.formula, kb.context)
        lines.append(f"  constraint {c.id}: {text};")
    lines.append("}")
    return "\n".join(lines) + "\n"
