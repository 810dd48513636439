"""Plain-text knowledge-base format.

Grammar (UTF-8, ``#`` line comments, semicolon-terminated declarations):

    kbfile      := "kb" STRING "{" decl* "}"
    decl        := contextdecl | vardecl | constraintdecl
    contextdecl := "context" IDENT "=" IDENT ";"
    vardecl     := "var" IDENT ":" "{" IDENT ("," IDENT)* "}" ";"
    constraintdecl := "constraint" IDENT ":" formula ";"
    formula     := unary (("and" | "or" | "->") unary)*
    unary       := "not" unary | "(" formula ")" | atom
    atom        := IDENT ("=" | "!=") IDENT

Precedence: not > and > or > ``->``; ``and`` and ``or`` fold left and
``->`` is right-associative.
IDENT is ``[A-Za-z_][A-Za-z0-9_.]*``, so values may not start with a
digit; keywords (kb, var, constraint, context, not, and, or) are
reserved. ``parse_kb(serialize_kb(kb))`` preserves variable order,
constraint order, and formula shape; ``serialize_kb`` refuses a name it
could not read back.

Reading takes one ``findall`` over the text. It returns the lexemes as
plain strings, without the blanks (``[ \t\r\n]``) and comments between
them. Where no lexeme starts, the scan returns the rest of the text as
one last lexeme, and that stray character is reported before any parsing.
The parser reads the list by index and tells a lexeme by its text: a name
starts with an ASCII letter or ``_`` and a string with ``"``. Only an
error works out a line and column, by scanning again up to the lexeme it
names. One table, ``_BINARY``, gives each binary connective its lexeme,
precedence and associativity: the parser climbs precedence from it (Pratt
1973) and the printer parenthesizes from it.
"""
from __future__ import annotations

import re
import string
from itertools import islice
from typing import Callable, Optional

from .errors import ParseError, ValidationError
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
    not_a_formula,
    require_kb,
)

KEYWORDS = frozenset({"kb", "var", "constraint", "context", "not", "and", "or"})

# Each binary connective: its lexeme, its precedence (higher binds tighter)
# and whether it is right-associative. ``not`` binds tighter than all three.
_BINARY = {And: ("and", 3, False), Or: ("or", 2, False), Implies: ("->", 1, True)}
_BY_LEXEME = {lexeme: (node, prec, right) for node, (lexeme, prec, right) in _BINARY.items()}

_SKIP = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*")
_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"
_LEXEME = re.compile(rf'{_IDENT}|"[^"\n]*"|!=|->|[{{}}();:,=]')
# One lexeme and the skip after it. Nothing follows the skip, so it never
# gives back a blank or part of a comment for the stray branch to take.
_SCAN = re.compile(rf"({_LEXEME.pattern}|(?s:.+)){_SKIP.pattern}")
_NAME_START = frozenset(string.ascii_letters + "_")


class _Unexpected(Exception):
    """A syntax error at lexeme ``index``; :func:`_parse` adds its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _shown(lexeme: str) -> str:
    """How an error message quotes a lexeme: a string without its quotes."""
    return "'" + lexeme.strip('"') + "'" if lexeme else "end of input"


def _expected(lx: list[str], i: int, want: str) -> _Unexpected:
    return _Unexpected(f"expected {want}, found {_shown(lx[i])}", i)


def _expect(lx: list[str], i: int, lexeme: str) -> None:
    if lx[i] != lexeme:
        raise _expected(lx, i, f"'{lexeme}'")


def _name(lx: list[str], i: int, what: str) -> str:
    name = lx[i]
    if name[:1] not in _NAME_START:
        raise _expected(lx, i, what)
    if name in KEYWORDS:
        raise _Unexpected(f"keyword '{name}' cannot be used as {what}", i)
    return name


def _unary(lx: list[str], i: int) -> tuple[Formula, int]:
    """An atom or a parenthesized formula under a run of ``not``, which is
    counted in a loop, not read one frame per ``not``."""
    start = i
    while lx[i] == "not":
        i += 1
    nots = i - start
    if lx[i] == "(":
        f, i = _formula(lx, i + 1)
        _expect(lx, i, ")")
        i += 1
    else:
        var = _name(lx, i, "a variable name")
        op = lx[i + 1]
        if op != "=" and op != "!=":
            raise _expected(lx, i + 1, "'=' or '!='")
        value = _name(lx, i + 2, "a value")
        f = Atom(var, AtomOp.EQ if op == "=" else AtomOp.NEQ, value)
        i += 3
    for _ in range(nots):
        f = Not(f)
    return f, i


def _formula(lx: list[str], i: int, floor: int = 1) -> tuple[Formula, int]:
    """A formula whose binary connectives all bind at least ``floor``."""
    f, i = _unary(lx, i)
    while (op := _BY_LEXEME.get(lx[i])) is not None and op[1] >= floor:
        node, prec, right = op
        operand, i = _formula(lx, i + 1, prec if right else prec + 1)
        f = node(f, operand)
    return f, i


def _kb(lx: list[str], i: int) -> tuple[tuple, int]:
    _expect(lx, i, "kb")
    if lx[i + 1][:1] != '"':
        raise _expected(lx, i + 1, "a quoted knowledge-base name")
    name = lx[i + 1][1:-1]
    _expect(lx, i + 2, "{")
    i += 3
    context: Optional[tuple[str, str]] = None
    variables: list[Variable] = []
    constraints: list[Constraint] = []
    while (lexeme := lx[i]) != "}":
        if lexeme == "context":
            var = _name(lx, i + 1, "a context variable name")
            _expect(lx, i + 2, "=")
            val = _name(lx, i + 3, "a context value")
            _expect(lx, i + 4, ";")
            if context is not None:
                raise _Unexpected("duplicate context declaration", i)
            context = (var, val)
            i += 5
        elif lexeme == "var":
            var = _name(lx, i + 1, "a variable name")
            _expect(lx, i + 2, ":")
            _expect(lx, i + 3, "{")
            values = [_name(lx, i + 4, "a domain value")]
            i += 5
            while lx[i] == ",":
                values.append(_name(lx, i + 1, "a domain value"))
                i += 2
            _expect(lx, i, "}")
            _expect(lx, i + 1, ";")
            variables.append(Variable(var, tuple(values)))
            i += 2
        elif lexeme == "constraint":
            cid = _name(lx, i + 1, "a constraint id")
            _expect(lx, i + 2, ":")
            f, i = _formula(lx, i + 3)
            _expect(lx, i, ";")
            constraints.append(Constraint(cid, f, provenance=name))
            i += 1
        else:
            raise _expected(lx, i, "'context', 'var' or 'constraint'")
    return (name, tuple(variables), tuple(constraints), context), i + 1


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of lexeme ``index``; past the last one, of the end."""
    scan = _SCAN.finditer(text, _SKIP.match(text).end())
    found = next(islice(scan, index, None), None)
    pos = len(text) if found is None else found.start()
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _parse(text: str, rule: Callable[[list[str], int], tuple]):
    """Scan ``text`` and read all of it with ``rule``.

    The lexeme list ends in ``""``, which no rule takes, for the end of input.
    """
    if not isinstance(text, str):
        raise ValidationError(f"can only parse a string, got {type(text).__name__}")
    lx = _SCAN.findall(text, _SKIP.match(text).end())
    try:
        if lx and not _LEXEME.fullmatch(lx[-1]):
            raise _Unexpected(f"unexpected character {lx[-1][0]!r}", len(lx) - 1)
        lx.append("")
        result, i = rule(lx, 0)
        if lx[i]:
            raise _Unexpected(f"unexpected trailing {_shown(lx[i])}", i)
    except _Unexpected as err:
        raise ParseError(str(err), *_position(text, err.index)) from None
    return result


def parse_formula(text: str) -> Formula:
    """Parse a bare formula (no surrounding kb document)."""
    return _parse(text, _formula)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse one knowledge-base document.

    Constraints get the kb name as provenance. Whether one of them is
    contextualized follows from its formula and the declared context (see
    :func:`kbmerge.model.is_contextualized`); nothing is stored for it.
    Building the KB once all of the text has parsed validates it.
    """
    return KnowledgeBase(*_parse(text, _kb))


# Precedence of the unary forms, above every binary connective's.
_ATOM, _NOT = 5, 4


def _fmt(f: Formula) -> tuple[str, int]:
    kind = type(f)
    if kind is Atom and type(f.op) is AtomOp:
        return f"{f.var} {f.op.value} {f.value}", _ATOM
    if kind is Not:
        txt, p = _fmt(f.child)
        if p < _NOT:
            txt = f"({txt})"
        return f"not {txt}", _NOT
    if kind not in _BINARY:
        raise not_a_formula(f)
    lexeme, prec, right = _BINARY[kind]
    # the operand on the associative side may bind as loosely as ``f``,
    # the other must bind tighter
    lt, lp = _fmt(f.left)
    if lp < prec + right:
        lt = f"({lt})"
    rt, rp = _fmt(f.right)
    if rp < prec + (not right):
        rt = f"({rt})"
    return f"{lt} {lexeme} {rt}", prec


def format_formula(f: Formula) -> str:
    """Render a formula with the fewest parentheses that round-trip."""
    return _fmt(f)[0]


def _format_constraint_formula(f: Formula, context: Optional[tuple[str, str]]) -> str:
    # contextualized constraints keep the body visually grouped
    if is_contextualized(f, context):
        return f"{format_formula(f.left)} -> ({format_formula(f.right)})"
    return format_formula(f)


_NAMES = re.compile(rf"(?:{_IDENT}\n)*")


def _check_names(kb: KnowledgeBase) -> None:
    """Raise ValidationError for the first name :func:`parse_kb` could not read."""
    if '"' in kb.name or "\n" in kb.name:
        raise ValidationError(
            f"cannot serialize knowledge-base name {kb.name!r}: it holds '\"' or a line break"
        )
    names = [*(kb.context or ())]
    for v in kb.variables:
        names.append(v.name)
        names += v.domain
    names += [c.id for c in kb.constraints]
    # one match over all of them; a name holding a line break breaks the count
    text = "\n".join([*names, ""])
    readable = _NAMES.fullmatch(text) and text.count("\n") == len(names)
    if readable and KEYWORDS.isdisjoint(names):
        return
    bad = next(n for n in names if n in KEYWORDS or "\n" in n or not _NAMES.fullmatch(n + "\n"))
    raise ValidationError(
        f"cannot serialize {bad!r}: a variable, value or constraint id must match"
        f" {_IDENT} and not be a keyword"
    )


def serialize_kb(kb: KnowledgeBase) -> str:
    """Render a knowledge base in the kb file grammar (canonical layout).

    Raises ValidationError for a name the grammar could not read back.
    """
    require_kb(kb)
    _check_names(kb)
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
