"""Minimal s-expression reader shared by the task-spec and query parsers.

Forms are parenthesized lists of atoms.  Atoms are symbols (`pick`), keywords
(`:name`), double-quoted strings, and decimal numbers.  Comments run from `;`
to end of line.  Every atom and list remembers its 1-based line and column so
parse errors can point at source positions.

The reader takes one match of a single compiled pattern per token: the match
skips blanks and comments, and its named group gives the token's kind.  A
position is derived from newline offsets, so only '\n' breaks a line: line is
1 + the number of '\n' before the token, column is the token's offset minus
that of the last '\n' before it.  Newlines are counted only in text that holds
one (spec files); in one-line text, such as a typical query, the column is the
offset + 1.  Only text that matches no token takes the slower path that works
out which error it is.  Nothing is cached: every call reads its text afresh.

Atoms are slotted dataclasses: building one sets three slots, where a frozen
dataclass calls `object.__setattr__` per field.  An atom equals only an atom
of the same class with the same value, line and column.  Atoms are not
hashable; nothing hashes them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import SpecSyntaxError

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SYMBOL = r"[A-Za-z_][A-Za-z0-9_\-]*"
_NUMBER_RE = re.compile(_NUMBER)
# `bad` matches any character, so after the run of blanks and comments some
# alternative always matches and the run is never given back.  A number must
# end at a blank, a paren, ';' or the end; no shorter prefix of it does, so a
# malformed number falls through to `bad` as a whole.
_TOKEN_RE = re.compile(
    rf"""(?:\s|;[^\n]*)*
    (?:(?P<open>\()
      |(?P<close>\))
      |(?P<str>"[^"\\]*(?:\\.[^"\\]*)*")
      |(?P<kw>:{_SYMBOL})
      |(?P<num>{_NUMBER})(?=[\s();]|\Z)
      |(?P<sym>{_SYMBOL})
      |(?P<end>\Z)
      |(?P<bad>.))""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


@dataclass(slots=True)
class Symbol:
    name: str
    line: int
    col: int


@dataclass(slots=True)
class Keyword:
    name: str
    line: int
    col: int


@dataclass(slots=True)
class String:
    value: str
    line: int
    col: int


@dataclass(slots=True)
class Number:
    value: float
    line: int
    col: int


@dataclass
class SList:
    items: list = field(default_factory=list)
    line: int = 1
    col: int = 1


Form = Symbol | Keyword | String | Number | SList


def _line_col(source: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset `pos`, counting only '\n' as a line break."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _unescape(source: str, start: int, end: int) -> str:
    """The string body `source[start:end]` with its escapes decoded."""
    if source.find("\\", start, end) < 0:
        return source[start:end]
    out = []
    last = start
    for m in _ESCAPE_RE.finditer(source, start, end):
        esc = m.group(1)
        if not esc:
            raise SpecSyntaxError("unterminated string escape", *_line_col(source, m.end()))
        if esc not in _ESCAPES:
            raise SpecSyntaxError(f"unknown string escape '\\{esc}'", *_line_col(source, m.start(1)))
        out.append(source[last:m.start()])
        out.append(_ESCAPES[esc])
        last = m.end()
    out.append(source[last:end])
    return "".join(out)


def _token_error(source: str, pos: int) -> SpecSyntaxError:
    """The error for the text at `pos`, where no token matched."""
    line, col = _line_col(source, pos)
    c = source[pos]
    if c == '"':
        _unescape(source, pos + 1, len(source))  # raises on a bad or dangling escape
        return SpecSyntaxError("unterminated string", line, col)
    if c == ":":
        return SpecSyntaxError("expected keyword name after ':'", line, col)
    if c.isdigit() or c in "+-.":
        m = _NUMBER_RE.match(source, pos)
        if not m:
            return SpecSyntaxError(f"malformed number starting at {c!r}", line, col)
        return SpecSyntaxError(f"malformed number {source[pos:m.end() + 1]!r}", line, col)
    return SpecSyntaxError(f"unexpected character {c!r}", line, col)


def _read(source: str, single: bool) -> list[Form]:
    """Top-level forms of `source`; with `single`, exactly one.

    One `_TOKEN_RE` match per token; lists are built on an explicit stack.
    In text with a '\n', the '\n' between tokens are counted once each to
    track line and column; in one-line text a column is the offset + 1.
    """
    multiline = "\n" in source
    count = source.count
    forms: list = []
    stack: list[SList] = []
    items = forms
    line, line_start, counted = 1, -1, 0  # '\n' before `counted` are in `line`
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        if multiline:
            breaks = count("\n", counted, start)
            if breaks:
                line += breaks
                line_start = source.rfind("\n", counted, start)
            counted = start
        col = start - line_start
        if not stack and single and forms and kind != "end":
            raise SpecSyntaxError("unexpected trailing input", line, col)
        if kind == "num":
            items.append(Number(float(source[start:m.end()]), line, col))
        elif kind == "sym":
            items.append(Symbol(source[start:m.end()], line, col))
        elif kind == "kw":
            items.append(Keyword(source[start + 1:m.end()], line, col))
        elif kind == "open":
            lst = SList([], line, col)
            items.append(lst)
            stack.append(lst)
            items = lst.items
        elif kind == "close":
            if not stack:
                raise SpecSyntaxError("unbalanced ')'", line, col)
            stack.pop()
            items = stack[-1].items if stack else forms
        elif kind == "str":
            items.append(String(_unescape(source, start + 1, m.end() - 1), line, col))
        elif kind == "end":
            if stack:
                raise SpecSyntaxError("unbalanced '(': missing ')'", stack[-1].line, stack[-1].col)
            if single and not forms:
                raise SpecSyntaxError("empty input", 1, 1)
            return forms
        else:
            raise _token_error(source, start)


def read_all(source: str) -> list[Form]:
    """Read every top-level form in `source`."""
    return _read(source, single=False)


def read_one(source: str) -> Form:
    """Read exactly one top-level form; empty or trailing input is an error."""
    return _read(source, single=True)[0]


def position(form: Form) -> tuple[int, int]:
    return form.line, form.col


def head_symbol(form: Form, expected: str | None = None) -> Symbol:
    """Return the leading symbol of a list form, checking its name if given."""
    if not isinstance(form, SList) or not form.items:
        line, col = position(form)
        raise SpecSyntaxError("expected a non-empty list form", line, col)
    head = form.items[0]
    if not isinstance(head, Symbol):
        raise SpecSyntaxError("expected a symbol at list head", *position(head))
    if expected is not None and head.name != expected:
        raise SpecSyntaxError(f"expected ({expected} ...), got ({head.name} ...)", head.line, head.col)
    return head


def keyword_fields(items: list[Form], context: str) -> list[tuple[Keyword, list[Form]]]:
    """Split `items` into (keyword, argument-forms) runs.

    Items must begin with a keyword; duplicate keywords are rejected.
    """
    fields: list[tuple[Keyword, list[Form]]] = []
    seen: set[str] = set()
    args = None
    for item in items:
        if isinstance(item, Keyword):
            if item.name in seen:
                raise SpecSyntaxError(f"duplicate :{item.name} in {context}", item.line, item.col)
            seen.add(item.name)
            args = []
            fields.append((item, args))
        elif args is None:
            raise SpecSyntaxError(f"expected a :keyword in {context}", *position(item))
        else:
            args.append(item)
    return fields


def as_number(form: Form, what: str) -> Number:
    if not isinstance(form, Number):
        raise SpecSyntaxError(f"expected a number for {what}", *position(form))
    return form


def as_string(form: Form, what: str) -> String:
    if not isinstance(form, String):
        raise SpecSyntaxError(f"expected a string for {what}", *position(form))
    return form


def as_symbol(form: Form, what: str) -> Symbol:
    if not isinstance(form, Symbol):
        raise SpecSyntaxError(f"expected a symbol for {what}", *position(form))
    return form
