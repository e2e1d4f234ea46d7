from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcurate import sexpr
from dvcurate.errors import SpecSyntaxError

from conftest import scanner_read_all, scanner_read_one


def test_read_one_nested_form():
    form = sexpr.read_one('(task :name "t" (sequence pick place) 1.5)')
    assert isinstance(form, sexpr.SList)
    head, kw, name, seq, num = form.items
    assert isinstance(head, sexpr.Symbol) and head.name == "task"
    assert isinstance(kw, sexpr.Keyword) and kw.name == "name"
    assert isinstance(name, sexpr.String) and name.value == "t"
    assert isinstance(seq, sexpr.SList)
    assert [s.name for s in seq.items] == ["sequence", "pick", "place"]
    assert isinstance(num, sexpr.Number) and num.value == 1.5


def test_positions_are_one_based():
    form = sexpr.read_one("(a\n  (b c))")
    assert (form.line, form.col) == (1, 1)
    inner = form.items[1]
    assert (inner.line, inner.col) == (2, 3)
    assert sexpr.position(inner.items[1]) == (2, 6)


def test_comments_and_whitespace_skipped():
    text = "; leading comment\n( a ; inline\n  b )\n; trailing\n"
    form = sexpr.read_one(text)
    assert [s.name for s in form.items] == ["a", "b"]


def test_read_all_multiple_forms():
    forms = sexpr.read_all("(a 1) (b 2)\n(c 3)")
    assert len(forms) == 3
    assert sexpr.read_all("  ; only comments\n") == []


@pytest.mark.parametrize(
    "text,value",
    [
        ('"plain"', "plain"),
        ('"quo\\"te"', 'quo"te'),
        ('"back\\\\slash"', "back\\slash"),
        ('"line\\nbreak"', "line\nbreak"),
        ('"tab\\tstop"', "tab\tstop"),
    ],
)
def test_string_escapes(text, value):
    form = sexpr.read_one(text)
    assert isinstance(form, sexpr.String)
    assert form.value == value


@pytest.mark.parametrize(
    "text,value",
    [
        ("42", 42.0),
        ("-7", -7.0),
        ("+3.25", 3.25),
        (".5", 0.5),
        ("8e-1", 0.8),
        ("1.05E2", 105.0),
        ("-2.5e+1", -25.0),
    ],
)
def test_number_forms(text, value):
    form = sexpr.read_one(text)
    assert isinstance(form, sexpr.Number)
    assert form.value == value


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("", 1, 1),
        ("   ; comment only\n", 1, 1),
        ("(a (b)", 1, 1),
        (")", 1, 1),
        ("(a) extra", 1, 5),
        ('"never closed', 1, 1),
        ('"bad \\q escape"', 1, 7),
        ("(x 1.2.3)", 1, 4),
        ("(x 12abc)", 1, 4),
        ("(: )", 1, 2),
        ("(a #b)", 1, 4),
    ],
)
def test_reader_errors_carry_positions(text, line, col):
    with pytest.raises(SpecSyntaxError) as err:
        sexpr.read_one(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_keyword_fields_groups_runs():
    form = sexpr.read_one("(f :a 1 2 :b (c) :d)")
    fields = sexpr.keyword_fields(form.items[1:], "f")
    names = [(kw.name, len(args)) for kw, args in fields]
    assert names == [("a", 2), ("b", 1), ("d", 0)]


def test_keyword_fields_rejects_duplicates_and_leading_nonkeyword():
    form = sexpr.read_one("(f :a 1 :a 2)")
    with pytest.raises(SpecSyntaxError, match="duplicate :a"):
        sexpr.keyword_fields(form.items[1:], "f")
    form = sexpr.read_one("(f 1 :a)")
    with pytest.raises(SpecSyntaxError, match="expected a :keyword"):
        sexpr.keyword_fields(form.items[1:], "f")


def test_head_symbol_checks_name():
    form = sexpr.read_one("(union (bbox 0 0 1 1))")
    assert sexpr.head_symbol(form).name == "union"
    with pytest.raises(SpecSyntaxError, match=r"expected \(sph"):
        sexpr.head_symbol(form, "sph")
    with pytest.raises(SpecSyntaxError):
        sexpr.head_symbol(sexpr.read_one("()"))


def test_atoms_compare_by_class_value_and_position():
    assert sexpr.Symbol("pick", 1, 2) == sexpr.Symbol("pick", 1, 2)
    assert sexpr.Symbol("pick", 1, 2) != sexpr.Keyword("pick", 1, 2)
    assert sexpr.String("1", 1, 2) != sexpr.Symbol("1", 1, 2)
    assert sexpr.Number(1.0, 1, 2) != sexpr.String(1.0, 1, 2)
    assert sexpr.Symbol("pick", 1, 2) != sexpr.Symbol("pick", 1, 3)
    assert sexpr.Symbol("pick", 1, 2) != sexpr.Symbol("pick", 2, 2)
    assert sexpr.read_one("(a :a)").items == [sexpr.Symbol("a", 1, 2), sexpr.Keyword("a", 1, 4)]


def test_atom_coercions():
    num, string, sym = sexpr.read_all('1.5 "s" pick')
    assert sexpr.as_number(num, "n").value == 1.5
    assert sexpr.as_string(string, "s").value == "s"
    assert sexpr.as_symbol(sym, "p").name == "pick"
    with pytest.raises(SpecSyntaxError, match="expected a number"):
        sexpr.as_number(string, "n")
    with pytest.raises(SpecSyntaxError, match="expected a string"):
        sexpr.as_string(num, "s")
    with pytest.raises(SpecSyntaxError, match="expected a symbol"):
        sexpr.as_symbol(num, "p")


# ---------------------------------------------------------------------------
# the one-pattern reader against the character scanner it replaced

_FRAGMENTS = (
    "(", ")", "((", "))", " ", "\n", "\r", "\r\n", "\t", "\x1c", "\x85", "\xa0", "\u3000",
    "; comment", ";", "; (not a form\n", "pick", "_x-1", "Z9", ":kw", ":", ": x", ":-x",
    '"s"', '""', '"a\\"b"', '"\\\\"', '"\\n\\t"', '"\\q"', '"\\', '"open', '"two\nlines"',
    '"\\\n"', "\\", "1", "-2.5", "+.5", ".5e3", "1.05E+2", "1.", "1.2.3", "12abc", "1e",
    "1e+", "+", "-", ".", "-x", "1)", "1;", '1"', "٣", "²", "é", "#", "[", "\x00",
)
_texts = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet=st.sampled_from("()\";:\\ \n\r\t\x85\u3000ae0.+-#"), max_size=40),
)


def _outcome(read, text):
    try:
        return "forms", read(text)
    except SpecSyntaxError as exc:
        return "error", str(exc), exc.line, exc.col


@settings(max_examples=600, deadline=None)
@given(_texts)
def test_reader_matches_the_scanner_oracle(text):
    assert _outcome(sexpr.read_all, text) == _outcome(scanner_read_all, text)
    assert _outcome(sexpr.read_one, text) == _outcome(scanner_read_one, text)


@pytest.mark.parametrize(
    "text",
    [
        '(a\r\n  "x\ny" ; c\r\n  :k\x85(b 1.5e-3))',
        '"line\none" \u3000 "\\q"',
        "(a)\n\n  (b",
        "\n\n  )",
        '(x "unterminated\n\\',
        "(a) ; trailing comment only",
        "(1.2.3",
    ],
)
def test_reader_matches_the_scanner_oracle_on_multiline_cases(text):
    assert _outcome(sexpr.read_all, text) == _outcome(scanner_read_all, text)
    assert _outcome(sexpr.read_one, text) == _outcome(scanner_read_one, text)
