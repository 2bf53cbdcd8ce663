"""Lexer tests: token kinds, positions, comments, errors."""

import pytest

from repro import Session
from repro.errors import LexError
from repro.syntax.lexer import lift_literals, tokenize


def kinds(src):
    return [(t.kind, t.value) for t in tokenize(src)[:-1]]  # drop eof


def test_integers():
    assert kinds("42") == [("int", "42")]


def test_multi_digit_and_zero():
    assert kinds("0 007") == [("int", "0"), ("int", "007")]


def test_string_literal():
    assert kinds('"hello"') == [("string", "hello")]


def test_string_escapes():
    assert kinds(r'"a\"b\\c\nd"') == [("string", 'a"b\\c\nd')]


def test_bad_escape_rejected():
    with pytest.raises(LexError):
        tokenize(r'"\q"')


def test_unterminated_string():
    with pytest.raises(LexError) as exc:
        tokenize('"abc')
    assert "unterminated" in str(exc.value)


def test_string_cut_off_by_a_trailing_backslash():
    with pytest.raises(LexError) as exc:
        tokenize('"abc\\')
    assert "unterminated string literal" in str(exc.value)
    assert lift_literals('"abc\\') == ('"abc\\', [])
    with pytest.raises(LexError):
        Session().eval_py('"abc\\')


def test_identifiers_and_keywords():
    assert kinds("foo let bar fn") == [
        ("ident", "foo"), ("keyword", "let"), ("ident", "bar"),
        ("keyword", "fn")]


def test_identifier_with_prime_and_underscore():
    assert kinds("x' my_var") == [("ident", "x'"), ("ident", "my_var")]


def test_c_query_is_one_token():
    assert kinds("c-query") == [("keyword", "c-query")]


def test_c_alone_is_ident():
    assert kinds("c - query") == [
        ("ident", "c"), ("punct", "-"), ("keyword", "query")]


def test_assign_vs_eq():
    assert kinds(":= =") == [("punct", ":="), ("punct", "=")]


def test_arrow_tokens():
    assert kinds("=> ->") == [("punct", "=>"), ("punct", "->")]


def test_comparison_tokens_maximal_munch():
    assert kinds("<= >= < >") == [
        ("punct", "<="), ("punct", ">="), ("punct", "<"), ("punct", ">")]


def test_comment_is_skipped():
    assert kinds("1 (* comment *) 2") == [("int", "1"), ("int", "2")]


def test_nested_comments():
    assert kinds("1 (* a (* b *) c *) 2") == [("int", "1"), ("int", "2")]


def test_unterminated_comment():
    with pytest.raises(LexError):
        tokenize("(* oops")


def test_positions_are_tracked():
    toks = tokenize("ab\n  cd")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (2, 3)


def test_unexpected_character():
    with pytest.raises(LexError):
        tokenize("a ? b")


def test_eof_token_present():
    toks = tokenize("x")
    assert toks[-1].kind == "eof"


def test_punctuation_run():
    assert kinds("[{(,)}].;") == [
        ("punct", "["), ("punct", "{"), ("punct", "("), ("punct", ","),
        ("punct", ")"), ("punct", "}"), ("punct", "]"), ("punct", "."),
        ("punct", ";")]


def test_keyword_prefix_identifier():
    # 'classy' must not lex as the keyword 'class'.
    assert kinds("classy includesx") == [
        ("ident", "classy"), ("ident", "includesx")]
