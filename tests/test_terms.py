import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RUNNING_TERM
from generators import random_term
from oracles import per_character_tokenize

from lamgraph import (
    Abs,
    App,
    DuplicateBinding,
    Letrec,
    TermSyntaxError,
    UnboundVariable,
    Var,
    format_term,
    parse_term,
)
from lamgraph.terms import _tokenize


def test_parse_identity():
    assert parse_term(r"\x.x") == Abs("x", Var("x"))


def test_parse_application_left_associative():
    t = parse_term(r"\f.\x. f x x")
    assert t == Abs("f", Abs("x", App(App(Var("f"), Var("x")), Var("x"))))


def test_parse_parentheses():
    t = parse_term(r"\f.\x. f (x x)")
    assert t.body.body == App(Var("f"), App(Var("x"), Var("x")))


def test_parse_lambda_extends_right():
    t = parse_term(r"(\x.x) \y.y")
    assert t == App(Abs("x", Var("x")), Abs("y", Var("y")))


def test_parse_running_letrec_term():
    t = parse_term(RUNNING_TERM)
    assert isinstance(t, Letrec)
    assert [name for name, _ in t.bindings] == ["f", "g"]
    assert t.body == Var("f")
    f_body = dict(t.bindings)["f"]
    assert f_body == Abs(
        "x",
        App(
            Abs("y", App(Var("y"), App(Var("x"), Var("g")))),
            Abs("z", App(Var("g"), Var("f"))),
        ),
    )
    assert dict(t.bindings)["g"] == Abs("u", Var("u"))


def test_parse_nested_letrec():
    t = parse_term(r"letrec f = letrec g = \x.x in g in f")
    assert isinstance(t, Letrec)
    inner = dict(t.bindings)["f"]
    assert isinstance(inner, Letrec)
    assert inner.body == Var("g")


def test_parse_letrec_forward_reference():
    t = parse_term(r"letrec a = \x. x b; b = \y.y in a")
    assert isinstance(t, Letrec)


def test_unbound_variable():
    with pytest.raises(UnboundVariable) as err:
        parse_term(r"\x.y")
    assert err.value.name == "y"
    with pytest.raises(UnboundVariable):
        parse_term(r"letrec f = \x.g in f")
    # A binder's scope ends with its body, also where the name shadows.
    for text in (r"(\x. x) x", r"(letrec f = \x. x in f) f", r"\y. (\x. x) x"):
        with pytest.raises(UnboundVariable) as err:
            parse_term(text)
        assert err.value.position == len(text) - 1


def test_duplicate_binding():
    with pytest.raises(DuplicateBinding):
        parse_term(r"letrec f = \x.x; f = \y.y in f")


def test_syntax_errors_carry_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_term(r"\x. (x")
    assert err.value.position >= 4
    with pytest.raises(TermSyntaxError):
        parse_term("")
    with pytest.raises(TermSyntaxError):
        parse_term(r"\x, x")
    with pytest.raises(TermSyntaxError):
        parse_term("letrec f = \\x.x in")


def test_identifier_shapes():
    t = parse_term(r"\x'.\_y2. x' _y2")
    assert t == Abs("x'", Abs("_y2", App(Var("x'"), Var("_y2"))))


def test_keywords_not_identifiers():
    with pytest.raises(TermSyntaxError):
        parse_term(r"\letrec.letrec")


def test_comments_ignored():
    t = parse_term("\\x. x # trailing note\n")
    assert t == Abs("x", Var("x"))


def test_shadowing_allowed():
    t = parse_term(r"\x.\x.x")
    assert t == Abs("x", Abs("x", Var("x")))


def test_format_round_trip():
    for text in (
        r"\x.x",
        r"(\x.x) (\y.y)",
        r"\f.\x. f (x x)",
        RUNNING_TERM,
        r"letrec f = letrec g = \x.x in g in f",
    ):
        t = parse_term(text)
        assert parse_term(format_term(t)) == t


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except TermSyntaxError as exc:
        return ("error", str(exc), exc.position)


def assert_same_tokens(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(per_character_tokenize, text)


@pytest.mark.parametrize(
    "text",
    [
        RUNNING_TERM,
        "",
        "\u00a0\\x.\u2003x\u3000\u2028",  # Unicode whitespace
        "\\x. x\x1c\x1f\x85",
        "\\x. x # comment at end of input",
        "# only a comment\n",
        "\\x.x #a\n#b\r\n x",
        "letrecx",
        "letrec in'",
        "in'",
        "'",
        "$",
        "\\x. x '",
        "\\x. x $ y",
        "\\x\u00e9. x",
        "a1_'b c.d(e)f=g;h",
        "\\x. \ud800",
    ],
)
def test_tokenizer_matches_per_character_scan_on_edge_strings(text):
    assert_same_tokens(text)


def test_tokenizer_matches_per_character_scan_on_terms():
    rng = random.Random(5309)
    texts = [format_term(random_term(rng, depth=rng.randint(1, 5))) for _ in range(300)]
    for text in texts:
        assert_same_tokens(text)
        assert_same_tokens(text.replace(" ", "\t#c\n"))


# Token characters, keyword letters, a quote, a stray character and
# ASCII and Unicode whitespace.
TOKEN_ALPHABET = st.sampled_from("\\.()=;#'$_xyzin letrc0\n\t\u00a0\u2029\u00e9")


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=40))
def test_tokenizer_matches_per_character_scan_hypothesis(text):
    assert_same_tokens(text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=20))
def test_tokenizer_matches_per_character_scan_on_any_text(text):
    assert_same_tokens(text)
