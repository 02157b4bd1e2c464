import collections
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RUNNING_TERM
from generators import COLLIDING_TERMS, FIXTURE_TERMS, closed_terms, random_term
from oracles import (
    _Token,
    dataclass_record,
    per_character_tokenize,
    recursive_format_term,
    recursive_parse_term,
    two_pass_parse_term,
)

from lamgraph import (
    Abs,
    App,
    DuplicateBinding,
    Letrec,
    Term,
    TermSyntaxError,
    UnboundVariable,
    Var,
    format_term,
    parse_term,
)
from lamgraph.terms import _KIND, _TOKEN, _lex, _offset, _parse


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
    with pytest.raises(DuplicateBinding) as err:
        parse_term(r"letrec f = \x.x; f = \y.y in f")
    assert (err.value.name, err.value.position) == ("f", 17)
    assert str(err.value) == "duplicate letrec binding 'f' (at offset 17)"


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


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: Var("x x"), "x x"),
        (lambda: Var("g "), "g "),
        (lambda: Var("x\n"), "x\n"),
        (lambda: Var("letrec"), "letrec"),
        (lambda: Abs("x y", Var("x")), "x y"),
        (lambda: Abs("in", Var("in")), "in"),
        (lambda: Letrec((("f", Var("f")), ("2f", Var("f"))), Var("f")), "2f"),
        (lambda: Var(3), 3),
        (lambda: Abs(None, Var("x")), None),
    ],
)
def test_a_name_the_grammar_refuses_cannot_be_built(build, name):
    # Every term object prints as text that parses, so none holds a name
    # that is no identifier, or is a keyword.
    with pytest.raises(ValueError, match=f"^not an identifier: {re.escape(repr(name))}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Abs("x", "x"), "not a term: 'x'"),
        (lambda: App(Var("x"), None), "not a term: None"),
        (lambda: Letrec((("f", 3),), Var("f")), "not a term: 3"),
        (lambda: Letrec((("f",),), Var("f")), "not a (name, term) binding: ('f',)"),
    ],
)
def test_a_subterm_that_is_no_term_cannot_be_built(build, message):
    # As ``format_term`` refuses such a term, so does its constructor.
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()


def test_a_letrec_keeps_its_bindings_as_a_tuple():
    # Given as a list or a generator, the bindings are kept as the tuple
    # of them: the term hashes and compares as the tuple-built one, and
    # prints as text that parses to it.
    pairs = [("f", Abs("x", App(Var("f"), Var("x")))), ("g", Var("f"))]
    want = Letrec(tuple(pairs), Var("g"))
    for t in (Letrec(list(pairs), Var("g")), Letrec((p for p in pairs), Var("g"))):
        assert type(t.bindings) is tuple and t == want and hash(t) == hash(want)
        assert parse_term(format_term(t)) == want


def test_every_identifier_builds_and_reads_back():
    for name in ("x", "_", "x'", "_y2", "Letrec", "in_", "letrecs"):
        t = Letrec(((name, Abs(name, Var(name))),), Var(name))
        assert parse_term(format_term(t)) == t


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


def test_format_term_matches_recursive_format_on_seeded_and_fixture_terms():
    rng = random.Random(1414)
    terms = [random_term(rng, depth=rng.randint(1, 5)) for _ in range(300)]
    terms += [parse_term(text) for text in FIXTURE_TERMS + COLLIDING_TERMS]
    for t in terms:
        assert format_term(t) == recursive_format_term(t)
    # A letrec without bindings, which the grammar has no text for, cannot be built.
    with pytest.raises(ValueError, match="^a letrec needs at least one binding$"):
        App(Letrec((), Var("x")), Abs("y", Var("y")))
    with pytest.raises(TypeError, match="not a term: 3"):
        format_term(App(Abs("x", Var("x")), 3))


@settings(max_examples=100, deadline=None)
@given(closed_terms())
def test_format_term_matches_recursive_format_hypothesis(t):
    assert format_term(t) == recursive_format_term(t)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except TermSyntaxError as exc:
        return ("error", str(exc), exc.position)


def lexed(text):
    # The tokens parse_term reads, up to the end of input, each at the
    # start of its match of the token regex; or its unexpected-character
    # error.
    try:
        parse_term(text)
    except TermSyntaxError as exc:
        if str(exc).startswith("unexpected character"):
            return ("error", str(exc), exc.position)
    except (UnboundVariable, DuplicateBinding):
        pass
    starts = [m.start() for m in _TOKEN.finditer(text) if not m[0].startswith("#")] + [len(text)]
    tokens = _lex(text)
    assert len(tokens) == len(starts)
    return [_Token(_KIND.get(tok, "ident"), tok, at) for tok, at in zip(tokens, starts)]


def assert_same_tokens(text):
    assert lexed(text) == _tokens_or_error(per_character_tokenize, text)


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


# Token characters, keyword letters, a quote, a stray character, and
# ASCII and Unicode whitespace, with U+001C, U+0085, U+2028 and U+3000.
TOKEN_ALPHABET = st.sampled_from("\\.()=;#'$_xyzin letrc0\n\t\u00a0\u2029\u00e9\x1c\x85\u2028\u3000")


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=40))
def test_tokenizer_matches_per_character_scan_hypothesis(text):
    # The tokens up to the end token or the stray refusal, and the offset
    # an error names at each token.
    want = _tokens_or_error(per_character_tokenize, text)
    assert lexed(text) == want
    if type(want) is list:
        assert [_offset(text, k) for k in range(len(want))] == [tok.pos for tok in want]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=20))
def test_tokenizer_matches_per_character_scan_on_any_text(text):
    assert_same_tokens(text)


# The one-pass parser against the two-pass parser it replaced, which
# scanned each letrec binding body before parsing it.


def _outcome(parse, text):
    try:
        return parse(text)
    except (TermSyntaxError, UnboundVariable, DuplicateBinding) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "position", None))


def test_parser_matches_two_pass_parser_on_seeded_and_fixture_terms():
    rng = random.Random(1313)
    terms = [random_term(rng, depth=rng.randint(1, 5)) for _ in range(300)]
    for t in terms:
        text = format_term(t)
        assert parse_term(text) == two_pass_parse_term(text) == t
    for text in FIXTURE_TERMS + COLLIDING_TERMS:
        assert parse_term(text) == two_pass_parse_term(text)


@settings(max_examples=100, deadline=None)
@given(closed_terms())
def test_parser_matches_two_pass_parser_hypothesis(t):
    text = format_term(t)
    assert parse_term(text) == two_pass_parse_term(text) == t


def test_unbound_names_keep_their_outcome():
    # Well-formed texts with some variable occurrences renamed, mostly to
    # a name out of scope there: the same UnboundVariable, same offset.
    rng = random.Random(2013)
    unbound = 0
    for _ in range(400):
        text = format_term(random_term(rng, depth=rng.randint(1, 5)))
        tokens = per_character_tokenize(text)
        names = sorted({tok.text for tok in tokens if tok.kind == "ident"}) + ["zz"]
        uses = [
            tok
            for k, tok in enumerate(tokens)
            if tok.kind == "ident" and tokens[k - 1].kind != "lambda" and tokens[k + 1].kind != "eq"
        ]
        for tok in sorted(rng.sample(uses, min(len(uses), 3)), key=lambda tok: -tok.pos):
            text = text[: tok.pos] + rng.choice(names) + text[tok.pos + len(tok.text) :]
        old = _outcome(two_pass_parse_term, text)
        assert _outcome(parse_term, text) == old
        unbound += isinstance(old, tuple)
    assert unbound > 200


# Token soups: keywords, punctuation, a few names, and chunks that make
# well-formed prefixes likely.
SOUP_TOKENS = ["\\", ".", "(", ")", "x", "y", "f", "g", "\\x.", "\\y."]
LETREC_TOKENS = ["letrec", "in", "=", ";", "letrec f =", "letrec g =", "f =", "g ="]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=14).map(" ".join))
def test_parser_matches_two_pass_parser_without_letrec(text):
    assert _outcome(parse_term, text) == _outcome(two_pass_parse_term, text)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(SOUP_TOKENS + LETREC_TOKENS), max_size=14).map(" ".join))
def test_parser_accepts_what_two_pass_parser_accepts(text):
    new, old = _outcome(parse_term, text), _outcome(two_pass_parse_term, text)
    assert isinstance(new, Term) == isinstance(old, Term)
    if isinstance(new, Term):
        assert new == old


# The loop over an explicit stack against the recursive one-pass parser
# it replaced: the same term, or the same error, message and offset.


def test_parser_matches_recursive_parser_on_mutated_terms():
    rng = random.Random(1717)
    outcomes = collections.Counter()
    for _ in range(1500):
        text = format_term(random_term(rng, depth=rng.randint(1, 5)))
        tokens = [tok.text for tok in per_character_tokenize(text)][:-1]
        # Binding names, so that some renamings repeat one in a group.
        heads = [k for k in range(len(tokens) - 1) if tokens[k + 1] == "="]
        for _ in range(rng.randint(0, 3)):
            k = rng.randrange(len(tokens))
            other = rng.choice(SOUP_TOKENS + LETREC_TOKENS + tokens)
            if heads and rng.random() < 0.2:
                tokens[rng.choice(heads)] = tokens[rng.choice(heads)]
            elif rng.random() < 0.3:
                del tokens[k]
            elif rng.random() < 0.5:
                tokens.insert(k, other)
            else:
                tokens[k] = other
        text = " ".join(tokens)
        new = _outcome(parse_term, text)
        assert new == _outcome(recursive_parse_term, text)
        outcomes["Term" if isinstance(new, Term) else new[0]] += 1
    assert set(outcomes) == {"Term", "TermSyntaxError", "UnboundVariable", "DuplicateBinding"}, outcomes


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(SOUP_TOKENS + LETREC_TOKENS + ["#c\n", "\u00e9", "'"]), max_size=14).map(" ".join))
def test_parser_matches_recursive_parser_on_token_soups(text):
    assert _outcome(parse_term, text) == _outcome(recursive_parse_term, text)


# Malformed letrec groups: the one-pass parser reports where the group's
# parse stops, where the two-pass parser's scan named the group as a whole.
@pytest.mark.parametrize(
    "text, message, old_message",
    [
        (
            r"letrec f = x",
            "expected in, found 'end of input' (at offset 12)",
            "unterminated letrec (at offset 12)",
        ),
        (
            r"letrec f = g . \x. x in f",
            "expected in, found '.' (at offset 13)",
            "unbound variable 'g' (at offset 11)",
        ),
        (
            r"letrec f = \x. x) in f",
            "expected in, found ')' (at offset 16)",
            "unbalanced ')' (at offset 16)",
        ),
        (
            r"letrec f = (\x. x in f) in f",
            "expected rpar, found 'in' (at offset 18)",
            "'in' without letrec (at offset 18)",
        ),
        (
            r"letrec f = \x. x . x in f",
            "expected in, found '.' (at offset 17)",
            "malformed letrec binding (at offset 11)",
        ),
        (
            r"letrec f = (letrec g = \x. x; g = \y. y in g); f = \z. z in f",
            "duplicate letrec binding 'g' (at offset 30)",
            "duplicate letrec binding 'f' (at offset 47)",
        ),
    ],
)
def test_malformed_letrec_messages(text, message, old_message):
    assert _outcome(parse_term, text)[1] == message
    assert _outcome(recursive_parse_term, text)[1] == message
    assert _outcome(two_pass_parse_term, text)[1] == old_message


def test_unbound_name_in_a_binding_waits_for_its_group():
    # A later binding of the group, or of an enclosing group, binds it.
    assert parse_term(r"letrec f = (letrec g = h in g); h = \x. x in f")
    assert parse_term(r"letrec f = (letrec g = \x. x in h g); h = \x. x in f")
    # No group binds it: reported at its own offset when the last open
    # group closes, before anything after that group is read.
    text = r"\y. (letrec f = (letrec g = h in g); k = \x. x in f) z"
    with pytest.raises(UnboundVariable) as err:
        parse_term(text)
    assert (err.value.name, err.value.position) == ("h", text.index("h"))
    # An inner group's names end with that group.
    with pytest.raises(UnboundVariable) as err:
        parse_term(r"letrec f = (letrec g = \x. x in g) g in f")
    assert err.value.position == 35


# Depth: the parser, format_term and the terms' ==, hash and repr keep
# their own stacks, so nesting depth is bounded by memory, not the
# recursion limit.
DEEP = 10_000


def _parse_within_a_second(text):
    start = time.perf_counter()
    t = parse_term(text)
    assert time.perf_counter() - start < 1.0
    assert format_term(t) == text
    return t


def test_parse_term_takes_a_deep_right_nest():
    t = _parse_within_a_second("\\x. " + "x (" * (DEEP - 1) + "x x" + ")" * (DEEP - 1))
    assert isinstance(t, Abs) and t.name == "x"
    t = t.body
    for _ in range(DEEP):
        assert isinstance(t, App) and t.fun == Var("x")
        t = t.arg
    assert t == Var("x")


def test_parse_term_takes_a_deep_tower():
    t = _parse_within_a_second("".join(f"\\x{i}. " for i in range(DEEP)) + " ".join(f"x{i}" for i in range(DEEP)))
    for i in range(DEEP):
        assert isinstance(t, Abs) and t.name == f"x{i}"
        t = t.body
    for i in reversed(range(1, DEEP)):
        assert isinstance(t, App) and t.arg == Var(f"x{i}")
        t = t.fun
    assert t == Var("x0")


def test_parse_term_takes_deep_letrecs_in_body_position():
    t = _parse_within_a_second("letrec a = \\x. x in " * DEEP + "a")
    for _ in range(DEEP):
        assert isinstance(t, Letrec) and t.bindings == (("a", Abs("x", Var("x"))),)
        t = t.body
    assert t == Var("a")


def test_parse_term_takes_deep_letrecs_in_binding_position():
    t = _parse_within_a_second("letrec g = " * DEEP + "\\x. x" + " in g" * DEEP)
    for _ in range(DEEP):
        assert isinstance(t, Letrec) and [name for name, _ in t.bindings] == ["g"] and t.body == Var("g")
        t = t.bindings[0][1]
    assert t == Abs("x", Var("x"))


class _CountingTokens(list):
    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_letrecs_in_binding_position_read_each_token_boundedly():
    # Scanning each binding body before parsing it reads these tokens
    # Θ(n²) times in all; one pass reads each a bounded number of times.
    n = 450
    text = "letrec g = " * n + "\\x. x" + " in g" * n
    tokens = _CountingTokens(_lex(text))
    t = _parse(tokens, text)
    for _ in range(n):
        assert [name for name, _ in t.bindings] == ["g"] and t.body == Var("g")
        t = t.bindings[0][1]
    assert t == Abs("x", Var("x"))
    assert tokens.reads <= 3 * len(tokens)


def test_eq_hash_and_repr_are_the_generated_dataclass_methods():
    # Against the same terms built from plain frozen dataclasses: the same
    # repr text, the same hash, and the same verdict of == and != on pairs
    # that are equal, differ in one name, or differ in shape.
    rng = random.Random(1906)
    texts = [RUNNING_TERM] + FIXTURE_TERMS + COLLIDING_TERMS
    terms = [parse_term(text) for text in texts] + [random_term(rng) for _ in range(300)]
    copies = [(t, parse_term(format_term(t))) for t in terms]
    pairs = copies + [(t, u) for t in terms for u in rng.sample(terms, 5)]
    # Hand-built: a shared subterm, and pairs one name or one binding
    # apart.  A group cannot be empty.
    x, shared = Var("x"), Abs("y", Var("y"))
    with pytest.raises(ValueError, match="^a letrec needs at least one binding$"):
        Letrec((), x)
    built = [
        (App(shared, shared), App(Abs("y", Var("y")), shared)),
        (Letrec((("f", shared),), x), Letrec((("f", shared),), Var("x"))),
        (Letrec((("f", shared),), x), Letrec((("f", shared), ("g", shared)), x)),
        (Letrec((("f", shared), ("g", shared)), x), Letrec((("f", shared), ("h", shared)), x)),
        (Abs("x", x), Abs("y", x)),
        (App(x, App(x, x)), App(x, App(x, Var("y")))),
    ]
    terms += [t for pair in built for t in pair]
    pairs += built
    for t in terms:
        assert repr(t) == repr(dataclass_record(t)) and hash(t) == hash(dataclass_record(t))
    for t, u in pairs:
        ref_t, ref_u = dataclass_record(t), dataclass_record(u)
        assert ((t == u), (t != u)) == ((ref_t == ref_u), (ref_t != ref_u)), (t, u)
    assert all(t == u for t, u in copies) and not all(t == u for t, u in pairs)
    assert Var("x") != Abs("x", Var("x")) and Var("x") != "x" and Var("x") != dataclass_record(Var("x"))


# Per family: the text, a change to the last occurrence of a word in it
# (deepest in the term), and the number of variable occurrences.
_DEEP_FAMILIES = {
    "right_nest": ("\\x. " + "x (" * (DEEP - 1) + "x x" + ")" * (DEEP - 1), "x x", "x \\y. y", DEEP + 1),
    "tower": (
        "".join(f"\\x{i}. " for i in range(DEEP)) + " ".join(f"x{i}" for i in range(DEEP)),
        f"x{DEEP - 1}",
        "x0",
        DEEP,
    ),
    "letrecs_in_body_position": ("letrec a = \\x. x in " * DEEP + "a", "\\x. x", "\\y. y", DEEP + 1),
    "letrecs_in_binding_position": (
        "letrec g = " * DEEP + "\\x. x" + " in g" * DEEP,
        "\\x. x",
        "\\y. y",
        DEEP + 1,
    ),
}


@pytest.mark.parametrize("family", _DEEP_FAMILIES)
def test_deep_terms_compare_hash_and_print(family):
    text, old, new, occurrences = _DEEP_FAMILIES[family]
    t, u = parse_term(text), parse_term(text)
    head, _, tail = text.rpartition(old)
    other = parse_term(head + new + tail)
    assert t == u and t != other and hash(t) == hash(u)
    assert repr(t).count("Var(name=") == occurrences
