"""The root that ``parse_term`` returns holds only the table of its scan
until a field is read; then the whole term is read back from the table.
These tests pin what the command route builds (no term object) and that
a read-back term is the term an eager parse would have built."""

import copy
import dataclasses
import pickle
import sys

import pytest

from generators import COLLIDING_TERMS, FIXTURE_TERMS, SCOPING_TERMS
from oracles import two_pass_parse_term

from lamgraph import Abs, App, Letrec, Var, format_term, parse_term, term_to_graph

DEPTH = 10**4


def _splice_chain(n):
    # x = letrec y0 = ... in letrec y1 = ... in ... y(n-1): n groups
    # spliced into one binding's term, in body position.
    t = Var(f"y{n - 1}")
    for i in reversed(range(n)):
        t = Letrec(((f"y{i}", Var(f"y{i - 1}") if i else Abs("u", Var("u"))),), t)
    return Letrec((("x", t),), Var("x"))


def _splice_nest(n):
    # g = letrec g = ... in g: each group spliced into a binding of the
    # group spliced before it.
    t = Abs("x", Var("x"))
    for _ in range(n):
        t = Letrec((("g", t),), Var("g"))
    return t


def _spine(n):
    t = Var("q")
    for _ in range(n):
        t = App(t, Var("q"))
    return Abs("q", t)


def _right_nest(n):
    t = Var("x")
    for _ in range(n):
        t = App(Var("x"), t)
    return Abs("x", t)


def _letrecs_in_body_position(n):
    t = Var("a")
    for _ in range(n):
        t = Letrec((("a", Abs("x", Var("x"))),), t)
    return t


# Terms 10^4 deep, each built eagerly in a loop.
DEEP = {
    "spine": _spine,
    "right_nest": _right_nest,
    "letrecs_in_body_position": _letrecs_in_body_position,
    "splice_chain": _splice_chain,
    "splice_nest": _splice_nest,
}

# Hand-built terms of the shapes the readback must put back: a letrec
# in parentheses as function or argument, in and out of binding
# position, and names that wait for their group's "in".
SHAPES = {
    r"(letrec a = \x. x in a) (letrec b = \y. y in b)": App(
        Letrec((("a", Abs("x", Var("x"))),), Var("a")),
        Letrec((("b", Abs("y", Var("y"))),), Var("b")),
    ),
    r"letrec f = (letrec a = \x. x in a) (letrec b = \y. y in b) in f": Letrec(
        (("f", App(Letrec((("a", Abs("x", Var("x"))),), Var("a")), Letrec((("b", Abs("y", Var("y"))),), Var("b")))),),
        Var("f"),
    ),
    r"letrec f = (letrec a = \x. x in a) in f": Letrec(
        (("f", Letrec((("a", Abs("x", Var("x"))),), Var("a"))),), Var("f")
    ),
    r"letrec a = \z. b z; b = \x. x in a": Letrec(
        (("a", Abs("z", App(Var("b"), Var("z")))), ("b", Abs("x", Var("x")))), Var("a")
    ),
    r"\y. letrec a = \z. y b; b = \x. x y; y = \w. w in a": Abs(
        "y",
        Letrec(
            (
                ("a", Abs("z", App(Var("y"), Var("b")))),
                ("b", Abs("x", App(Var("x"), Var("y")))),
                ("y", Abs("w", Var("w"))),
            ),
            Var("a"),
        ),
    ),
    # b waits at the inner group's "in" and on in the outer group's.
    r"letrec a = letrec c = \x. b x in c; b = \y. y in a": Letrec(
        (("a", Letrec((("c", Abs("x", App(Var("b"), Var("x")))),), Var("c"))), ("b", Abs("y", Var("y")))),
        Var("a"),
    ),
}

TEXTS = FIXTURE_TERMS + COLLIDING_TERMS + SCOPING_TERMS + list(SHAPES)


def _unread(t):
    return set(vars(t)) == {"_table"}


def _read(t):
    getattr(t, next(iter(t.__dataclass_fields__)))
    return t


@pytest.mark.parametrize("text", TEXTS)
def test_the_command_route_builds_no_term(text):
    t = parse_term(text)
    term_to_graph(t)
    assert _unread(t)


@pytest.mark.parametrize("family", DEEP)
def test_the_command_route_builds_no_term_deep(family):
    t = parse_term(format_term(DEEP[family](DEPTH)))
    term_to_graph(t)
    assert _unread(t)


@pytest.mark.parametrize("family", DEEP)
def test_a_deep_readback_is_the_eager_term(family):
    assert sys.getrecursionlimit() <= 1000
    want = DEEP[family](DEPTH)
    t = parse_term(format_term(want))
    assert t == want and hash(t) == hash(want)
    assert type(t) is type(want)


@pytest.mark.parametrize("text", list(SHAPES))
def test_the_readback_puts_back_spliced_and_waiting_names(text):
    t = parse_term(text)
    assert t == SHAPES[text] and repr(t) == repr(SHAPES[text]) and hash(t) == hash(SHAPES[text])


@pytest.mark.parametrize("text", TEXTS)
def test_the_readback_is_the_eagerly_parsed_term(text):
    want = two_pass_parse_term(text)
    assert parse_term(text) == want
    assert repr(parse_term(text)) == repr(want)


def test_one_field_read_fills_every_field():
    t = parse_term(r"letrec f = \x. x in f f")
    assert _unread(t)
    assert t.body == App(Var("f"), Var("f"))
    assert set(vars(t)) == {"_table", "bindings", "body"}
    assert t.bindings == (("f", Abs("x", Var("x"))),)
    with pytest.raises(AttributeError, match="'Letrec' object has no attribute 'nope'"):
        t.nope
    unread = parse_term(r"\x. x")
    with pytest.raises(AttributeError):
        unread.nope
    assert _unread(unread)
    with pytest.raises(AttributeError):
        Var("x")._table


OPERATIONS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda t: pickle.loads(pickle.dumps(t)),
    "replace": dataclasses.replace,
}


@pytest.mark.parametrize("op", OPERATIONS)
@pytest.mark.parametrize("text", FIXTURE_TERMS + SCOPING_TERMS)
def test_an_unread_root_copies_as_a_read_one(op, text):
    read = _read(parse_term(text))
    assert not _unread(read)
    f = OPERATIONS[op]
    from_unread, from_read = f(parse_term(text)), f(read)
    # A copy keeps the table, unread where its original was; a replace
    # is a new term, with none.
    assert _unread(from_unread) == (op != "replace")
    assert ("_table" in vars(from_read)) == (op != "replace")
    assert type(from_unread) is type(from_read)
    assert from_unread == from_read == read
    assert term_to_graph(from_unread).graph == term_to_graph(read).graph


@pytest.mark.parametrize("text", FIXTURE_TERMS + SCOPING_TERMS)
def test_an_unread_root_compares_hashes_and_prints_as_a_read_one(text):
    read = _read(parse_term(text))
    assert parse_term(text) == read and read == parse_term(text)
    assert not parse_term(text) != read
    assert hash(parse_term(text)) == hash(read)
    assert repr(parse_term(text)) == repr(read)
