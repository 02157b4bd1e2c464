import collections
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DELIM_SHARED,
    EAGER_NESTED,
    LAZY_NESTED,
    RUNNING_CARRIER,
    RUNNING_EAGER_PREFIXES,
    RUNNING_EAGER_SCOPES,
    RUNNING_LAZY_SCOPES,
)
from generators import random_term
from oracles import name_keyed_parse_graph, name_keyed_term_to_graph, per_character_writable
from parse_parity import corpus_docs, outcome
from test_cli import _DOC_SNIPPETS, _mutate

from lamgraph import (
    FormatError,
    GraphDocument,
    parse_graph,
    serialize_graph,
    strip_delimiters,
    term_to_graph,
)
from lamgraph.textfmt import RESERVED_NAMES, _writable


CANONICAL_DOCS = [
    "sig 0\nroot a\na @ b b\nb lam c\nc 0\n",
    EAGER_NESTED,
    LAZY_NESTED,
    DELIM_SHARED,
    RUNNING_CARRIER,
]


def test_serialize_parse_round_trip_verbatim():
    for text in CANONICAL_DOCS:
        doc = parse_graph(text)
        assert serialize_graph(doc) == text
        assert parse_graph(serialize_graph(doc)) == doc


def test_round_trip_with_annotations():
    dg = term_to_graph_example()
    doc = GraphDocument(dg.graph, prefixes=dg.prefixes)
    assert parse_graph(serialize_graph(doc)) == doc
    pg = strip_delimiters(dg)
    from lamgraph import prefix_to_scope

    sg = prefix_to_scope(pg)
    doc2 = GraphDocument(sg.graph, scopes=sg.scopes)
    assert parse_graph(serialize_graph(doc2)) == doc2
    both = GraphDocument(pg.graph, prefixes=pg.prefixes, scopes=sg.scopes)
    assert parse_graph(serialize_graph(both)) == both


def term_to_graph_example():
    from lamgraph import parse_term

    return term_to_graph(parse_term(r"\x.\y. y (x x)"))


def test_round_trip_full_fixture_corpus():
    from conftest import corpus_graphs

    for g in corpus_graphs():
        doc = GraphDocument(g)
        again = parse_graph(serialize_graph(doc))
        assert again.graph == g


def test_round_trip_random_translations():
    rng = random.Random(600)
    for _ in range(30):
        t = random_term(rng, depth=3)
        dg = name_keyed_term_to_graph(t, rng=rng) if rng.random() < 0.5 else term_to_graph(t)
        doc = GraphDocument(dg.graph, prefixes=dg.prefixes)
        assert parse_graph(serialize_graph(doc)) == doc


def test_whitespace_and_comments_tolerated():
    messy = "# header\n\n  sig 0   \nroot   a\n a @ b b   # app\nb lam c\nc 0\n\n"
    doc = parse_graph(messy)
    assert serialize_graph(doc) == "sig 0\nroot a\na @ b b\nb lam c\nc 0\n"


def test_reserved_vertex_names_rejected_on_write():
    from lamgraph import SignatureVariant, build, Label

    g = build(
        SignatureVariant(0, None),
        {"scope": Label.ABS, "c": Label.VAR},
        {"scope": ["c"], "c": []},
        "scope",
    )
    with pytest.raises(FormatError):
        serialize_graph(g)


def test_writable_names_match_the_per_character_test():
    # Every single code point: those that whitespace, '#' and the braces
    # rule out are refused one by one, and all the others pass as one
    # name, which either test accepts only if it accepts each character.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    ruled_out = {c for c in everything if c.isspace() or c in "#{}"}
    for c in ruled_out:
        assert not _writable(c) and not per_character_writable(c), hex(ord(c))
    rest = "".join(c for c in everything if c not in ruled_out)
    assert _writable(rest) and per_character_writable(rest)
    # Then names of up to six characters drawn from the ones the test
    # treats specially, some of them whitespace only to str.isspace
    # (U+001C, U+0085, U+2028, U+3000).
    rng = random.Random(15)
    alphabet = ["a", "Z", "0", ".", "!", "é", " ", "\t", "\n", "\x1c", "\x85", "\xa0",
                "\u2028", "\u3000", "#", "{", "}", "sig", "root", "scope", "prefix"]
    names = ["", *RESERVED_NAMES, "sig.2", "roots", "a b", "a#b", "{a}", "a\u3000", "a\nb"]
    names += ["".join(rng.choices(alphabet, k=rng.randrange(7))) for _ in range(5000)]
    assert [x for x in names if _writable(x) != per_character_writable(x)] == []
    assert _writable("x!.2") and not _writable("a\u2028b") and not _writable("")


def test_serializer_refuses_the_first_unwritable_name():
    # The serializer tests all names at once, as one newline-joined text;
    # a name that holds a newline must not pass there as two names.
    from lamgraph import Label, SignatureVariant, build

    unwritable = ["a\nb", "\na", "a\n", "", "a b", "a#b", "{a}", "a\u2028b", *RESERVED_NAMES]
    pool = ["a", "b.2", "x!", "é"] + unwritable
    rng = random.Random(33)
    for _ in range(2000):
        names = rng.sample(pool, rng.randint(1, 4))
        g = build(
            SignatureVariant(0, None),
            dict.fromkeys(names, Label.ABS),
            {name: [names[(k + 1) % len(names)]] for k, name in enumerate(names)},
            names[0],
        )
        bad = [name for name in names if name in unwritable]
        if not bad:
            assert parse_graph(serialize_graph(g)).graph == g
            continue
        with pytest.raises(FormatError, match=f"^vertex name {re.escape(repr(bad[0]))} cannot"):
            serialize_graph(g)


def test_reserved_binder_names_translate_and_round_trip():
    from lamgraph import parse_term

    dg = term_to_graph(
        parse_term(r"letrec root = \sig. sig root; scope = \prefix. prefix in root scope")
    )
    doc = GraphDocument(dg.graph, prefixes=dg.prefixes)
    assert parse_graph(serialize_graph(doc)) == doc


def test_compact_scope_braces():
    spaced = parse_graph("sig 0\nroot r\nr lam c\nc 0\nscope r = { r c }\n")
    compact = parse_graph("sig 0\nroot r\nr lam c\nc 0\nscope r = {r c}\n")
    assert spaced == compact


def test_arity_error_carries_line_number():
    bad = "sig 0\nroot a\na @ b\nb lam a\n"
    with pytest.raises(FormatError) as err:
        parse_graph(bad)
    assert err.value.line_no == 3
    assert "successors" in str(err.value)


def test_missing_header_lines():
    with pytest.raises(FormatError):
        parse_graph("root a\na lam a\n")
    with pytest.raises(FormatError):
        parse_graph("sig 0\na lam a\n")


def test_unknown_label_and_duplicates():
    with pytest.raises(FormatError):
        parse_graph("sig 0\nroot a\na beta a\n")
    with pytest.raises(FormatError):
        parse_graph("sig 0\nroot a\na lam a\na lam a\n")
    with pytest.raises(FormatError):
        parse_graph("sig 0\nsig 0\nroot a\na lam a\n")


def test_forbidden_delimiter_in_variant():
    with pytest.raises(FormatError):
        parse_graph("sig 0\nroot a\na lam s\ns S a\n")


def test_unreachable_vertex_rejected():
    with pytest.raises(FormatError):
        parse_graph("sig 0\nroot a\na lam a\nb lam b\n")


def test_prefix_line_validation():
    with pytest.raises(FormatError):
        parse_graph("sig 0\nroot a\na lam a\nprefix ghost = a\n")
    with pytest.raises(FormatError):
        parse_graph("sig 0\nroot a\na lam a\nprefix a = a\nprefix a = a\n")


def test_scope_line_validation():
    with pytest.raises(FormatError):
        parse_graph("sig 0\nroot a\na lam a\nscope a = { ghost }\n")
    # Scope on a non-abstraction vertex: domain mismatch.
    with pytest.raises(FormatError):
        parse_graph("sig 0\nroot r\nr lam c\nc 0\nscope c = { c }\n")


# Each refusal of a malformed line, with the line it names (the root
# and header checks run after the last line, so they name line 1).
@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("sig 0 x\nroot a\na lam a\n", 1, "expected 'sig i' or 'sig i j'"),
        ("sig 0\nroot a\nroot a\na lam a\n", 3, "duplicate root line"),
        ("sig 0\nroot a b\na lam a\n", 2, "expected 'root name'"),
        ("sig 0\nroot a\na lam a\nprefix a a\n", 4, "expected 'prefix v = entries...'"),
        ("sig 0\nroot a\na lam a\nscope a = a\n", 4, "expected 'scope v = { members... }'"),
        ("sig 0\nroot a\na lam a\nb\n", 4, "expected 'name label successors...'"),
        ("sig 0\nroot b\na lam a\n", 1, "root 'b' is not declared"),
        (
            "sig 0\nroot a\na lam a\nscope a = { a }\nscope a = { a }\n",
            5,
            "duplicate scope line for 'a'",
        ),
    ],
)
def test_malformed_lines_are_refused_at_their_line(text, line_no, message):
    with pytest.raises(FormatError) as info:
        parse_graph(text)
    assert (info.value.line_no, str(info.value)) == (line_no, f"line {line_no}: {message}")


def _agree(text: str) -> str:
    # The same document, with the same key order in its prefix and scope
    # maps, or the same exception type, message and line number.
    ours = outcome(parse_graph, text)
    assert ours == outcome(name_keyed_parse_graph, text), text
    return ours[0]


def test_parse_graph_matches_the_name_keyed_reference():
    docs = corpus_docs()
    rng = random.Random(1905)
    mutated = [_mutate(rng.choice(docs), _DOC_SNIPPETS, rng) for _ in range(3000)]
    assert {_agree(text) for text in docs} == {"parsed", "refused"}
    assert collections.Counter(map(_agree, mutated))["parsed"] > 200


# Line soups: the running carrier's lines in any order, any of its scope
# and prefix lines (braces compact or spaced, some with a comment), and
# up to two stray lines, whole lines of the kinds a document holds or
# words drawn from its vocabulary, with braces and comments anywhere.
_CARRIER_LINES = RUNNING_CARRIER.splitlines()
_NOTE_LINES = [f"scope {v} = {{{' '.join(sorted(ws))}}}" for v, ws in RUNNING_EAGER_SCOPES.items()]
_NOTE_LINES += [
    f"scope {v} = {{ {' '.join(sorted(ws))} }}  # lazy" for v, ws in RUNNING_LAZY_SCOPES.items()
]
_NOTE_LINES += [f"prefix {v} = {' '.join(w)}" for v, w in RUNNING_EAGER_PREFIXES.items()]
_STRAY_LINES = ["a lam b", "b @ c c", "c 0", "s S a", "f lam f", "root b", "sig 1", "c 0 # v",
                "scope a = { a b c }", "scope f = {f}", "prefix vu = ghost", "prefix f =", "b {lam} c"]
_STRAY_WORDS = ["sig", "root", "prefix", "scope", "f", "a", "g", "lam", "@", "0", "S", "1", "2",
                "=", "{", "}", "{f", "g}", "#", "x#y", "\t", "\u3000"]
_STRAY = st.one_of(
    st.sampled_from(_STRAY_LINES),
    st.lists(st.sampled_from(_STRAY_WORDS), max_size=7).map(" ".join),
)


@settings(max_examples=200, deadline=None)
@given(
    st.permutations(_CARRIER_LINES),
    st.lists(st.sampled_from(_NOTE_LINES), unique=True),
    st.lists(_STRAY, max_size=2),
    st.data(),
)
def test_parse_graph_matches_the_reference_on_line_soups(carrier, notes, strays, data):
    lines = carrier + notes
    for line in strays:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    _agree("\n".join(lines))
