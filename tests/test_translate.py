import random
import sys
import time

import pytest
from hypothesis import given, settings

from conftest import RUNNING_TERM, RUNNING_EAGER_SCOPES
from generators import (
    COLLIDING_TERMS,
    FIXTURE_TERMS,
    SCOPING_TERMS,
    closed_terms,
    letrec_body_chain,
    random_term,
    reverse_letrec_chain,
    table_less_copy,
)
from oracles import _Resolver as _SetResolver
from oracles import (
    _fixpoint_compute_fv,
    _mark_live,
    name_keyed_term_to_graph,
    per_vertex_eager_at,
    per_vertex_fully_back_linked,
)

from lamgraph import (
    Abs,
    App,
    DegenerateBinding,
    DuplicateBinding,
    InternalValidationFailure,
    Label,
    Letrec,
    UnboundVariable,
    Var,
    format_term,
    infer_prefix,
    is_eager_scope,
    is_fully_back_linked,
    is_lambda_term_graph,
    isomorphic,
    parse_graph,
    parse_term,
    prefix_to_scope,
    strip_delimiters,
    term_to_graph,
)
from lamgraph.delimited import _Builder
from lamgraph.translate import _ABS, _APP, _LETREC, _REF, _VAR, _analyze
from translate_parity import failure as translate_failure


def test_identity_pair_example():
    dg = term_to_graph(parse_term(r"(\x.x)(\y.y)"))
    expected = parse_graph(
        "sig 1 2\nroot a\na @ b b'\nb lam v\nv 0 b\nb' lam v'\nv' 0 b'\n"
    ).graph
    assert dg.graph.vertex_count == 5
    assert isomorphic(dg.graph, expected) is not None
    assert is_eager_scope(dg) and is_fully_back_linked(dg)


def test_vacuous_binder_gets_delimiter(eager_nested):
    dg = term_to_graph(parse_term(r"\x.\y.y"))
    assert dg.graph.vertex_count == 4
    assert isomorphic(dg.graph, eager_nested) is not None


def test_running_term_translation(running_carrier, running_eager):
    dg = term_to_graph(parse_term(RUNNING_TERM))
    # Golden shape: the eleven syntactic vertices plus four delimiters.
    assert dg.graph.vertex_count == 15
    assert len(dg.graph.vertices_labeled(Label.DEL)) == 4
    stripped = strip_delimiters(dg)
    iso = isomorphic(stripped.graph, running_carrier)
    assert iso is not None
    scoped = prefix_to_scope(stripped)
    expected = {
        running_carrier.id_of(v): frozenset(running_carrier.id_of(m) for m in ms)
        for v, ms in RUNNING_EAGER_SCOPES.items()
    }
    assert {iso[v]: frozenset(iso[m] for m in ms) for v, ms in scoped.scopes.items()} == expected


# Frozen after hand-checking the shape: eleven syntactic vertices, one
# delimiter closing y before the x-g application, one closing x before
# the shared entry of g, one closing x before entering z's abstraction,
# and one closing z above its body.  The two letrec entries (f, g) come
# first: binding vertices are allocated before their bodies are filled.
RUNNING_GOLDEN = """\
sig 1 2
root f
f lam a
g lam u!
a @ y s.4
y lam a.2
a.2 @ y! s.2
y! 0 y
a.3 @ x! s
x! 0 f
s S g f
s.2 S a.3 y
z lam s.3
a.4 @ g f
s.3 S a.4 z
s.4 S z f
u! 0 g
"""


def test_running_term_golden_document():
    from lamgraph import serialize_graph

    dg = term_to_graph(parse_term(RUNNING_TERM))
    assert serialize_graph(dg.graph) == RUNNING_GOLDEN


def test_translation_deterministic():
    a = term_to_graph(parse_term(RUNNING_TERM))
    b = term_to_graph(parse_term(RUNNING_TERM))
    assert a.graph == b.graph and a.prefixes == b.prefixes


def test_letrec_cycle_becomes_direct_edge():
    dg = term_to_graph(parse_term(r"letrec f = \x. x f in f"))
    g = dg.graph
    # One abstraction, one application, one variable, and one delimiter:
    # the back-edge to f must close x's scope on the way (f is closed),
    # so the cycle runs through a single delimiter, with no copying.
    assert g.vertex_count == 4
    (lam,) = g.vertices_labeled(Label.ABS)
    (app,) = g.vertices_labeled(Label.APP)
    (dl,) = g.vertices_labeled(Label.DEL)
    assert g.args[app][1] == dl and g.args[dl][0] == lam


def test_mutual_recursion():
    dg = term_to_graph(parse_term(r"letrec f = \x. g x; g = \y. f y in f"))
    g = dg.graph
    assert is_lambda_term_graph(g)
    assert len(g.vertices_labeled(Label.ABS)) == 2


def test_unreferenced_binding_dropped():
    plain = term_to_graph(parse_term(r"\x.x"))
    with_dead = term_to_graph(parse_term(r"letrec dead = \y.y y in \x.x"))
    assert isomorphic(plain.graph, with_dead.graph) is not None


def test_alias_binding_resolved():
    direct = term_to_graph(parse_term(r"letrec f = \x.x in f f"))
    aliased = term_to_graph(parse_term(r"letrec f = \x.x; h = f in h f"))
    assert isomorphic(direct.graph, aliased.graph) is not None


def test_alias_cycle_rejected():
    with pytest.raises(DegenerateBinding):
        term_to_graph(parse_term(r"letrec f = g; g = f in f"))
    message = r"^letrec binding defined only through a cycle of names$"
    with pytest.raises(DegenerateBinding, match=message):
        term_to_graph(parse_term(r"letrec a = b; b = c; c = a in a"))


def test_long_alias_chain_resolves():
    # Nothing here is nested: the chain of bare names is followed in a
    # loop, and every alias on it gets the entry at its end.
    n = 10**4
    aliases = "; ".join(f"a{i} = a{i + 1}" for i in range(n))
    dg = term_to_graph(parse_term(f"letrec {aliases}; a{n} = b; b = \\x. x in a0 (a{n // 2} a{n})"))
    assert dg.graph.vertex_count == 4
    assert len(dg.graph.vertices_labeled(Label.ABS)) == 1


def test_letrec_names_end_with_their_letrec():
    # Built by hand: the translator parses the printed form, which reports
    # the name at its offset there.
    t = App(Letrec((("f", Abs("x", Var("x"))),), Var("f")), Var("f"))
    with pytest.raises(UnboundVariable) as err:
        term_to_graph(t)
    assert (err.value.name, err.value.position) == ("f", len(format_term(t)) - 1)
    shadowing = term_to_graph(parse_term(r"\f. (letrec f = \x. x in f) f"))
    assert isomorphic(shadowing.graph, term_to_graph(parse_term(r"\f. (\x. x) f")).graph)


def test_hand_built_duplicate_binding_is_refused():
    # The translator parses the printed form, which refuses the second f
    # at its offset there.
    t = Letrec((("f", Abs("x", Var("x"))), ("f", Abs("y", App(Var("y"), Var("y"))))), Var("f"))
    with pytest.raises(DuplicateBinding) as err:
        term_to_graph(t)
    assert err.value.name == "f" and err.value.position == format_term(t).index("; f") + 2
    # The same name in a nested group shadows; it is no duplicate.
    inner = Letrec((("f", Abs("y", Var("y"))),), Var("f"))
    assert term_to_graph(Letrec((("f", Abs("x", Var("x"))),), App(inner, Var("f"))))


@pytest.mark.parametrize(
    "t, error",
    [
        (Abs("yy", App(Var("yy"), Var("y"))), UnboundVariable),
        (Letrec((("f", App(Var("g"), Var("f"))),), Var("f")), UnboundVariable),
        (Abs("x", Letrec((("g", Var("x")), ("h", Var("x")), ("g", Var("h"))), Var("g"))), DuplicateBinding),
        (Letrec((("f", Letrec((("g", Var("f")), ("g", Var("f"))), Var("g"))),), Var("f")), DuplicateBinding),
    ],
)
def test_a_hand_built_term_is_refused_at_its_offset_in_its_printed_form(t, error):
    with pytest.raises(error) as err:
        term_to_graph(t)
    assert err.value.position > 0
    assert format_term(t)[err.value.position:].startswith(err.value.name)


def test_variable_shaped_binding():
    dg = term_to_graph(parse_term(r"\x. letrec f = x in f f"))
    assert is_lambda_term_graph(dg.graph)
    # Both occurrences of f share one variable vertex.
    assert len(dg.graph.vertices_labeled(Label.VAR)) == 1


def test_nested_letrec_in_binding_position():
    flat = term_to_graph(parse_term(r"letrec g = \x.x; f = g g in f"))
    nested = term_to_graph(parse_term(r"letrec f = letrec g = \x.x in g g in f"))
    assert isomorphic(flat.graph, nested.graph) is not None


def test_doubly_nested_letrec_in_binding_position():
    towers = term_to_graph(
        parse_term(r"letrec f = letrec g = \x.x in letrec h = g g in h h in f")
    )
    flat = term_to_graph(
        parse_term(r"letrec g = \x.x; h = g g; f = h h in f")
    )
    assert isomorphic(towers.graph, flat.graph) is not None


def test_reference_through_scope_needs_delimiters():
    # g is closed but referenced under two binders: two delimiters pop
    # x and y on the way to the shared entry.
    dg = term_to_graph(parse_term(r"letrec g = \u.u in \x.\y. y (g x)"))
    assert is_eager_scope(dg)
    dels = dg.graph.vertices_labeled(Label.DEL)
    assert len(dels) == 2


def test_shadowing_translation():
    dg = term_to_graph(parse_term(r"\x.\x.x"))
    g = dg.graph
    # The occurrence links to the inner abstraction; the outer one is
    # closed by a delimiter.
    inner = [v for v in g.vertices_labeled(Label.VAR)]
    assert len(inner) == 1
    target = g.args[inner[0]][0]
    assert g.labels[target] is Label.ABS
    assert len(g.vertices_labeled(Label.DEL)) == 1


def _alpha_rename(t, suffix):
    if isinstance(t, Var):
        return Var(t.name + suffix)
    if isinstance(t, App):
        return App(_alpha_rename(t.fun, suffix), _alpha_rename(t.arg, suffix))
    if isinstance(t, Abs):
        return Abs(t.name + suffix, _alpha_rename(t.body, suffix))
    if isinstance(t, Letrec):
        return Letrec(
            tuple((n + suffix, _alpha_rename(b, suffix)) for n, b in t.bindings),
            _alpha_rename(t.body, suffix),
        )
    raise TypeError(t)


def test_alpha_invariance_fixed_terms():
    for text in (r"\x.\y.y", RUNNING_TERM, r"letrec f = \x. x f in f"):
        t = parse_term(text)
        a = term_to_graph(t)
        b = term_to_graph(_alpha_rename(t, "_renamed"))
        assert isomorphic(a.graph, b.graph) is not None


def test_translation_fuzz_valid_eager_fbl():
    rng = random.Random(500)
    for _ in range(120):
        t = random_term(rng, depth=rng.randint(1, 6), max_bindings=4)
        dg = term_to_graph(t)
        assert is_lambda_term_graph(dg.graph)
        assert is_eager_scope(dg)
        assert is_fully_back_linked(dg)


def test_translation_fuzz_alpha_invariance():
    rng = random.Random(501)
    for _ in range(40):
        t = random_term(rng, depth=rng.randint(1, 4))
        a = term_to_graph(t)
        b = term_to_graph(_alpha_rename(t, "_r"))
        assert isomorphic(a.graph, b.graph) is not None


def test_lazy_translation_valid_but_not_always_eager():
    rng = random.Random(502)
    saw_non_eager = False
    for _ in range(60):
        t = random_term(rng, depth=rng.randint(1, 5))
        dg = name_keyed_term_to_graph(t, rng=rng)
        assert is_lambda_term_graph(dg.graph)
        if not is_eager_scope(dg):
            saw_non_eager = True
    assert saw_non_eager


@settings(max_examples=60, deadline=None)
@given(closed_terms())
def test_translation_hypothesis_closed_terms(term):
    dg = term_to_graph(term)
    assert is_eager_scope(dg) and is_fully_back_linked(dg)
    _assert_same_translation(dg, name_keyed_term_to_graph(term))
    _assert_same_analysis(term)


def test_letrecs_nested_in_body_position_translate_in_linear_time():
    # The liveness pass must visit each letrec body once, not 2^d times.
    t = parse_term(letrec_body_chain(40))
    start = time.perf_counter()
    dg = term_to_graph(t)
    assert time.perf_counter() - start < 1.0
    # Every binding is dead: only \x. x remains.
    assert dg.graph.vertex_count == 2


def _lazy_translations(term):
    """The oracle's lazy translations of ``term`` on seeds 0 to 99."""
    return (name_keyed_term_to_graph(term, rng=random.Random(s)) for s in range(100))


def test_non_eager_translation_names_a_witness(monkeypatch):
    # Make the builder hand back the oracle's lazy translation, which
    # keeps scopes open.  term_to_graph runs no eager check, so it hands
    # the graph on; the parity check must refuse it and name a vertex
    # that really fails.
    import lamgraph.translate as translate

    term = parse_term(r"\x. \y. (\z. z) (x x)")
    lazy = next(dg for dg in _lazy_translations(term) if not is_eager_scope(dg))
    monkeypatch.setattr(translate._Builder, "finish", lambda self, root, variant: lazy)
    w, message = translate_failure(term_to_graph(term))
    assert not per_vertex_eager_at(lazy, w)
    assert f"{lazy.graph.names[w]} reaches no occurrence" in message


def test_flat_letrec_parses_and_translates_in_linear_time():
    # The parser and the resolver extend one scope per binder and restore
    # it on exit, and the duplicate check is a set lookup.
    n = 2 * 10**4
    text = "letrec " + "; ".join(f"a{i} = \\x. x" for i in range(n)) + f" in a{n - 1}"
    start = time.perf_counter()
    dg = term_to_graph(parse_term(text))
    assert time.perf_counter() - start < 4.0
    # Every binding but the last is dead.
    assert dg.graph.vertex_count == 2


def test_reverse_letrec_chain_translates_in_linear_time():
    t = parse_term(reverse_letrec_chain(2000))
    start = time.perf_counter()
    dg = term_to_graph(t)
    assert time.perf_counter() - start < 2.0
    # y; per binding an abstraction, an application, an occurrence of z
    # and a delimiter closing z before the next binding; and f2000 = y.
    assert dg.graph.vertex_count == 1 + 4 * 2000 + 1
    small = parse_term(reverse_letrec_chain(30))
    _assert_same_translation(term_to_graph(small), name_keyed_term_to_graph(small))
    # The oracle's fixpoint takes n rounds on this chain, so compare at n = 300.
    _assert_same_analysis(parse_term(reverse_letrec_chain(300)))


# ---------------------------------------------------------------------------
# The translator on ids against the name-keyed one it replaced: same
# graph, same ids, same names, same prefix function.


def _assert_same_translation(new, old):
    a, b = new.graph, old.graph
    assert a.variant == b.variant
    assert a.labels == b.labels
    assert a.args == b.args
    assert a.root == b.root
    assert a.names == b.names
    assert new.prefixes == old.prefixes == infer_prefix(a)[0]


_KIND_CLASS = {_VAR: "_RVar", _REF: "_RRef", _APP: "_RApp", _ABS: "_RAbs", _LETREC: "_RLetrec"}


def _assert_same_analysis(t) -> list[list[str]]:
    """The library's analysis and the oracle's fixpoint plus liveness walk
    give every node the same free binders and every letrec the same live
    bindings.  The table of the term's printed form is read beside the
    oracle's tree: a library mask maps to the oracle's binder ids through
    the depths of the abstractions around the node, and a library binding
    to the oracle's by its place in its group.  Returns, for each letrec
    node, outermost first, the names of its live bindings in group
    order."""
    tab, ref = parse_term(format_term(t))._table, _SetResolver()
    b = ref.resolve(t, {})
    mask, live = _analyze(tab)
    _fixpoint_compute_fv(b, ref.binding_term)
    _mark_live(b)
    assert len(mask) == len(tab.kind)
    letrecs = []
    # Each pair comes with the oracle's binder ids in scope, by depth.
    stack = [(len(tab.kind) - 1, b, ())]
    while stack:
        i, y, scope = stack.pop()
        kind, data = tab.kind[i], tab.data[i]
        assert _KIND_CLASS[kind] == type(y).__name__
        assert 0 <= mask[i] < 1 << len(scope)
        assert {scope[d] for d in range(len(scope)) if mask[i] >> d & 1} == y.fv
        if kind == _APP:
            stack += [(data, y.fun, scope), (i - 1, y.arg, scope)]
        elif kind == _ABS:
            assert data == len(scope)
            stack.append((i - 1, y.body, scope + (y.binder,)))
        elif kind == _LETREC:
            pairs = list(zip(tab.groups[i], y.bindings, strict=True))
            assert [tab.name[p] for p, _ in pairs] == [q[1] for _, q in pairs]
            # The oracle never visits a letrec inside a dead binding.
            assert frozenset(q[0] for p, q in pairs if p in live) == getattr(y, "live", frozenset())
            letrecs.append([tab.name[p] for p, _ in pairs if p in live])
            stack += [(tab.term[p], q[2], scope) for p, q in pairs]
            stack.append((i - 1, y.body, scope))
    return letrecs


@pytest.mark.parametrize(
    "text, live",
    [
        # Spliced from binding position, dead, aliased, and a letrec inside
        # a dead binding, whose own body's reference does not make g live.
        (r"letrec f = letrec g = \x.x; d = \y.y in g g in f", [{"f", "g"}]),
        (r"letrec dead = \y.y y in \x.x", [set()]),
        (r"letrec f = \x.x; h = f in h f", [{"f", "h"}]),
        (r"letrec d = \y. letrec g = \z. z g y in g; f = \x. x in f", [{"f"}, set()]),
    ],
)
def test_analysis_live_bindings(text, live):
    assert [set(names) for names in _assert_same_analysis(parse_term(text))] == live


def test_translation_matches_name_keyed_oracle_seeded():
    for seed in range(300):
        t = random_term(random.Random(seed), depth=random.Random(-seed).randint(1, 5))
        _assert_same_translation(term_to_graph(t), name_keyed_term_to_graph(t))
        _assert_same_analysis(t)


@pytest.mark.parametrize("text", FIXTURE_TERMS + COLLIDING_TERMS)
def test_translation_matches_name_keyed_oracle_on_fixture_terms(text):
    t = parse_term(text)
    _assert_same_translation(term_to_graph(t), name_keyed_term_to_graph(t))
    _assert_same_analysis(t)


def test_colliding_names_are_minted_around():
    names = term_to_graph(parse_term(COLLIDING_TERMS[0])).graph.names
    assert len(set(names)) == len(names)
    assert not {"sig", "root", "prefix", "scope"} & set(names)
    assert {"a", "a.2", "s", "s.2", "scope.2", "sig.2", "prefix.2"} <= set(names)
    # No binder, parsed or built by hand, has a dot, so none can take a
    # name minted for an earlier vertex.
    with pytest.raises(ValueError, match=r"^not an identifier: 'a\.2'$"):
        Abs("a.2", Var("a.2"))


# The parser's scan fills the table that term_to_graph reads; a term
# without one, such as a copy built by its constructor, is printed and
# parsed into one.  Its graph must be the parsed root's and the
# name-keyed oracle's.


def _assert_copy_translates_as_parsed(t):
    parsed = parse_term(format_term(t))
    copy = table_less_copy(t)
    assert "_table" not in vars(copy)
    dg = term_to_graph(copy)
    _assert_same_translation(dg, term_to_graph(parsed))
    _assert_same_translation(dg, name_keyed_term_to_graph(copy))


def test_a_table_less_copy_translates_as_the_parsed_root_seeded():
    for seed in range(300):
        rng = random.Random(seed)
        _assert_copy_translates_as_parsed(random_term(rng, depth=rng.randint(1, 5)))


@pytest.mark.parametrize("text", FIXTURE_TERMS + COLLIDING_TERMS)
def test_a_table_less_copy_translates_as_the_parsed_root_on_fixture_terms(text):
    _assert_copy_translates_as_parsed(parse_term(text))


@settings(max_examples=60, deadline=None)
@given(closed_terms())
def test_a_table_less_copy_translates_as_the_parsed_root_hypothesis(t):
    _assert_copy_translates_as_parsed(t)


@pytest.mark.parametrize("text", SCOPING_TERMS)
def test_a_table_less_copy_translates_as_the_parsed_root_on_scoping_terms(text):
    _assert_copy_translates_as_parsed(parse_term(text))


# Hand-built terms reach the translator through their printed form.


@pytest.mark.parametrize(
    "family", ["spine", "right_nest", "letrecs_in_body_position", "letrecs_in_binding_position"]
)
def test_a_deep_hand_built_term_translates_as_its_text(family):
    # Built in a loop and translated through its printed form, at the
    # default recursion limit.
    assert sys.getrecursionlimit() <= 1000
    x, ident = Var("x"), Abs("x", Var("x"))
    t, grow = {
        "spine": (x, lambda t: App(t, x)),
        "right_nest": (x, lambda t: App(x, t)),
        "letrecs_in_body_position": (Var("a"), lambda t: Letrec((("a", ident),), t)),
        "letrecs_in_binding_position": (ident, lambda t: Letrec((("g", t),), Var("g"))),
    }[family]
    for _ in range(10**4):
        t = grow(t)
    if family in ("spine", "right_nest"):
        t = Abs("x", t)
    _assert_same_translation(term_to_graph(t), term_to_graph(parse_term(format_term(t))))


def test_a_term_shared_under_two_binders_translates_as_its_copy():
    # One object under the outer x and under an inner x: its x, its
    # letrec and its free-binder masks differ between the two places, so
    # nothing may be cached by the object's identity.
    shared = Letrec((("f", Abs("y", App(Var("y"), Var("x")))),), App(Var("f"), Var("x")))
    t = Abs("x", App(shared, Abs("x", App(shared, Var("x")))))
    copy = parse_term(format_term(t))
    assert copy == t and copy.body.fun is not copy.body.arg.body.fun
    _assert_same_translation(term_to_graph(t), term_to_graph(copy))
    _assert_same_analysis(t)


def test_a_field_that_is_no_term_is_refused():
    with pytest.raises(TypeError, match=r"^not a term: 3$"):
        term_to_graph(App(Abs("x", Var("x")), 3))


def test_a_hand_built_spine_translates_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    spine = Var("q")
    for _ in range(10**5):
        spine = App(spine, Var("q"))
    dg = term_to_graph(Abs("q", spine))
    # The abstraction, the applications and one occurrence per q.
    assert dg.graph.vertex_count == 1 + 10**5 + 10**5 + 1


# ---------------------------------------------------------------------------
# A translation's names and words are derived where they are first read.
# The seeded and fixture comparisons above read them first, against the
# reference and against inference.


def _unread(dg) -> bool:
    return "prefixes" not in vars(dg) and "names" not in vars(dg.graph)


def test_a_translation_behaves_the_same_read_or_not():
    import copy
    import pickle

    term = parse_term(RUNNING_TERM)
    read, unread = term_to_graph(term), term_to_graph(term)
    assert _unread(read) and _unread(unread)
    assert read.graph.names and read.prefixes and not _unread(read)
    copies = [copy.copy(unread), pickle.loads(pickle.dumps(unread))]
    graphs = [copy.copy(unread.graph), pickle.loads(pickle.dumps(unread.graph))]
    assert all(map(_unread, [unread, *copies]))
    assert not any("names" in vars(g) for g in graphs)
    for x in [unread, *copies]:
        assert x == read and hash(x) == hash(read) and repr(x) == repr(read)
    for g in [unread.graph, *graphs]:
        assert g == read.graph and hash(g) == hash(read.graph) and repr(g) == repr(read.graph)
    assert unread.prefixes == read.prefixes == infer_prefix(read.graph)[0]


def test_equivalence_mints_no_name_and_builds_no_word(monkeypatch):
    from lamgraph import are_bisimilar
    from lamgraph.core import _Minter

    calls = []
    fresh_name = _Minter.fresh_name
    monkeypatch.setattr(_Minter, "fresh_name", lambda self, base: calls.append(base) or fresh_name(self, base))
    t1 = parse_term(RUNNING_TERM)
    t2 = parse_term(r"letrec f = \x. x f in f")
    g1, g2 = term_to_graph(t1), term_to_graph(t2)
    are_bisimilar(g1.graph, g2.graph)
    are_bisimilar(g1.graph, g1.graph)
    assert calls == [] and _unread(g1) and _unread(g2)
    # Reading them mints every name once and derives the words.
    assert g1.graph.names == name_keyed_term_to_graph(t1).graph.names
    assert len(calls) == g1.graph.vertex_count
    assert g1.prefixes == infer_prefix(g1.graph)[0]


# ---------------------------------------------------------------------------
# The one check term_to_graph makes on what it emitted, the builder's
# comparison of each vertex's innermost binder with the inferred one,
# refuses a corrupt edge and an unreachable vertex.  Eagerness and full back-linking hold by
# construction; tests/translate_parity.py checks them, and so do the
# tests below.


def test_corrupt_emitted_edge_is_refused(monkeypatch):
    # The application's two edges share the binding's vertex f, so
    # pointing the second one at the root x leaves every vertex
    # reachable; a forces its binder x on x, whose binder is none, and
    # no correct prefix function exists.
    import lamgraph.translate as translate

    finish = translate._Builder.finish

    def retarget_second_argument(self, root, variant):
        app = self.labels.index(Label.APP)
        assert self.succ[app][0] == self.succ[app][1] != root
        self.succ[app] = (self.succ[app][0], root)
        return finish(self, root, variant)

    monkeypatch.setattr(translate._Builder, "finish", retarget_second_argument)
    with pytest.raises(InternalValidationFailure, match=r"^not a valid delimited lambda graph: prefix-conflict at a, x$"):
        term_to_graph(parse_term(r"\x. letrec f = x in f f"))


def test_unreachable_emitted_vertex_is_refused(monkeypatch):
    # Two orphan occurrences of x on the base "a", ahead of the emitted
    # vertices and so of the application, which takes that base too: the
    # message names the orphans by their minted names, not by their bases.
    import lamgraph.translate as translate

    def builder_with_orphan_occurrences():
        # The abstraction the emitter appends first, x, gets id 2.
        b = _Builder()
        for _ in range(2):
            b.bases.append("a")
            b.labels.append(Label.VAR)
            b.inner.append(2)
            b.succ.append((2,))
        return b

    monkeypatch.setattr(translate, "_Builder", builder_with_orphan_occurrences)
    with pytest.raises(
        InternalValidationFailure, match=r"^translator left unreachable vertices: \('a', 'a\.2'\)$"
    ):
        term_to_graph(parse_term(r"\x. x x"))


def test_not_fully_back_linked_emission_is_refused(monkeypatch):
    # Keeping x open over \y.y leaves y with prefix (x) and no way back to
    # x.  That graph is valid, so inference takes it; the parity check
    # refuses it through the eager check, which implies full back-linking
    # (see tests/translate_parity.py).
    import lamgraph.translate as translate

    term = parse_term(r"\x. \y. y")
    lazy = next(dg for dg in _lazy_translations(term) if not per_vertex_fully_back_linked(dg))
    monkeypatch.setattr(translate._Builder, "finish", lambda self, root, variant: lazy)
    w, message = translate_failure(term_to_graph(term))
    assert not per_vertex_eager_at(lazy, w)
    assert message.endswith("y reaches no occurrence of x within its scope")


@pytest.mark.parametrize("text", FIXTURE_TERMS + COLLIDING_TERMS)
def test_translation_passes_the_parity_checks_on_fixture_terms(text):
    assert translate_failure(term_to_graph(parse_term(text))) is None


@settings(max_examples=60, deadline=None)
@given(closed_terms())
def test_translation_passes_the_parity_checks_on_hypothesis_terms(term):
    assert translate_failure(term_to_graph(term)) is None
