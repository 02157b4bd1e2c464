import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RUNNING_TERM, RUNNING_EAGER_SCOPES
from generators import random_term
from oracles import per_vertex_eager_at

from lamgraph import (
    Abs,
    App,
    DegenerateBinding,
    InternalValidationFailure,
    Label,
    Letrec,
    Var,
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
        dg = term_to_graph(t, rng=rng)
        assert is_lambda_term_graph(dg.graph)
        if not is_eager_scope(dg):
            saw_non_eager = True
    assert saw_non_eager


# Hypothesis over closed terms: variables only refer to binders in
# scope, letrec bindings are abstractions.


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_translation_hypothesis_closed_terms(data):
    def gen(depth, scope):
        options = ["abs"]
        if scope:
            options.append("var")
        if depth > 0:
            options += ["app", "letrec"]
        kind = data.draw(st.sampled_from(options))
        if kind == "var":
            return Var(data.draw(st.sampled_from(sorted(scope))))
        if kind == "abs":
            name = f"x{depth}_{data.draw(st.integers(0, 3))}"
            if depth == 0:
                return Abs(name, Var(name))
            return Abs(name, gen(depth - 1, scope | {name}))
        if kind == "app":
            return App(gen(depth - 1, scope), gen(depth - 1, scope))
        names = [f"f{depth}_{i}" for i in range(data.draw(st.integers(1, 2)))]
        inner = scope | set(names)
        bindings = tuple(
            (n, Abs(f"y{depth}_{i}", gen(depth - 1, inner | {f"y{depth}_{i}"})))
            for i, n in enumerate(names)
        )
        return Letrec(bindings, gen(depth - 1, inner))

    term = gen(data.draw(st.integers(1, 4)), frozenset())
    dg = term_to_graph(term)
    assert is_eager_scope(dg) and is_fully_back_linked(dg)


def _letrec_body_chain(d: int) -> str:
    lets = "".join(f"letrec f{i} = \\y{i}. y{i} x in " for i in range(d))
    return f"\\x. {lets}x"


def test_letrecs_nested_in_body_position_translate_in_linear_time():
    # The liveness pass must visit each letrec body once, not 2^d times.
    t = parse_term(_letrec_body_chain(40))
    start = time.perf_counter()
    dg = term_to_graph(t)
    assert time.perf_counter() - start < 1.0
    # Every binding is dead: only \x. x remains.
    assert dg.graph.vertex_count == 2


def test_non_eager_translation_names_a_witness(monkeypatch):
    # Make the translator keep scopes open while term_to_graph still
    # expects an eager result, so its post-check must reject the graph
    # and name a vertex that really fails.
    import lamgraph.translate as translate

    term = parse_term(r"\x. \y. (\z. z) (x x)")
    seed = next(
        s for s in range(100)
        if not is_eager_scope(term_to_graph(term, rng=random.Random(s)))
    )
    lazy = term_to_graph(term, rng=random.Random(seed))
    init = translate._Translator.__init__

    def keep_scopes_open(self, rng):
        init(self, random.Random(seed))

    monkeypatch.setattr(translate._Translator, "__init__", keep_scopes_open)
    with pytest.raises(InternalValidationFailure) as info:
        term_to_graph(term)
    name = re.search(r"graph: (\S+) reaches no occurrence", str(info.value)).group(1)
    assert not per_vertex_eager_at(lazy, lazy.graph.names.index(name))
