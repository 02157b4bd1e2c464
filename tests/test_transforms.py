import random

import pytest
from hypothesis import given, settings

from generators import graphs, random_graph, random_scopes, random_term
from oracles import name_keyed_term_to_graph

from lamgraph import (
    DelimitedGraph,
    Label,
    PrefixedGraph,
    ScopedGraph,
    SignatureVariant,
    find_homomorphism,
    forget,
    insert_delimiters,
    is_label_restricted,
    is_lambda_term_graph,
    isomorphic,
    num_delimiters,
    parse_graph,
    prefix_to_scope,
    scope_to_prefix,
    strip_delimiters,
    term_to_graph,
    validate_prefix_ho,
    validate_scope,
)
from conftest import RUNNING_EAGER_PREFIXES


def by_name(g, prefixes):
    return {g.name_of(v): tuple(g.name_of(x) for x in word) for v, word in prefixes.items()}


def scopes_by_name(g, scopes):
    return {g.name_of(v): frozenset(g.name_of(m) for m in members) for v, members in scopes.items()}


def test_scope_to_prefix_running_example(running_eager):
    pg = scope_to_prefix(running_eager)
    assert pg.graph is running_eager.graph
    assert by_name(pg.graph, pg.prefixes) == RUNNING_EAGER_PREFIXES


def test_scope_to_prefix_running_lazy(running_lazy):
    pg = scope_to_prefix(running_lazy)
    assert by_name(pg.graph, pg.prefixes) == {
        "f": (),
        "a": ("f",),
        "ly": ("f",),
        "b1": ("f", "ly"),
        "vy": ("f", "ly"),
        "b2": ("f", "ly"),
        "vx": ("f",),
        "lz": ("f",),
        "c": ("f", "lz"),
        "g": ("f",),
        "vu": ("f", "g"),
    }


def test_scope_to_prefix_single_lambda(single_lambda):
    sg = ScopedGraph.checked(single_lambda, {"r": {"r", "c"}})
    pg = scope_to_prefix(sg)
    assert by_name(single_lambda, pg.prefixes) == {"r": (), "c": ("r",)}


def test_prefix_to_scope_single_lambda(single_lambda):
    pg = PrefixedGraph.checked(single_lambda, {"r": (), "c": ("r",)})
    sg = prefix_to_scope(pg)
    assert scopes_by_name(single_lambda, sg.scopes) == {"r": frozenset({"r", "c"})}


def test_scope_prefix_round_trips(running_eager, running_lazy):
    for sg in (running_eager, running_lazy):
        assert prefix_to_scope(scope_to_prefix(sg)) == sg
    pg = scope_to_prefix(running_lazy)
    assert scope_to_prefix(prefix_to_scope(pg)) == pg


def test_num_delimiters(single_lambda, inner_user_doc, running_eager):
    sg = ScopedGraph.checked(single_lambda, {"r": {"r", "c"}})
    pg = scope_to_prefix(sg)
    assert num_delimiters(pg, "r", 0) == 0
    inner = PrefixedGraph.checked(inner_user_doc.graph, inner_user_doc.prefixes)
    assert num_delimiters(inner, "b2", 0) == 1
    # Variable edges never need delimiters.
    run = scope_to_prefix(running_eager)
    assert num_delimiters(run, "vy", 0) == 0
    # Application edge dropping one entry.
    assert num_delimiters(run, "a", 1) == 1


def _valid_prefixed(rng):
    """Random valid prefix functions: the stripped lazy and eager
    translations of a random term, and those of a random graph, its
    inferred ones where it is a delimited lambda graph, else a random
    scope function that happens to be valid."""
    t = random_term(rng, depth=rng.randint(1, 4))
    yield strip_delimiters(name_keyed_term_to_graph(t, rng=rng))
    yield strip_delimiters(term_to_graph(t))
    g = random_graph(rng)
    if g.variant.del_arity is None:
        scopes = random_scopes(rng, g)
        if validate_scope(g, scopes).passed:
            yield scope_to_prefix(ScopedGraph.checked(g, scopes))
    elif is_lambda_term_graph(g):
        yield strip_delimiters(DelimitedGraph.from_graph(g))


def test_num_delimiters_is_the_word_length_drop():
    rng = random.Random(108)
    seen = 0
    for _ in range(300):
        for a in _valid_prefixed(rng):
            g, words = a.graph, a.prefixes
            for w, k, wk in g.edges():
                push = {Label.APP: 0, Label.ABS: 1}.get(g.labels[w])
                drop = 0 if push is None else len(words[w]) + push - len(words[wk])
                assert num_delimiters(a, w, k) == num_delimiters(a, g.names[w], k) == drop
                seen += drop > 0
    assert seen > 100


def test_insert_delimiters_inner_user():
    # \x.\y.x with the inner scope closing late: one delimiter under b2,
    # back-linking to b2 when delimiters carry back-links.
    carrier = parse_graph("sig 1\nroot b1\nb1 lam b2\nb2 lam v\nv 0 b1\n").graph
    pg = PrefixedGraph.checked(
        carrier, {"b1": (), "b2": ("b1",), "v": ("b1",)}
    )
    expected2 = parse_graph(
        "sig 1 2\nroot b1\nb1 lam b2\nb2 lam s\ns S v b2\nv 0 b1\n"
    ).graph
    out2 = insert_delimiters(pg, 2)
    assert isomorphic(out2.graph, expected2) is not None
    expected1 = parse_graph(
        "sig 1 1\nroot b1\nb1 lam b2\nb2 lam s\ns S v\nv 0 b1\n"
    ).graph
    out1 = insert_delimiters(pg, 1)
    assert isomorphic(out1.graph, expected1) is not None


def test_insert_delimiters_no_drop_is_identity(single_lambda):
    sg = ScopedGraph.checked(single_lambda, {"r": {"r", "c"}})
    out = insert_delimiters(scope_to_prefix(sg), 1)
    assert out.graph.vertex_count == 2
    assert not out.graph.vertices_labeled(Label.DEL)
    assert isomorphic(
        out.graph,
        parse_graph("sig 0 1\nroot r\nr lam c\nc 0\n").graph,
    )


def test_insert_delimiters_running_example(running_eager):
    # The running example's eager assignment needs four delimiter chains
    # of one vertex each, reproducing the translator's output.
    fo = insert_delimiters(scope_to_prefix(running_eager), 2)
    assert fo.graph.vertex_count == 15
    assert len(fo.graph.vertices_labeled(Label.DEL)) == 4
    from lamgraph import parse_term
    from conftest import RUNNING_TERM

    direct = term_to_graph(parse_term(RUNNING_TERM))
    assert isomorphic(fo.graph, direct.graph) is not None


def test_strip_delimiters_running_example(running_eager, running_carrier):
    fo = insert_delimiters(scope_to_prefix(running_eager), 2)
    back = strip_delimiters(fo)
    iso = isomorphic(back.graph, running_carrier)
    assert iso is not None
    expected = scope_to_prefix(running_eager)
    assert all(
        tuple(iso[x] for x in back.prefixes[v]) == expected.prefixes[iso[v]]
        for v in back.graph.vertices()
    )


def test_strip_delimiters_identifies_sharing_degrees(delim_sharing_pair):
    shared, unshared = delim_sharing_pair
    a = strip_delimiters(DelimitedGraph.from_graph(shared))
    b = strip_delimiters(DelimitedGraph.from_graph(unshared))
    iso = isomorphic(a.graph, b.graph)
    assert iso is not None
    assert all(
        tuple(iso[x] for x in a.prefixes[v]) == b.prefixes[iso[v]]
        for v in a.graph.vertices()
    )


def test_strip_delimiter_free_graph(lazy_nested):
    dg = DelimitedGraph.from_graph(lazy_nested)
    pg = strip_delimiters(dg)
    assert pg.graph.vertex_count == lazy_nested.vertex_count
    assert by_name(pg.graph, pg.prefixes) == by_name(dg.graph, dg.prefixes)


def test_forget(running_eager, running_lazy, single_lambda):
    assert forget(running_eager) is forget(running_lazy)
    sg = ScopedGraph.checked(single_lambda, {"r": {"r", "c"}})
    assert forget(sg) is single_lambda
    assert forget(scope_to_prefix(sg)) is single_lambda


def test_forget_preserves_but_does_not_reflect_sharing(nonext_pair):
    from conftest import NONEXT_SOURCE_PREFIXES_LAZY

    source, target = nonext_pair
    lazy = PrefixedGraph.checked(source, NONEXT_SOURCE_PREFIXES_LAZY)
    t_prefixes, _ = _unique_prefix_function(target)
    t = PrefixedGraph.checked(target, t_prefixes)
    h = find_homomorphism(forget(lazy), forget(t))
    assert h is not None  # carriers are related ...
    from lamgraph import lift_homomorphism

    assert not lift_homomorphism(h, lazy, t)  # ... but the annotated graphs are not


def _unique_prefix_function(g):
    # Delimiter-free graphs over (1,none): enumerate prefix functions via
    # scope functions (they correspond one to one).
    from oracles import all_scope_functions

    found = [
        scope_to_prefix(ScopedGraph(g, sc)).prefixes for sc in all_scope_functions(g)
    ]
    assert len(found) == 1
    return found[0], None


def _random_prefixed(seed, count, max_vertices=16):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lazy = rng.random() < 0.5
        t = random_term(rng, depth=rng.randint(1, 4))
        dg = name_keyed_term_to_graph(t, rng=rng) if lazy else term_to_graph(t)
        pg = strip_delimiters(dg)
        if pg.graph.vertex_count <= max_vertices:
            out.append((pg, dg))
    return out


def test_round_trip_strip_after_insert_random():
    for pg, _ in _random_prefixed(300, 40):
        for j in (1, 2):
            fo = insert_delimiters(pg, j)
            back = strip_delimiters(fo)
            iso = isomorphic(back.graph, pg.graph)
            assert iso is not None
            assert all(
                tuple(iso[x] for x in back.prefixes[v]) == pg.prefixes[iso[v]]
                for v in back.graph.vertices()
            )


def test_insertion_words_equal_inference_on_every_variant():
    # insert_delimiters takes each vertex's innermost binder from the
    # words it holds, and each chain delimiter's from the entry it pops;
    # the words derived from them are the ones inference finds, with and
    # without variable and delimiter back-links.
    from generators import erase_backlinks

    from lamgraph import infer_prefix

    seen = set()
    for pg, _ in _random_prefixed(303, 80):
        g = pg.graph
        unlinked = erase_backlinks(g, 0, None)
        assert unlinked.names == g.names
        for a in (pg, PrefixedGraph(unlinked, pg.prefixes)):
            for j in (1, 2):
                out = insert_delimiters(a, j)
                assert "prefixes" not in vars(out)
                assert out.prefixes == infer_prefix(out.graph)[0]
                assert out.prefixes.items() >= a.prefixes.items()
                seen.add((a.graph.variant.var_arity, j, out.graph.vertex_count > g.vertex_count))
    # All four (var_arity, j) pairs, with and without delimiters inserted.
    assert seen == {(v, j, d) for v in (0, 1) for j in (1, 2) for d in (False, True)}


def test_insert_after_strip_shares_only_delimiters_random():
    for _, dg in _random_prefixed(301, 40):
        redone = insert_delimiters(strip_delimiters(dg), 2)
        h = find_homomorphism(redone.graph, dg.graph)
        assert h is not None
        assert is_label_restricted(h, redone.graph, Label.DEL)


def test_delimiter_chains_terminate():
    for _, dg in _random_prefixed(302, 30):
        g = dg.graph
        for s in g.vertices_labeled(Label.DEL):
            steps = 0
            u = s
            while g.labels[u] is Label.DEL:
                u = g.args[u][0]
                steps += 1
                assert steps <= g.vertex_count


def test_delimiting_preserves_sharing_order():
    # Related scoped graphs have related delimited forms, with the
    # homomorphism lifting through every representation.
    from generators import random_quotient
    from lamgraph import DelimitedGraph, lift_homomorphism

    rng = random.Random(303)
    for _ in range(20):
        dg = term_to_graph(random_term(rng, depth=3))
        image, _ = random_quotient(dg.graph, rng)
        a1 = strip_delimiters(dg)
        a2 = strip_delimiters(DelimitedGraph.from_graph(image))
        h_ap = find_homomorphism(a1.graph, a2.graph)
        assert h_ap is not None and lift_homomorphism(h_ap, a1, a2)
        s1, s2 = prefix_to_scope(a1), prefix_to_scope(a2)
        assert lift_homomorphism(h_ap, s1, s2)
        d1, d2 = insert_delimiters(a1, 2), insert_delimiters(a2, 2)
        h_fo = find_homomorphism(d1.graph, d2.graph)
        assert h_fo is not None and lift_homomorphism(h_fo, d1, d2)


def test_delimiting_reflects_sharing_order(nonext_pair):
    # The lazily scoped source and the target have a carrier homomorphism
    # but no scoped one; after inserting delimiters even the carriers
    # become unrelated.  With the eager source scopes both levels relate.
    from conftest import NONEXT_SOURCE_PREFIXES_EAGER, NONEXT_SOURCE_PREFIXES_LAZY
    from lamgraph import lift_homomorphism

    source, target = nonext_pair
    target_pg = strip_delimiters(insert_delimiters(_only_prefixing(target), 2))
    lazy = PrefixedGraph.checked(source, NONEXT_SOURCE_PREFIXES_LAZY)
    assert find_homomorphism(source, target) is not None
    assert find_homomorphism(
        insert_delimiters(lazy, 2).graph, insert_delimiters(target_pg, 2).graph
    ) is None
    eager = PrefixedGraph.checked(source, NONEXT_SOURCE_PREFIXES_EAGER)
    h_fo = find_homomorphism(
        insert_delimiters(eager, 2).graph, insert_delimiters(target_pg, 2).graph
    )
    assert h_fo is not None
    assert lift_homomorphism(h_fo, insert_delimiters(eager, 2), insert_delimiters(target_pg, 2))


def _only_prefixing(g):
    from oracles import all_scope_functions
    from lamgraph import ScopedGraph

    (sc,) = all_scope_functions(g)
    return scope_to_prefix(ScopedGraph(g, sc))


# ---------------------------------------------------------------------------
# The id-built transforms against the name-keyed ones they replaced: the
# same graph (labels, arguments, root, names) and the same prefixes.


def _same_as_name_keyed(pg=None, dg=None):
    from oracles import name_keyed_insert_delimiters, name_keyed_strip_delimiters

    if dg is not None:
        got, want = strip_delimiters(dg), name_keyed_strip_delimiters(dg)
        assert got.graph == want.graph and got.prefixes == want.prefixes
        pg = got
    for j in (1, 2):
        got, want = insert_delimiters(pg, j), name_keyed_insert_delimiters(pg, j)
        assert got.graph == want.graph and got.prefixes == want.prefixes
        back, want_back = strip_delimiters(got), name_keyed_strip_delimiters(got)
        assert back.graph == want_back.graph and back.prefixes == want_back.prefixes


def test_transforms_match_name_keyed_on_translations():
    rng = random.Random(304)
    for i in range(300):
        t = random_term(rng, depth=rng.randint(1, 4))
        _same_as_name_keyed(dg=name_keyed_term_to_graph(t, rng=rng) if i % 2 else term_to_graph(t))


def test_transforms_match_name_keyed_on_random_graphs():
    from generators import random_graph
    from lamgraph import is_lambda_term_graph

    rng = random.Random(305)
    checked = 0
    for _ in range(4000):
        g = random_graph(rng, max_vertices=8)
        if g.variant.del_arity is None or not is_lambda_term_graph(g):
            continue
        _same_as_name_keyed(dg=DelimitedGraph.from_graph(g))
        checked += 1
    assert checked >= 150


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_transforms_match_name_keyed_hypothesis(g):
    from lamgraph import is_lambda_term_graph

    if g.variant.del_arity is not None and is_lambda_term_graph(g):
        _same_as_name_keyed(dg=DelimitedGraph.from_graph(g))


# ---------------------------------------------------------------------------
# Hand-built prefixed graphs: the constructor refuses exactly the words the
# higher-order validator refuses, including words that grow along an edge,
# so insertion only ever sees valid words.


def test_insert_delimiters_refuses_a_word_that_grows_along_an_edge():
    # a -> v pushes r onto v's word without passing r's abstraction edge.
    g = parse_graph("sig 1\nroot r\nr lam a\na @ v w\nv 0 r\nw lam u\nu 0 w\n").graph
    words = {"r": (), "a": (), "v": ("r",), "w": (), "u": ("w",)}
    p = {g.id_of(v): tuple(map(g.id_of, word)) for v, word in words.items()}
    report = validate_prefix_ho(g, p)
    assert report.violation_text(g) == "apply at a, v"
    with pytest.raises(ValueError, match="^invalid prefix function: apply at a, v$"):
        PrefixedGraph(g, p)


def test_insert_delimiters_refuses_what_the_validator_refuses():
    from generators import random_graph

    rng = random.Random(306)
    verdicts = {True: 0, False: 0}
    while sum(verdicts.values()) < 1500:
        g = random_graph(rng, max_vertices=6)
        if g.variant.del_arity is not None:
            continue
        abstractions = list(g.vertices_labeled(Label.ABS))
        p = {
            v: tuple(rng.sample(abstractions, rng.randint(0, min(2, len(abstractions)))))
            for v in g.vertices()
        }
        report = validate_prefix_ho(g, p)
        verdicts[report.passed] += 1
        if not report.passed:
            with pytest.raises(ValueError) as refusal:
                PrefixedGraph(g, p)
            assert str(refusal.value) == f"invalid prefix function: {report.violation_text(g)}"
            continue
        for j in (1, 2):
            assert insert_delimiters(PrefixedGraph(g, p), j).prefixes.items() >= p.items()
    assert min(verdicts.values()) >= 200


# ---------------------------------------------------------------------------
# The conversions validate nothing: on valid inputs of every delimited
# variant, each output passes the validator the conversion used to run.


def test_conversions_of_valid_inputs_are_valid():
    from generators import random_graph
    from test_delimited import _random_delimited

    variants = [(i, j) for i in (0, 1) for j in (1, 2)]
    inputs = _random_delimited(311, 200, variants=variants)
    rng = random.Random(312)
    while len(inputs) < 400:
        g = random_graph(rng, max_vertices=8)
        if g.variant.del_arity is not None and is_lambda_term_graph(g):
            inputs.append(DelimitedGraph.from_graph(g))
    seen = set()
    for dg in inputs:
        seen.add(dg.graph.variant)
        a = strip_delimiters(dg)
        assert validate_prefix_ho(a.graph, a.prefixes).passed
        h = prefix_to_scope(a)
        assert validate_scope(h.graph, h.scopes).passed
        back = scope_to_prefix(h)
        assert validate_prefix_ho(back.graph, back.prefixes).passed and back == a
        for j in (1, 2):
            # Insertion keeps every input word.
            assert insert_delimiters(a, j).prefixes.items() >= a.prefixes.items()
    assert seen == {SignatureVariant(i, j) for i, j in variants}


def test_minted_names_skip_taken_ones():
    # The edge a -0-> b leaves a's scope, so it needs one delimiter; its
    # name a.0.s and the first retry a.0.s.2 are vertex names already.
    text = (
        "sig 1\nroot a\na lam b\nb lam a.0.s\na.0.s @ a.0.s.2 v\n"
        "a.0.s.2 0 b\nv 0 b\nscope a = { a }\nscope b = { b a.0.s a.0.s.2 v }\n"
    )
    doc = parse_graph(text)
    pg = scope_to_prefix(ScopedGraph.checked(doc.graph, doc.scopes))
    _same_as_name_keyed(pg=pg)
    for j in (1, 2):
        out = insert_delimiters(pg, j).graph
        assert out.names[len(doc.graph.names):] == ("a.0.s.3",)
