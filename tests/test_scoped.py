import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import graphs, random_graph, random_scopes, random_term, ring_doc, tower_doc
from oracles import (
    all_scope_functions,
    check_scope_nesting,
    name_keyed_term_to_graph,
    per_abstraction_binders,
    per_abstraction_prefix_to_scope,
    per_pair_validate_scope,
    per_vertex_scope_to_prefix,
    simple_root_paths,
)

from lamgraph import (
    DelimitedGraph,
    DomainMismatch,
    GraphDocument,
    GraphError,
    Label,
    PrefixedGraph,
    ScopedGraph,
    SignatureVariant,
    TermGraph,
    binders,
    insert_delimiters,
    is_lambda_term_graph,
    isomorphic,
    lift_homomorphism,
    max_share_ho,
    parse_graph,
    parse_term,
    prefix_to_scope,
    scope_to_prefix,
    strip_delimiters,
    term_to_graph,
    validate_prefix_ho,
    validate_scope,
)
from lamgraph.core import _trusted
from lamgraph.scoped import _binder_tree, normalize_prefix_fn, normalize_scope_fn


def test_validate_scope_shared_form(g0_plain):
    assert validate_scope(g0_plain, {"b": {"b", "c"}}).passed


def test_validate_scope_single_lambda(single_lambda):
    assert validate_scope(single_lambda, {"r": {"r", "c"}}).passed
    report = validate_scope(single_lambda, {"r": {"r"}})
    assert not report.passed
    assert [(v.condition, v.witnesses) for v in report.violations] == [
        ("scope0", (single_lambda.id_of("c"),))
    ]


def test_validate_scope_domain_mismatch(single_lambda):
    with pytest.raises(DomainMismatch):
        validate_scope(single_lambda, {})
    with pytest.raises(DomainMismatch):
        validate_scope(single_lambda, {"r": {"r", "c"}, "c": {"c"}})


def test_validate_scope_reports_all_violations(running_carrier):
    # Remove b1 from f's scope: breaks closedness under the edge b1 -> vy
    # and the nesting of f's and ly's scopes.
    broken = {
        "f": {"f", "a", "ly", "vy", "b2", "vx"},
        "ly": {"ly", "b1", "vy"},
        "lz": {"lz"},
        "g": {"g", "vu"},
    }
    report = validate_scope(running_carrier, broken)
    conditions = {v.condition for v in report.violations}
    assert "closed" in conditions and "nest" in conditions


def test_validate_prefix_ho_shared_form(g0_plain):
    assert validate_prefix_ho(
        g0_plain, {"a": (), "b": (), "c": ("b",)}
    ).passed


def test_validate_prefix_ho_single_lambda(single_lambda):
    assert validate_prefix_ho(single_lambda, {"r": (), "c": ("r",)}).passed


def test_halfshared_admits_no_prefix_function():
    # The shared variable under two distinct abstractions: every prefix
    # assignment fails somewhere (words over the two abstractions are
    # enough: prefix entries are abstraction vertices without repeats).
    g = parse_graph("sig 0\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0\n").graph
    b1, b2 = g.id_of("b1"), g.id_of("b2")
    words = [(), (b1,), (b2,), (b1, b2), (b2, b1)]
    for assignment in itertools.product(words, repeat=4):
        p = dict(zip(g.vertices(), assignment))
        assert not validate_prefix_ho(g, p).passed


def test_binders_examples(single_lambda, g0_plain, running_eager):
    sg = ScopedGraph.checked(single_lambda, {"r": {"r", "c"}})
    assert binders(sg, "c") == [single_lambda.id_of("r")]
    g0 = ScopedGraph.checked(g0_plain, {"b": {"b", "c"}})
    assert binders(g0, "a") == []
    # The y-occurrence in the running example sits under f, then ly.
    g = running_eager.graph
    assert binders(running_eager, "vy") == [g.id_of("f"), g.id_of("ly")]


def test_binders_ordered_by_strict_inclusion(running_eager, running_lazy):
    for sg in (running_eager, running_lazy):
        for w in sg.graph.vertices():
            chain = binders(sg, w)
            for outer, inner in zip(chain, chain[1:]):
                assert sg.scopes[inner] < sg.scopes[outer] - {outer}


def test_binders_of_a_non_vertex_id_are_empty(running_eager):
    n = running_eager.graph.vertex_count
    for w in (-1, n, n + 5):
        assert binders(running_eager, w) == per_abstraction_binders(running_eager, w) == []


def test_check_scope_nesting(single_lambda, running_eager):
    ok = ScopedGraph.checked(single_lambda, {"r": {"r", "c"}})
    assert check_scope_nesting(ok.graph, ok.scopes).passed
    assert check_scope_nesting(running_eager.graph, running_eager.scopes).passed


def test_check_scope_nesting_flags_hole(running_carrier):
    # A scope with a hole fails this diagnostic and validate_scope alike.
    from lamgraph.scoped import normalize_scope_fn

    holey = normalize_scope_fn(
        running_carrier,
        {
            "f": {"f", "a", "ly", "vy", "b2", "vx"},
            "ly": {"ly", "b1", "vy"},
            "lz": {"lz"},
            "g": {"g", "vu"},
        },
    )
    assert not validate_scope(running_carrier, holey).passed
    assert not check_scope_nesting(running_carrier, holey).passed


def _random_prefixed(seed, count, max_vertices=14):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lazy = rng.random() < 0.5
        t = random_term(rng, depth=rng.randint(1, 4))
        dg = name_keyed_term_to_graph(t, rng=rng) if lazy else term_to_graph(t)
        pg = strip_delimiters(dg)
        if pg.graph.vertex_count <= max_vertices:
            out.append(pg)
    return out


def test_prefix_words_facts_on_random_graphs():
    for pg in _random_prefixed(104, 60):
        g = pg.graph
        for w, word in pg.prefixes.items():
            assert all(g.labels[x] is Label.ABS for x in word)
            assert len(set(word)) == len(word)
            assert w not in word


def test_access_paths_pass_through_prefix_entries():
    for pg in _random_prefixed(105, 25, max_vertices=9):
        g = pg.graph
        for w, word in pg.prefixes.items():
            for path in simple_root_paths(g, w):
                for v in word:
                    assert v in path.vertices and path.end != v


def test_validators_insensitive_to_vertex_order(running_carrier):
    # The same carrier rebuilt from a shuffled map gives identical verdicts
    # for the corresponding scope function.
    from lamgraph import build

    g = running_carrier
    rng = random.Random(106)
    names = list(g.names)
    rng.shuffle(names)
    labels = {n: g.labels[g.id_of(n)] for n in names}
    succ = {n: [g.name_of(w) for w in g.args[g.id_of(n)]] for n in names}
    shuffled = build(g.variant, labels, succ, "f")
    from conftest import RUNNING_EAGER_SCOPES, RUNNING_LAZY_SCOPES

    for scopes in (RUNNING_EAGER_SCOPES, RUNNING_LAZY_SCOPES):
        assert validate_scope(shuffled, scopes).passed
    holey = dict(RUNNING_EAGER_SCOPES)
    holey["f"] = RUNNING_EAGER_SCOPES["f"] - {"b1"}
    assert not validate_scope(shuffled, holey).passed
    assert not validate_scope(g, holey).passed


def test_scope_functions_enumeration_matches_two_choices(nonext_pair):
    source, _ = nonext_pair
    found = list(all_scope_functions(source))
    assert len(found) == 2
    sizes = sorted(len(sc[source.id_of("v")]) for sc in found)
    # Eagerly v's scope holds {v, b, z}; lazily it also swallows the
    # inner identity {l2, u2}.
    assert sizes == [3, 5]


def test_scope_prefix_interconversion_on_random_graphs():
    for pg in _random_prefixed(107, 40):
        sg = prefix_to_scope(pg)
        assert scope_to_prefix(sg) == pg


def test_scope_and_prefix_functions_biject_exhaustively():
    # Independent of the round-trip tests: enumerate both sides outright
    # on small graphs and check the conversions match them up.
    from itertools import permutations, product

    from generators import random_graph
    from lamgraph import PrefixedGraph, ScopedGraph

    rng = random.Random(108)
    checked = 0
    while checked < 50:
        g = random_graph(rng, max_vertices=6)
        abs_vs = g.vertices_labeled(Label.ABS)
        if g.variant.del_arity is not None or len(abs_vs) > 2:
            continue
        words = [()] + [w for r in (1, 2) for w in permutations(abs_vs, r)]
        prefix_fns = [
            p
            for combo in product(words, repeat=g.vertex_count)
            if validate_prefix_ho(g, (p := dict(zip(g.vertices(), combo)))).passed
        ]
        scope_fns = list(all_scope_functions(g))
        assert len(prefix_fns) == len(scope_fns)
        image = [scope_to_prefix(ScopedGraph(g, sc)).prefixes for sc in scope_fns]
        assert sorted(map(repr, image)) == sorted(map(repr, prefix_fns))
        for p in prefix_fns:
            sc = prefix_to_scope(PrefixedGraph(g, p)).scopes
            assert scope_to_prefix(ScopedGraph(g, sc)).prefixes == p
        checked += 1


# ---------------------------------------------------------------------------
# The inverted validator and conversions against the per-pair oracles:
# identical reports (violation order included) and identical results.


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, GraphError) as exc:
        return type(exc), str(exc)


def _agree_on_scopes(g, sc, verdicts):
    report = validate_scope(g, sc)
    assert report == per_pair_validate_scope(g, sc)
    verdicts.add(report.passed)
    # The constructor refuses exactly what the validator refuses.
    h = _outcome(ScopedGraph, g, normalize_scope_fn(g, sc))
    if not report.passed:
        assert h == (ValueError, f"invalid scope function: {report.violation_text(g)}")
        return
    # The constructor stores the binder tree of the scopes it validated.
    assert vars(h)["_inner"] == _binder_tree(g, h.scopes)
    for w in g.vertices():
        assert binders(h, w) == per_abstraction_binders(h, w)
    assert scope_to_prefix(h) == per_vertex_scope_to_prefix(h)


def _agree_on_prefixes(g, p):
    report = validate_prefix_ho(g, p)
    a = _outcome(PrefixedGraph, g, normalize_prefix_fn(g, p))
    if not report.passed:
        assert a == (ValueError, f"invalid prefix function: {report.violation_text(g)}")
        return
    assert prefix_to_scope(a) == per_abstraction_prefix_to_scope(a)


def _random_prefixes(rng, g):
    abs_vs = g.vertices_labeled(Label.ABS)
    return {
        w: tuple(rng.sample(abs_vs, rng.randint(0, len(abs_vs)))) for w in g.vertices()
    }


def _toggled(rng, g, sc):
    """sc with one vertex added to or dropped from one scope."""
    v = rng.choice(sorted(sc))
    u = rng.choice(list(g.vertices()))
    out = dict(sc)
    out[v] = sc[v] ^ {u}
    return out


def test_scope_layer_matches_oracles_on_random_graphs():
    rng = random.Random(301)
    verdicts: set = set()
    valid_carriers = random_carriers = 0
    for _ in range(3000):
        g = random_graph(rng, max_vertices=8)
        if g.variant.del_arity is None:
            # A bare carrier: random scope sets and prefix words.
            for _ in range(3):
                _agree_on_scopes(g, random_scopes(rng, g), verdicts)
                _agree_on_prefixes(g, _random_prefixes(rng, g))
            random_carriers += 1
        elif is_lambda_term_graph(g):
            # The stripped carrier of a delimited graph, with the valid
            # scopes of its inferred prefixes and one-vertex edits of them.
            a = strip_delimiters(DelimitedGraph.from_graph(g))
            h = prefix_to_scope(a)
            assert h == per_abstraction_prefix_to_scope(a)
            _agree_on_scopes(a.graph, h.scopes, verdicts)
            if h.scopes:
                _agree_on_scopes(a.graph, _toggled(rng, a.graph, h.scopes), verdicts)
            valid_carriers += 1
    assert valid_carriers >= 100 and random_carriers >= 200
    assert verdicts == {True, False}


def test_scope_layer_matches_oracles_on_translations():
    rng = random.Random(302)
    verdicts: set = set()
    for i in range(400):
        t = random_term(rng, depth=rng.randint(1, 4))
        a = strip_delimiters(name_keyed_term_to_graph(t, rng=rng) if i % 2 else term_to_graph(t))
        h = prefix_to_scope(a)
        assert h == per_abstraction_prefix_to_scope(a)
        assert scope_to_prefix(h) == per_vertex_scope_to_prefix(h) == a
        _agree_on_scopes(a.graph, h.scopes, verdicts)
        if h.scopes:
            _agree_on_scopes(a.graph, _toggled(rng, a.graph, h.scopes), verdicts)
    assert verdicts == {True, False}


def test_conversions_behave_the_same_read_or_not(running_eager):
    # scope_to_prefix, prefix_to_scope and max_share_ho pass a binder tree
    # on; the words and scopes they leave out are derived where first
    # read, so ==, hash, repr, copy and pickle see what the constructors
    # make.
    import copy
    import pickle

    from conftest import RUNNING_EAGER_PREFIXES

    g = running_eager.graph
    given = [PrefixedGraph.checked(g, RUNNING_EAGER_PREFIXES), running_eager]
    a = scope_to_prefix(running_eager)
    made = [a, prefix_to_scope(a)]
    for doc in map(parse_graph, (ring_doc(6), tower_doc(6))):
        h = ScopedGraph(doc.graph, doc.scopes)
        read = max_share_ho(h)
        given.append(ScopedGraph(read.graph, read.scopes))
        made.append(max_share_ho(h))
    assert "prefixes" not in vars(a) and not any("scopes" in vars(x) for x in made[1:])
    for x, want in zip(made, given):
        for y in [copy.copy(x), pickle.loads(pickle.dumps(x)), x]:
            assert y == want and hash(y) == hash(want) and repr(y) == repr(want)


def _unreached_copy(rng, g):
    """g with a copy of one vertex that nothing leads to, made through
    ``_trusted``, since ``TermGraph`` refuses it."""
    v = rng.randrange(g.vertex_count)
    return _trusted(
        TermGraph,
        variant=g.variant,
        labels=g.labels + (g.labels[v],),
        args=g.args + (g.args[v],),
        root=g.root,
        names=g.names + (g.names[v] + "'",),
    )


def test_constructor_takes_what_the_validator_takes_where_the_root_misses_a_vertex():
    # Valid scopes nest only where the root reaches every vertex.  Here
    # n3' lies in both scopes and nothing leads to it, so the laminar
    # pass fails where the paper's conditions hold; the constructor must
    # take the function all the same.  It has no binder tree, and only
    # _trusted can make such a carrier.
    APP, ABS = Label.APP, Label.ABS
    g = _trusted(
        TermGraph,
        variant=SignatureVariant(1),
        labels=(APP, ABS, ABS, APP, APP),
        args=((1, 2), (3,), (2,), (3, 0), (3, 0)),
        root=0,
        names=("n0", "n1", "n2", "n3", "n3'"),
    )
    sc = {1: frozenset({1, 3, 4}), 2: frozenset({2, 4})}
    assert _binder_tree(g, sc) is None and validate_scope(g, sc).passed
    ScopedGraph(g, sc)
    # Random carriers with an unreached copy: the constructor refuses
    # exactly what the validator refuses, with its violations.
    rng = random.Random(312)
    taken = untreed = 0
    for _ in range(1500):
        g = random_graph(rng, max_vertices=8)
        if g.variant.del_arity is not None:
            continue
        g = _unreached_copy(rng, g)
        for _ in range(3):
            sc = random_scopes(rng, g)
            report = validate_scope(g, sc)
            assert report == per_pair_validate_scope(g, sc)
            made = _outcome(ScopedGraph, g, sc)
            if report.passed:
                assert isinstance(made, ScopedGraph)
                taken += 1
                untreed += _binder_tree(g, sc) is None
            else:
                assert made == (ValueError, f"invalid scope function: {report.violation_text(g)}")
    assert taken >= 200 and untreed >= 1, (taken, untreed)


_DELIMITER_FREE = st.sampled_from([SignatureVariant(0), SignatureVariant(1)])


@settings(max_examples=200, deadline=None)
@given(_DELIMITER_FREE.flatmap(lambda v: graphs(variant=v)), st.data())
def test_scope_layer_matches_oracles_hypothesis(g, data):
    vertices = st.sampled_from(list(g.vertices()))
    sc = {
        v: data.draw(st.frozensets(vertices, max_size=g.vertex_count))
        for v in g.vertices_labeled(Label.ABS)
    }
    _agree_on_scopes(g, sc, set())
    abs_vs = g.vertices_labeled(Label.ABS)
    if abs_vs:
        words = st.lists(st.sampled_from(abs_vs), max_size=3).map(tuple)
        _agree_on_prefixes(g, {w: data.draw(words) for w in g.vertices()})


def test_names_and_ids_give_the_same_results(running_carrier):
    from conftest import RUNNING_EAGER_PREFIXES, RUNNING_EAGER_SCOPES

    g = running_carrier
    ids = {g.id_of(v): frozenset(map(g.id_of, m)) for v, m in RUNNING_EAGER_SCOPES.items()}
    mixed = {v: {g.id_of(m) if i % 2 else m for i, m in enumerate(sorted(ms))}
             for v, ms in RUNNING_EAGER_SCOPES.items()}
    assert normalize_scope_fn(g, RUNNING_EAGER_SCOPES) == normalize_scope_fn(g, mixed) == ids
    holey = dict(RUNNING_EAGER_SCOPES, f=RUNNING_EAGER_SCOPES["f"] - {"b1"})
    holey_ids = dict(ids)
    holey_ids[g.id_of("f")] = ids[g.id_of("f")] - {g.id_of("b1")}
    for by_name, by_id in ((RUNNING_EAGER_SCOPES, ids), (holey, holey_ids)):
        assert validate_scope(g, by_name) == validate_scope(g, by_id)
    h = ScopedGraph.checked(g, ids)
    assert h == ScopedGraph.checked(g, RUNNING_EAGER_SCOPES)
    for w in g.vertices():
        assert binders(h, g.name_of(w)) == binders(h, w)
    p_ids = {g.id_of(v): tuple(map(g.id_of, word)) for v, word in RUNNING_EAGER_PREFIXES.items()}
    assert normalize_prefix_fn(g, RUNNING_EAGER_PREFIXES) == p_ids
    assert validate_prefix_ho(g, RUNNING_EAGER_PREFIXES) == validate_prefix_ho(g, p_ids)


def test_normalize_reports_in_the_same_order(single_lambda):
    # Unknown names first, then the domain, then out-of-range members.
    with pytest.raises(KeyError, match="nope"):
        normalize_scope_fn(single_lambda, {"r": {"r", "nope"}, "c": {7}})
    with pytest.raises(DomainMismatch, match="domain"):
        normalize_scope_fn(single_lambda, {"r": {0}, "c": {7}})
    with pytest.raises(DomainMismatch, match="scope member 7 is not a vertex"):
        normalize_scope_fn(single_lambda, {"r": {0, 7}})
    with pytest.raises(DomainMismatch, match="scope member -1 is not a vertex"):
        normalize_scope_fn(single_lambda, {"r": {-1, 0}})
    with pytest.raises(KeyError, match="nope"):
        normalize_prefix_fn(single_lambda, {"r": (), "c": ("nope",), 5: ()})
    with pytest.raises(DomainMismatch, match="total"):
        normalize_prefix_fn(single_lambda, {"r": (), "c": (9,), 5: ()})
    with pytest.raises(DomainMismatch, match="prefix entry 9 is not a vertex"):
        normalize_prefix_fn(single_lambda, {"r": (), "c": (0, 9, -2)})


@pytest.mark.parametrize("member", [1.5, "c", None])
def test_constructors_refuse_a_member_that_is_no_id(single_lambda, member):
    # One scan of every member against the ids refuses any value that is
    # no id, a name included, with the out-of-range message, instead of
    # a TypeError where the member is first compared or read.
    r, c = single_lambda.id_of("r"), single_lambda.id_of("c")
    with pytest.raises(DomainMismatch, match=re.escape(f"scope member {member} is not a vertex")):
        ScopedGraph(single_lambda, {r: {r, c, member}})
    with pytest.raises(DomainMismatch, match=re.escape(f"prefix entry {member} is not a vertex")):
        PrefixedGraph(single_lambda, {r: (), c: (r, member)})


def test_generated_equality_and_hashing(running_carrier, running_eager, running_lazy):
    # Equality compares the graph and the annotation; hashing sees only
    # the graph, so equal objects hash equal.  The lazy scopes share the
    # eager ones' carrier, so the two hash alike but differ.
    from conftest import RUNNING_CARRIER

    g = running_carrier
    twin = ScopedGraph.checked(parse_graph(RUNNING_CARRIER).graph, dict(running_eager.scopes))
    assert twin == running_eager and hash(twin) == hash(running_eager) == hash(running_lazy)
    assert twin != running_lazy
    with pytest.raises(ValueError, match="invalid scope function"):
        ScopedGraph(g, {**running_eager.scopes, g.id_of("g"): frozenset()})
    with pytest.raises(DomainMismatch, match="exactly the abstraction vertices"):
        ScopedGraph(g, {})
    a, lazy = scope_to_prefix(running_eager), scope_to_prefix(running_lazy)
    assert a == PrefixedGraph(g, dict(a.prefixes)) and hash(a) == hash(lazy)
    assert a != lazy
    with pytest.raises(ValueError, match="invalid prefix function"):
        PrefixedGraph(g, {**a.prefixes, g.root: (g.root,)})
    with pytest.raises(DomainMismatch, match="total"):
        PrefixedGraph(g, {})
    assert a != running_eager and running_eager != a
    d = insert_delimiters(a)
    by_id = DelimitedGraph(d.graph, dict(sorted(d.prefixes.items())))
    assert d == DelimitedGraph.from_graph(d.graph) == by_id and hash(d) == hash(by_id)
    with pytest.raises(DomainMismatch, match="total"):
        DelimitedGraph(d.graph, {})
    with pytest.raises(ValueError, match=f"vertex {g.root} "):
        DelimitedGraph(d.graph, {**d.prefixes, g.root: (g.root,)})
    doc = GraphDocument(g, scopes=running_eager.scopes)
    assert doc == GraphDocument(g, None, dict(running_eager.scopes))
    assert doc != GraphDocument(g, scopes={}) and doc != GraphDocument(g)
    assert hash(GraphDocument(g)) == hash(GraphDocument(g))
    with pytest.raises(TypeError):
        hash(doc)  # the annotation is a dict and takes part in the hash


# ---------------------------------------------------------------------------
# The laminar nesting test in front of the per-pair walk: a pass means the
# walk would find no nest violation, and every valid scope function passes.


def _laminar_agrees(g, sc, outcomes):
    sc = normalize_scope_fn(g, sc)
    fast = _binder_tree(g, sc) is not None
    report = per_pair_validate_scope(g, sc)
    assert validate_scope(g, sc) == report
    if fast:
        assert all(v.condition != "nest" for v in report.violations), (g, sc)
    if report.passed:
        assert fast, (g, sc)
    outcomes[fast, report.passed] += 1


@pytest.mark.parametrize(
    "text, scopes, nests",
    [
        # One shared last claimer that is the parent is not enough: a and
        # b each hold the other, and only the parent test sees it.
        ("sig 1\nroot a\na lam b\nb lam x\nx 0 b\n",
         {"a": {"a", "b"}, "b": {"a", "b"}}, [("a", "b"), ("b", "a")]),
        # a lies outside its own scope, so nothing has claimed it when b,
        # whose scope holds a but not sc(a), comes next; only the self
        # test sees it.
        ("sig 0\nroot a\na lam b\nb lam x\nx @ y y\ny 0\n",
         {"a": {"x", "y"}, "b": {"b", "a"}}, [("b", "a")]),
    ],
)
def test_laminar_test_refuses_scopes_that_do_not_nest(text, scopes, nests):
    g = parse_graph(text).graph
    sc = normalize_scope_fn(g, scopes)
    assert _binder_tree(g, sc) is None
    report = validate_scope(g, sc)
    assert report == per_pair_validate_scope(g, sc)
    found = [v.witnesses for v in report.violations if v.condition == "nest"]
    assert found == [tuple(map(g.id_of, pair)) for pair in nests]


def test_laminar_test_is_sound_and_passes_every_valid_function():
    rng = random.Random(310)
    outcomes = {(f, p): 0 for f in (True, False) for p in (True, False)}
    exhaustive = 0
    while exhaustive < 60:
        g = random_graph(rng, max_vertices=6)
        if g.variant.del_arity is not None:
            continue
        for _ in range(10):
            _laminar_agrees(g, random_scopes(rng, g), outcomes)
        if len(g.vertices_labeled(Label.ABS)) > 2:
            continue
        # Every valid function, and each with one or two members toggled.
        for sc in all_scope_functions(g):
            _laminar_agrees(g, sc, outcomes)
            if sc:
                once = _toggled(rng, g, sc)
                _laminar_agrees(g, once, outcomes)
                _laminar_agrees(g, _toggled(rng, g, once), outcomes)
        exhaustive += 1
    for i in range(300):
        # Larger valid functions: the scopes of translated terms.
        t = random_term(rng, depth=rng.randint(2, 5))
        dg = name_keyed_term_to_graph(t, rng=rng) if i % 2 else term_to_graph(t)
        h = prefix_to_scope(strip_delimiters(dg))
        _laminar_agrees(h.graph, h.scopes, outcomes)
        if h.scopes:
            once = _toggled(rng, h.graph, h.scopes)
            _laminar_agrees(h.graph, once, outcomes)
            _laminar_agrees(h.graph, _toggled(rng, h.graph, once), outcomes)
    assert outcomes[False, True] == 0
    assert min(outcomes[True, True], outcomes[True, False], outcomes[False, False]) >= 100


# ---------------------------------------------------------------------------
# Normalizing through the graph's name-or-id lookup keeps the errors of
# resolving one name or id at a time.


_ONE_LAMBDA = "sig 1\nroot r\nr lam c\nc 0 r\n"  # r is id 0, c is id 1


@pytest.mark.parametrize(
    "scopes, error, message",
    [
        ({"r": {"r", 5}}, DomainMismatch, "scope member 5 is not a vertex"),
        ({"r": {"r", -1}}, DomainMismatch, "scope member -1 is not a vertex"),
        ({0: {0, "zz"}}, KeyError, "'zz'"),
        ({"zz": {0}}, KeyError, "'zz'"),
        # Every name is resolved before the domain is checked.
        ({"r": {5}, "x": {0}}, KeyError, "'x'"),
        ({"r": {"r"}, "c": {"c"}}, DomainMismatch,
         "scope function domain must be exactly the abstraction vertices"),
        ({7: {0}}, DomainMismatch,
         "scope function domain must be exactly the abstraction vertices"),
    ],
)
def test_normalize_scope_fn_keeps_its_errors(scopes, error, message):
    g = parse_graph(_ONE_LAMBDA).graph
    with pytest.raises(error) as info:
        normalize_scope_fn(g, scopes)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "prefixes, error, message",
    [
        ({"r": (), "c": ("r", 9)}, DomainMismatch, "prefix entry 9 is not a vertex"),
        ({"r": (), "c": (-2,)}, DomainMismatch, "prefix entry -2 is not a vertex"),
        ({"r": (), "c": ("zz",)}, KeyError, "'zz'"),
        ({"r": ()}, DomainMismatch, "prefix function must be total on the vertex set"),
    ],
)
def test_normalize_prefix_fn_keeps_its_errors(prefixes, error, message):
    g = parse_graph(_ONE_LAMBDA).graph
    with pytest.raises(error) as info:
        normalize_prefix_fn(g, prefixes)
    assert str(info.value) == message


@pytest.mark.parametrize("words", [{0: [], 1: [0]}, {0: (), 1: [0]}])
def test_prefixed_graph_reads_a_list_word_as_its_tuple(words):
    # As validate_prefix_ho reads it: the id-keyed constructor once raised
    # a bare TypeError on the first map and refused the second.
    g = parse_graph(_ONE_LAMBDA).graph
    assert validate_prefix_ho(g, words).passed
    h = PrefixedGraph(g, words)
    assert h == PrefixedGraph(g, {0: (), 1: (0,)}) and h.prefixes == {0: (), 1: (0,)}
    with pytest.raises(ValueError, match=r"^invalid prefix function: var0 at c; var1 at c, r$"):
        PrefixedGraph(g, {0: [], 1: []})


def test_normalize_refuses_booleans_beside_names():
    # An id is an int: True and False equal the ids 1 and 0 but are none,
    # beside names as without them.
    g = parse_graph(_ONE_LAMBDA).graph
    for normalize, fn, message in [
        (normalize_scope_fn, {"r": {"r", True}}, "scope member True is not a vertex"),
        (normalize_scope_fn, {"r": {"c", False}}, "scope member False is not a vertex"),
        (normalize_scope_fn, {False: {"r", "c"}}, "scope function domain must be exactly the abstraction vertices"),
        (normalize_prefix_fn, {"r": (), "c": (False,)}, "prefix entry False is not a vertex"),
        (normalize_prefix_fn, {"r": (), True: ("r",)}, "prefix function must be total on the vertex set"),
    ]:
        with pytest.raises(DomainMismatch) as info:
            normalize(g, fn)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Scale: hotg documents shaped like the benchmark's ring and tower, written
# here.  Checking each vertex against every abstraction made both
# quadratic or worse.


def test_ring_document_max_share_ho_scales():
    text = ring_doc(2000)
    start = time.perf_counter()
    doc = parse_graph(text)
    shared = max_share_ho(ScopedGraph.checked(doc.graph, doc.scopes))
    elapsed = time.perf_counter() - start
    assert doc.graph.vertex_count == 6000
    # Every ring collapses to one lam, one @ and one 0.
    assert sorted(map(str, shared.graph.labels)) == ["0", "@", "lam"]
    assert elapsed < 3.0


def test_tower_document_max_share_ho_scales():
    # A tower shares nothing and has the longest words: n binders over
    # a carrier of 3n - 1 vertices, so the delimited form has Θ(n²)
    # delimiters.
    text = tower_doc(500)
    start = time.perf_counter()
    doc = parse_graph(text)
    h = ScopedGraph.checked(doc.graph, doc.scopes)
    shared = max_share_ho(h)
    elapsed = time.perf_counter() - start
    assert shared.graph.vertex_count == doc.graph.vertex_count == 1499
    # The result is renumbered in DFS order, so compare up to isomorphism.
    iso = isomorphic(shared.graph, h.graph)
    assert iso is not None and lift_homomorphism(iso, shared, h)
    assert elapsed < 3.0


def test_tower_scope_layer_scales():
    text = tower_doc(200)
    start = time.perf_counter()
    doc = parse_graph(text)
    g = doc.graph
    report = validate_scope(g, doc.scopes)
    a = scope_to_prefix(ScopedGraph(g, doc.scopes))
    h = prefix_to_scope(a)
    elapsed = time.perf_counter() - start
    assert report.passed and h.scopes == doc.scopes
    assert max(map(len, a.prefixes.values())) == 200
    assert elapsed < 2.0


def _counting(monkeypatch, names):
    """Wrap each named function in every ``lamgraph`` module that binds
    it; the returned dict counts the calls."""
    import sys

    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.startswith("lamgraph.")]
    for module in modules:
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_max_share_ho_normalizes_only_at_the_boundary(monkeypatch):
    # Names are resolved at the boundary (ScopedGraph.checked, one
    # _resolve_map) and nowhere on the route behind it, which builds its
    # annotations on ids.
    doc = parse_graph(tower_doc(8))
    calls = _counting(monkeypatch, ["normalize_scope_fn", "normalize_prefix_fn", "_resolve_map"])
    shared = max_share_ho(ScopedGraph.checked(doc.graph, doc.scopes))
    assert shared.graph.vertex_count == doc.graph.vertex_count  # a tower shares nothing
    assert calls == {"normalize_scope_fn": 0, "normalize_prefix_fn": 0, "_resolve_map": 1}


def test_each_route_validates_once(monkeypatch, tmp_path, capsys):
    # The constructor is the one check: the conversions behind it, and
    # max_share_ho, validate nothing again.  It scans the scope members
    # once (_check_scope_domain; the parser checks only the keys) and
    # builds the binder tree once (_binder_tree); a valid function is
    # never inverted (_containing), and scope_to_prefix shares that tree.
    # The builder's check runs where a delimited graph is built:
    # translate's insertion builds one, and max_share_ho, which works on
    # arrays, builds none.  Neither infers words.
    from lamgraph.cli import main

    text = tower_doc(8)
    doc = parse_graph(text)
    names = ["_validate_scope", "_validate_prefix_ho", "infer_prefix", "_infer_inner"]
    names += ["_check_scope_domain", "_binder_tree", "_containing", "scope_to_prefix"]
    calls = _counting(monkeypatch, names)
    max_share_ho(ScopedGraph.checked(doc.graph, doc.scopes))
    assert calls == {
        "_validate_scope": 1, "_validate_prefix_ho": 0, "infer_prefix": 0, "_infer_inner": 0,
        "_check_scope_domain": 1, "_binder_tree": 1, "_containing": 0, "scope_to_prefix": 0,
    }
    path = tmp_path / "tower.tg"
    path.write_text(text)
    calls.update(dict.fromkeys(names, 0))
    assert main(["translate", "--from", "hotg", "--to", "ltg", str(path)]) == 0
    assert capsys.readouterr().out.startswith("sig 1 2\n")
    assert calls == {
        "_validate_scope": 1, "_validate_prefix_ho": 0, "infer_prefix": 0, "_infer_inner": 1,
        "_check_scope_domain": 1, "_binder_tree": 1, "_containing": 0, "scope_to_prefix": 1,
    }


def _counting_words(monkeypatch) -> list:
    """Count the words derived for any graph made without them: each
    derived field's first read appends its graph to the returned list."""
    from functools import cached_property

    derived = []
    for cls in (PrefixedGraph, DelimitedGraph):
        derive = vars(cls)["prefixes"].func
        prop = cached_property(lambda x, derive=derive: derived.append(x) or derive(x))
        prop.__set_name__(cls, "prefixes")
        monkeypatch.setattr(cls, "prefixes", prop)
    return derived


def test_translation_and_sharing_skip_the_checks_their_inputs_settle(monkeypatch):
    # term_to_graph's output is eager by construction: the builder infers
    # each vertex's innermost binder once, no inference gives words, and
    # no eager check follows.  A carrier is reachable from its root once
    # made, so max_share_ho runs no reachability pass.  It reads the
    # input's binder tree: it never inverts the scopes, converts them to
    # prefixes, derives a word or derives the result's scopes.
    # from_graph infers binders, not words.
    from conftest import RUNNING_TERM

    term = parse_term(RUNNING_TERM)
    docs = [parse_graph(text) for text in (tower_doc(8), ring_doc(8))]
    h, ring = (ScopedGraph.checked(doc.graph, doc.scopes) for doc in docs)
    calls = _counting(monkeypatch, ["infer_prefix", "_infer_inner", "_non_eager", "_reachable_keys"])
    d = term_to_graph(term)
    assert (calls["infer_prefix"], calls["_infer_inner"], calls["_non_eager"]) == (0, 1, 0)
    calls = _counting(monkeypatch, ["infer_prefix", "_infer_inner", "_non_eager", "_reachable_keys",
                                    "_containing", "scope_to_prefix"])
    words = _counting_words(monkeypatch)
    shared = [max_share_ho(h), max_share_ho(ring)]
    assert shared[1].graph.vertex_count == 3
    assert calls == {"infer_prefix": 0, "_infer_inner": 0, "_non_eager": 2, "_reachable_keys": 0,
                     "_containing": 0, "scope_to_prefix": 0}
    assert words == [] and not any("scopes" in vars(x) for x in shared)
    # A first read derives them: the scopes, and the words the counter sees.
    assert all(ScopedGraph(x.graph, x.scopes) == x and "scopes" in vars(x) for x in shared)
    assert scope_to_prefix(h).prefixes and len(words) == 1
    inferred = DelimitedGraph.from_graph(d.graph)
    assert calls["infer_prefix"] == 0 and calls["_infer_inner"] == 1 and len(words) == 1
    assert inferred.prefixes == d.prefixes and len(words) == 3


def test_public_validators_still_take_names(running_carrier):
    from conftest import RUNNING_EAGER_PREFIXES, RUNNING_EAGER_SCOPES
    from lamgraph import validate_prefix_fo

    g = running_carrier
    assert validate_scope(g, RUNNING_EAGER_SCOPES).passed
    assert validate_prefix_ho(g, RUNNING_EAGER_PREFIXES).passed
    assert ScopedGraph.checked(g, RUNNING_EAGER_SCOPES).graph is g
    assert PrefixedGraph.checked(g, RUNNING_EAGER_PREFIXES).graph is g
    d = insert_delimiters(PrefixedGraph.checked(g, RUNNING_EAGER_PREFIXES))
    names = d.graph.names
    by_name = {names[v]: tuple(names[x] for x in word) for v, word in d.prefixes.items()}
    assert validate_prefix_fo(d.graph, by_name).passed
    wrong = dict(by_name, **{names[d.graph.root]: (names[0],)})
    assert not validate_prefix_fo(d.graph, wrong).passed
