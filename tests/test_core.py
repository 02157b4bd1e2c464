import collections
import random
import time

import pytest

from generators import ALL_VARIANTS, random_graph
from oracles import (
    all_homomorphisms,
    lex_min_simple_path,
    name_keyed_build,
    name_keyed_build_common,
)

from lamgraph import (
    ArityMismatch,
    DanglingSuccessor,
    DomainMismatch,
    ForbiddenLabel,
    GraphDocument,
    GraphError,
    IndexOutOfRange,
    Label,
    PrefixedGraph,
    SignatureVariant,
    TermGraph,
    UnreachableVertex,
    access_path,
    binders,
    build,
    build_pruned,
    isomorphic,
    num_delimiters,
    parse_graph,
    serialize_graph,
    successor,
)

V0 = SignatureVariant(0, None)


def test_build_shared_debruijn_form(g0_plain):
    assert g0_plain.vertex_count == 3
    a, b, c = g0_plain.id_of("a"), g0_plain.id_of("b"), g0_plain.id_of("c")
    assert g0_plain.labels[a] is Label.APP
    assert g0_plain.args[a] == (b, b)
    assert g0_plain.args[b] == (c,)
    assert g0_plain.root == a


def test_build_single_vertex_cycle(single_lambda_cycle):
    g = single_lambda_cycle
    assert g.vertex_count == 1
    assert g.args[g.root] == (g.root,)


def test_build_arity_mismatch():
    with pytest.raises(ArityMismatch):
        build(V0, {"a": Label.APP, "b": Label.ABS}, {"a": ["b"], "b": ["a"]}, "a")


def test_build_dangling_successor():
    with pytest.raises(DanglingSuccessor):
        build(V0, {"a": Label.ABS}, {"a": ["ghost"]}, "a")


def test_build_forbidden_delimiter():
    with pytest.raises(ForbiddenLabel):
        build(V0, {"a": Label.ABS, "s": Label.DEL}, {"a": ["s"], "s": ["a"]}, "a")


def test_build_rejects_unreachable():
    labels = {"a": Label.ABS, "b": Label.ABS}
    succ = {"a": ["a"], "b": ["b"]}
    with pytest.raises(UnreachableVertex):
        build(V0, labels, succ, "a")
    g, pruned = build_pruned(V0, labels, succ, "a")
    assert g.vertex_count == 1 and pruned == ("b",)


def test_build_key_set_mismatch():
    with pytest.raises(DomainMismatch):
        build(V0, {"a": Label.ABS}, {"a": ["a"], "b": ["b"]}, "a")


def test_build_refuses_a_label_that_is_no_label():
    with pytest.raises(TypeError, match="^label 'lam' of vertex 'a' is not a Label$"):
        build(V0, {"a": "lam", "b": "0"}, {"a": ["b"], "b": []}, "a")
    # Where delimiters are allowed, a stray label is not read as one.
    labels, succ = {"a": Label.ABS, 7: "S"}, {"a": [7], 7: ["a", "a"]}
    with pytest.raises(TypeError, match="^label 'S' of vertex 7 is not a Label$"):
        build_pruned(SignatureVariant(1, 2), labels, succ, "a")


@pytest.mark.parametrize(
    "args, root, names, message",
    [
        # A negative id would be read as vertex n + id.
        (((-1,), (0,)), 0, ("a", "c"), "successor id -1 of a names no vertex"),
        (((1,), (2,)), 0, ("a", "c"), "successor id 2 of c names no vertex"),
        (((1,), (0,)), 2, ("a", "c"), "root id 2 names no vertex"),
        (((1,),), 0, ("a", "c"), "one entry per vertex"),
        (((1,), (0,)), 0, ("a",), "one entry per vertex"),
        # 1.0 == 1 and True == 1, but neither is an id.
        (((1.0,), (0,)), 0, ("r", "c"), "^successor id 1.0 of r names no vertex$"),
        (((1,), (True,)), 0, ("r", "c"), "^successor id True of c names no vertex$"),
        (((1,), (0,)), 0.0, ("r", "c"), "^root id 0.0 names no vertex$"),
        (((1,), (0,)), False, ("r", "c"), "^root id False names no vertex$"),
    ],
    ids=["negative", "past-n", "root", "short-args", "short-names", "float", "bool", "float-root", "bool-root"],
)
def test_term_graph_refuses_ids_that_name_no_vertex(args, root, names, message):
    labels = (Label.ABS, Label.VAR)
    with pytest.raises(DomainMismatch, match=message):
        TermGraph(SignatureVariant(1), labels, args, root, names)
    g = TermGraph(SignatureVariant(1), labels, ((1,), (0,)), 0, ("a", "c"))
    assert g == build(SignatureVariant(1), dict(zip("ac", labels)), {"a": ["c"], "c": ["a"]}, "a")


@pytest.mark.parametrize(
    "make, annotation, message",
    [
        # As for a graph's ids: 1.0 == 1 and True == 1, but neither is an id.
        ("scope", {0: {0, 1.0}}, "^scope member 1.0 is not a vertex$"),
        ("scope", {0: {0, True}}, "^scope member True is not a vertex$"),
        ("scope", {0.0: {0, 1}}, "^scope function domain must be exactly the abstraction vertices$"),
        ("scope", {False: {0, 1}}, "^scope function domain must be exactly the abstraction vertices$"),
        ("prefix", {0: (), 1: (0.0,)}, "^prefix entry 0.0 is not a vertex$"),
        ("prefix", {0: (), 1: (False,)}, "^prefix entry False is not a vertex$"),
        ("prefix", {0: (), 1.0: (0,)}, "^prefix function must be total on the vertex set$"),
        ("prefix", {0: (), True: (0,)}, "^prefix function must be total on the vertex set$"),
        # Beside a name, neither a float nor a bool is an id.
        ("scope", {"r": {"r", 1.0}}, "^scope member 1.0 is not a vertex$"),
        ("scope", {"r": {"r", "c"}, 1.0: {1}}, "^scope function domain must be exactly the abstraction vertices$"),
        ("prefix", {"r": (), "c": (0.0,)}, "^prefix entry 0.0 is not a vertex$"),
        ("prefix", {"r": (), 1.0: (0,)}, "^prefix function must be total on the vertex set$"),
        ("scope", {"r": {"r", True}}, "^scope member True is not a vertex$"),
        ("scope", {"r": {"r", "c"}, True: {1}}, "^scope function domain must be exactly the abstraction vertices$"),
        ("prefix", {"r": (), "c": (False,)}, "^prefix entry False is not a vertex$"),
        ("prefix", {"r": (), True: (0,)}, "^prefix function must be total on the vertex set$"),
    ],
    ids=["float-member", "bool-member", "float-key", "bool-key",
         "float-entry", "bool-entry", "float-vertex", "bool-vertex",
         "named-float-member", "named-float-key", "named-float-entry", "named-float-vertex",
         "named-bool-member", "named-bool-key", "named-bool-entry", "named-bool-vertex"],
)
def test_scope_and_prefix_functions_refuse_ids_that_name_no_vertex(make, annotation, message):
    # The constructors check every member before the laminar pass indexes
    # by them: a float raised a bare TypeError there, and True was taken.
    # The entry points that also take names refuse them the same way: a
    # map with names resolves names and ints alone through the name-or-id
    # lookup and keeps a float or a bool for the domain check
    # (test_scoped.py::test_normalize_refuses_booleans_beside_names).
    from lamgraph import ScopedGraph, prefix_to_scope, validate_prefix_ho, validate_scope

    g = TermGraph(SignatureVariant(1), (Label.ABS, Label.VAR), ((1,), (0,)), 0, ("r", "c"))
    if make == "scope":
        entries = [
            lambda: ScopedGraph(g, {v: frozenset(members) for v, members in annotation.items()}),
            lambda: ScopedGraph.checked(g, annotation),
            lambda: validate_scope(g, annotation),
        ]
    else:
        entries = [
            lambda: PrefixedGraph(g, annotation),
            lambda: PrefixedGraph.checked(g, annotation),
            lambda: validate_prefix_ho(g, annotation),
        ]
    if any(isinstance(key, str) for key in annotation):
        del entries[0]  # the plain constructors take ids only
    for entry in entries:
        with pytest.raises(DomainMismatch, match=message):
            entry()
    # The same functions on ids are taken.
    assert prefix_to_scope(PrefixedGraph(g, {0: (), 1: (0,)})) == ScopedGraph(g, {0: frozenset({0, 1})})


@pytest.mark.parametrize(
    "labels, args, names, unreached",
    [
        # u is an application or a second variable that the root misses.
        # The collapse numbers blocks from the root, so it raised
        # KeyError: 2 on the first and put u in v's block on the second.
        (("ABS", "VAR", "APP"), ((1,), (), (1, 1)), ("r", "v", "u"), ("u",)),
        (("ABS", "VAR", "VAR"), ((1,), (), ()), ("r", "v", "u"), ("u",)),
        (("VAR", "ABS", "ABS", "VAR"), ((), (3,), (0,), ()), ("x", "r", "y", "v"), ("x", "y")),
    ],
    ids=["orphan-application", "orphan-variable", "id-order"],
)
def test_term_graph_refuses_a_vertex_the_root_does_not_reach(labels, args, names, unreached):
    # Named in id order, as build names what it would prune; so no such
    # graph can reach collapse or coarsest_partition.
    with pytest.raises(UnreachableVertex) as err:
        TermGraph(V0, tuple(Label[lab] for lab in labels), args, names.index("r"), names)
    assert err.value.vertices == unreached


@pytest.mark.parametrize(
    "variant, labels, error, message",
    [
        # An application with one successor: inference read its second.
        (SignatureVariant(1, 2), (Label.APP, Label.ABS), ArityMismatch, "wrong number of successors at vertex 'a'"),
        (SignatureVariant(1), (Label.ABS, Label.DEL), ForbiddenLabel,
         "delimiter label at vertex 'b' not allowed by this variant"),
        (SignatureVariant(1), ("lam", Label.VAR), TypeError, "label 'lam' of vertex 'a' is not a Label"),
    ],
    ids=["arity", "forbidden", "not-a-label"],
)
def test_term_graph_refuses_a_row_that_does_not_fit_its_label(variant, labels, error, message):
    # TermGraph once took these rows: infer_prefix then raised a bare
    # IndexError, and serialize_graph wrote a document that parse_graph
    # refuses.  The row check is build's, so build refuses them alike.
    with pytest.raises(error) as info:
        TermGraph(variant, labels, ((1,), (0,)), 0, ("a", "b"))
    assert str(info.value) == message
    with pytest.raises(error) as info:
        build(variant, dict(zip("ab", labels)), {"a": ["b"], "b": ["a"]}, "a")
    assert str(info.value) == message


def test_every_graph_the_constructor_takes_survives_a_document_round_trip():
    # Random rows, most of them fitting their labels: what TermGraph takes,
    # parse_graph reads back from serialize_graph as the same graph.
    rng = random.Random(135)
    outcomes = collections.Counter()
    for _ in range(3000):
        variant = rng.choice(ALL_VARIANTS)
        n = rng.randint(1, 6)
        labels = [rng.choice(list(Label)) for _ in range(n)]
        args = [
            [rng.randrange(n) for _ in range(
                variant.arity(lab) if variant.allows(lab) and rng.random() < 0.9 else rng.randint(0, 2)
            )]
            for lab in labels
        ]
        try:
            g = TermGraph(variant, tuple(labels), tuple(map(tuple, args)), rng.randrange(n),
                          tuple(f"v{v}" for v in range(n)))
        except GraphError as exc:
            outcomes[type(exc)] += 1
            continue
        assert parse_graph(serialize_graph(g)).graph == g
        outcomes["taken"] += 1
    assert {"taken", ArityMismatch, ForbiddenLabel, UnreachableVertex} <= set(outcomes), outcomes
    assert outcomes["taken"] >= 300, outcomes


def test_successor_examples(g0_plain, single_lambda_cycle):
    assert successor(g0_plain, "a", 1) == g0_plain.id_of("b")
    assert successor(single_lambda_cycle, "a", 0) == single_lambda_cycle.root
    with pytest.raises(IndexOutOfRange):
        successor(g0_plain, "c", 0)


def test_access_path_examples(g0_plain, single_lambda_cycle):
    # Derived expectation: lexicographically least simple root path.
    verts, idxs = lex_min_simple_path(g0_plain, g0_plain.id_of("c"))
    p = access_path(g0_plain, "c")
    assert (p.vertices, p.indices) == (verts, idxs)
    assert p.indices == (0, 0)  # a -0-> b -0-> c
    root_path = access_path(g0_plain, "a")
    assert root_path.vertices == (g0_plain.root,) and root_path.indices == ()
    cycle_path = access_path(single_lambda_cycle, "a")
    assert len(cycle_path) == 0


@pytest.mark.parametrize("bad", [2, 5, -1, True, 1.0])
def test_an_id_that_is_no_vertex_is_refused(bad):
    # Ids 0 and 1.  A negative id must not wrap round to the last vertex,
    # and True and 1.0 equal the id 1 but are none.
    from lamgraph import prefix_to_scope

    doc = parse_graph("sig 0\nroot r\nr lam c\nc 0\nprefix c = r\n")
    a = PrefixedGraph.checked(doc.graph, doc.prefixes)
    for call in (
        lambda: access_path(doc.graph, bad),
        lambda: successor(doc.graph, bad, 0),
        lambda: num_delimiters(a, bad, 0),
    ):
        with pytest.raises(KeyError) as info:
            call()
        assert info.value.args == (bad,) and type(info.value.args[0]) is type(bad)
    # An id that is no vertex lies in no scope.
    assert binders(prefix_to_scope(a), bad) == []


@pytest.mark.parametrize("v, k", [("r", -1), ("r", 1), ("r", 7), ("c", 0)])
def test_an_edge_index_past_the_arity_is_refused(v, k):
    # r has one edge and c none.  A negative index must not wrap round to
    # the last edge, and one past the arity is no bare IndexError.
    doc = parse_graph("sig 0\nroot r\nr lam c\nc 0\nprefix c = r\n")
    a = PrefixedGraph.checked(doc.graph, doc.prefixes)
    for call in (lambda: successor(doc.graph, v, k), lambda: num_delimiters(a, v, k)):
        with pytest.raises(IndexOutOfRange) as info:
            call()
        assert (info.value.vertex, info.value.index) == (v, k)


def test_access_path_always_valid_and_simple():
    rng = random.Random(100)
    for _ in range(150):
        g = random_graph(rng, max_vertices=10)
        for v in g.vertices():
            p = access_path(g, v)
            assert p.is_access_path(g)
            assert p.end == v


def test_access_path_matches_lex_min_oracle():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng, max_vertices=7)
        for v in g.vertices():
            p = access_path(g, v)
            assert (p.vertices, p.indices) == lex_min_simple_path(g, v)


def test_access_path_is_linear_on_a_long_chain():
    # Copying the path into every stack entry made this quadratic (seconds).
    n = 20_000
    labels = {f"l{i}": Label.ABS for i in range(n)}
    succ = {f"l{i}": [f"l{(i + 1) % n}"] for i in range(n)}
    g = build(V0, labels, succ, "l0")
    start = time.perf_counter()
    p = access_path(g, f"l{n - 1}")
    assert time.perf_counter() - start < 0.5
    assert p.vertices == tuple(range(n)) and p.indices == (0,) * (n - 1)


def _shuffled_copy(g, rng):
    # Same graph, rebuilt under fresh names in random insertion order.
    names = {v: f"r{v}_{rng.randrange(10**6)}" for v in g.vertices()}
    items = list(g.vertices())
    rng.shuffle(items)
    labels = {names[v]: g.labels[v] for v in items}
    succ = {names[v]: [names[w] for w in g.args[v]] for v in items}
    return build(g.variant, labels, succ, names[g.root])


def test_isomorphic_examples(g0_plain, debruijn, single_lambda_cycle):
    g2, _, g0 = debruijn
    renamed = _shuffled_copy(g0_plain, random.Random(7))
    h = isomorphic(g0_plain, renamed)
    assert h is not None and len(set(h.values())) == 3
    assert isomorphic(g0_plain, g0_plain) == {v: v for v in g0_plain.vertices()}
    assert isomorphic(g0, g2) is None and isomorphic(g2, g0) is None
    assert isomorphic(single_lambda_cycle, single_lambda_cycle) is not None


def test_isomorphic_is_an_equivalence():
    rng = random.Random(102)
    for _ in range(80):
        g = random_graph(rng, max_vertices=10)
        a = _shuffled_copy(g, rng)
        b = _shuffled_copy(g, rng)
        # reflexive with the identity witness
        assert isomorphic(g, g) == {v: v for v in g.vertices()}
        gab = isomorphic(a, b)
        gba = isomorphic(b, a)
        assert gab is not None and gba is not None
        # symmetric via the inverse map
        assert gba == {w: v for v, w in gab.items()}
        # transitive via composition
        gga = isomorphic(g, a)
        assert isomorphic(g, b) == {v: gab[gga[v]] for v in g.vertices()}


def test_isomorphism_witness_unique_exhaustively():
    rng = random.Random(103)
    for _ in range(40):
        g = random_graph(rng, max_vertices=6)
        other = _shuffled_copy(g, rng)
        bijections = [
            h
            for h in all_homomorphisms(g, other)
            if len(set(h.values())) == g.vertex_count
        ]
        assert len(bijections) <= 1
        witness = isomorphic(g, other)
        assert bijections == ([witness] if witness is not None else [])


def test_name_index_is_lazy_and_invisible(running_carrier):
    from lamgraph import collapse, parse_term, term_to_graph

    # The maxshare route passes ids only and never builds the index.
    dg = term_to_graph(parse_term(r"letrec f = \x. x f in f"))
    quotient, _ = collapse(dg.graph)
    assert "_ids" not in vars(dg.graph) and "_ids" not in vars(quotient)

    g = running_carrier
    twin = build(
        g.variant,
        {n: g.labels[v] for v, n in enumerate(g.names)},
        {n: [g.names[w] for w in g.args[v]] for v, n in enumerate(g.names)},
        g.names[g.root],
    )
    before = repr(g)
    assert [g.id_of(n) for n in g.names] == list(g.vertices())
    assert "_ids" in vars(g) and "_ids" not in vars(twin)
    assert g == twin and hash(g) == hash(twin) and repr(g) == before == repr(twin)
    # Equality compares names too: the same structure under other names differs.
    renamed = build(
        g.variant,
        {f"r{v}": g.labels[v] for v in g.vertices()},
        {f"r{v}": [f"r{w}" for w in g.args[v]] for v in g.vertices()},
        f"r{g.root}",
    )
    assert (renamed.labels, renamed.args, renamed.root) == (g.labels, g.args, g.root)
    assert renamed != g
    with pytest.raises(KeyError):
        g.id_of("no such vertex")


def test_build_refuses_keys_whose_names_coincide():
    # build names vertices by str(key), so distinct keys can collide; a
    # graph with two vertices of one name would serialize to a document
    # that parse_graph refuses.
    with pytest.raises(DomainMismatch, match=r"^vertices 0 and 1 share the name '1'$"):
        build(V0, {1: Label.ABS, "1": Label.VAR}, {1: ["1"], "1": []}, 1)


def test_term_graph_refuses_two_vertices_of_one_name():
    # Checked after the rows, naming both vertices; names are compared as
    # text, as a document writes them.
    with pytest.raises(DomainMismatch, match=r"^vertices 0 and 1 share the name 'a'$"):
        TermGraph(V0, (Label.ABS, Label.VAR), ((1,), ()), 0, ("a", "a"))
    with pytest.raises(DomainMismatch, match=r"^vertices 1 and 2 share the name '1'$"):
        TermGraph(V0, (Label.ABS, Label.ABS, Label.VAR), ((1,), (2,), ()), 0, ("r", 1, "1"))
    with pytest.raises(ArityMismatch):
        TermGraph(V0, (Label.ABS, Label.VAR), ((1,), (0,)), 0, ("a", "a"))
    g = TermGraph(V0, (Label.ABS, Label.VAR), ((1,), ()), 0, ("a", "b"))
    assert parse_graph(serialize_graph(GraphDocument(g))).graph == g


# Keys of three hashable kinds, and keys no map holds.
_KEYS = ["a", "b", "c", "d", 1, 2, 30, ("t", 0), ("t", 1), (2,)]
_GHOSTS = ["ghost", 99, ("t", 9)]
_VARIANTS = [SignatureVariant(i, j) for i in (0, 1) for j in (None, 1, 2)]


def _random_maps(rng):
    """A seeded label map, successor map and root, mostly well formed: each
    defect named in ``test_build_matches_the_name_keyed_reference`` has a
    small chance at each vertex, or once per map."""
    variant = rng.choice(_VARIANTS)
    keys = rng.sample(_KEYS, rng.randint(1, len(_KEYS)))
    allowed = [lab for lab in Label if variant.allows(lab)]
    labels = {k: Label.DEL if rng.random() < 0.02 else rng.choice(allowed) for k in keys}
    succ = {}
    for k, lab in labels.items():
        n = variant.arity(lab) if variant.allows(lab) else 1
        if rng.random() < 0.03:
            n = abs(n + rng.choice((-1, 1)))
        succ[k] = [rng.choice(_GHOSTS) if rng.random() < 0.02 else rng.choice(keys) for _ in range(n)]
    root = rng.choice(_GHOSTS) if rng.random() < 0.02 else rng.choice(keys)
    if rng.random() < 0.02:
        succ.pop(rng.choice(keys))
    elif rng.random() < 0.02:
        succ[rng.choice(_GHOSTS)] = []
    return variant, labels, succ, root


def _result(construct, *args):
    try:
        return ("built", construct(*args))
    except Exception as exc:
        return ("refused", type(exc), str(exc), vars(exc))


def test_build_matches_the_name_keyed_reference():
    # Against the constructor that checked and searched on the maps' own
    # keys: the same graph and pruned keys, or the same exception type,
    # message and attributes (vertex, index, vertices).
    rng = random.Random(1904)
    seen = collections.Counter()
    for _ in range(4000):
        args = _random_maps(rng)
        pruned = _result(build_pruned, *args)
        assert pruned == _result(name_keyed_build_common, *args), args
        assert _result(build, *args) == _result(name_keyed_build, *args), args
        seen[pruned[1] if pruned[0] == "refused" else bool(pruned[1][1])] += 1
    # Every outcome occurs: graphs with and without pruned vertices, and
    # each refusal.
    kinds = {True, False, DomainMismatch, ForbiddenLabel, ArityMismatch, DanglingSuccessor}
    assert set(seen) == kinds and min(seen.values()) >= 20, seen
