import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    ALL_VARIANTS,
    graphs,
    random_graph,
    random_quotient,
    random_scopes,
    random_term,
    ring_doc,
    tower_doc,
)
from test_translate import _alpha_rename
from oracles import (
    all_homomorphisms,
    all_scope_functions,
    brute_coarsest_partition,
    name_keyed_term_to_graph,
    per_vertex_eager_at,
    refinement_bisimilar,
    relational_bisimilar,
    signature_refinement_partition,
    stepwise_max_share_ho,
)
from collapse_parity import skewed_graph
from share_parity import DRAW as SHARE_DRAW
from share_parity import KINDS as SHARE_KINDS
from share_parity import outcome as share_outcome

from lamgraph import (
    DelimitedGraph,
    GraphDocument,
    Label,
    NotEagerScope,
    SignatureVariant,
    PrefixedGraph,
    ScopedGraph,
    UnreachableVertex,
    VariantMismatch,
    are_bisimilar,
    build,
    build_pruned,
    coarsest_partition,
    collapse,
    find_homomorphism,
    insert_delimiters,
    is_eager_scope,
    is_fully_back_linked,
    is_label_restricted,
    is_lambda_term_graph,
    isomorphic,
    lift_homomorphism,
    max_share,
    max_share_ho,
    parse_graph,
    parse_term,
    prefix_to_scope,
    scope_to_prefix,
    serialize_graph,
    strip_delimiters,
    term_to_graph,
    validate_prefix_fo,
    validate_prefix_ho,
    validate_scope,
)


def test_find_homomorphism_debruijn_chain(debruijn):
    g2, g1, g0 = debruijn
    assert find_homomorphism(g2, g1) is not None
    assert find_homomorphism(g1, g0) is not None
    assert find_homomorphism(g2, g0) is not None
    assert find_homomorphism(g0, g2) is None  # sharing cannot be undone
    assert find_homomorphism(g0, g0) == {v: v for v in g0.vertices()}


def test_find_homomorphism_matches_brute_force(debruijn):
    g2, g1, g0 = debruijn
    for a in (g2, g1, g0):
        for b in (g2, g1, g0):
            found = all_homomorphisms(a, b)
            assert len(found) <= 1
            expected = found[0] if found else None
            assert find_homomorphism(a, b) == expected


def test_homomorphism_uniqueness_on_random_graphs():
    rng = random.Random(400)
    for _ in range(30):
        g1 = random_graph(rng, max_vertices=6)
        g2 = random_graph(rng, max_vertices=6)
        if g1.variant != g2.variant:
            continue
        found = all_homomorphisms(g1, g2)
        assert len(found) <= 1
        assert find_homomorphism(g1, g2) == (found[0] if found else None)


def test_lift_homomorphism_identity(running_eager):
    ident = {v: v for v in running_eager.graph.vertices()}
    assert lift_homomorphism(ident, running_eager, running_eager)
    pg = scope_to_prefix(running_eager)
    assert lift_homomorphism(ident, pg, pg)


def test_lift_homomorphism_distinguishes_scope_choices(running_eager, running_lazy):
    # Same carrier, different scope functions: the identity carrier map
    # is not a homomorphism of the annotated graphs.
    ident = {v: v for v in running_eager.graph.vertices()}
    assert not lift_homomorphism(ident, running_eager, running_lazy)
    assert not lift_homomorphism(ident, running_lazy, running_eager)


def test_lift_homomorphism_nonextension(nonext_pair):
    from conftest import NONEXT_SOURCE_PREFIXES_EAGER, NONEXT_SOURCE_PREFIXES_LAZY

    source, target = nonext_pair
    h = find_homomorphism(source, target)
    assert h is not None
    lazy = prefix_to_scope(PrefixedGraph.checked(source, NONEXT_SOURCE_PREFIXES_LAZY))
    eager = prefix_to_scope(PrefixedGraph.checked(source, NONEXT_SOURCE_PREFIXES_EAGER))
    targets = [ScopedGraph(target, sc) for sc in all_scope_functions(target)]
    assert len(targets) == 1
    assert all(not lift_homomorphism(h, lazy, t) for t in targets)
    # The eager choice does transfer; the failure is specific to the
    # lazily scoped source.
    assert any(lift_homomorphism(h, eager, t) for t in targets)


def test_lift_homomorphism_rejects_non_homomorphism(running_eager):
    bogus = {v: running_eager.graph.root for v in running_eager.graph.vertices()}
    with pytest.raises(ValueError):
        lift_homomorphism(bogus, running_eager, running_eager)


def test_is_label_restricted(eager_pair, delim_sharing_pair):
    ident = {v: v for v in eager_pair.vertices()}
    assert is_label_restricted(ident, eager_pair, Label.ABS)
    _, m = collapse(eager_pair)
    assert not is_label_restricted(m, eager_pair, Label.ABS)
    shared, _ = delim_sharing_pair
    redone = insert_delimiters(strip_delimiters(DelimitedGraph.from_graph(shared)), 1)
    h = find_homomorphism(redone.graph, shared)
    assert h is not None
    assert is_label_restricted(h, redone.graph, Label.DEL)


def test_are_bisimilar(debruijn):
    g2, g1, g0 = debruijn
    assert are_bisimilar(g2, g0)
    assert are_bisimilar(g1, g1)
    a = parse_graph("sig 1 2\nroot a\na lam a\n").graph
    b = parse_graph("sig 1 2\nroot b\nb lam v\nv 0 b\n").graph
    assert not are_bisimilar(a, b)
    with pytest.raises(VariantMismatch):
        are_bisimilar(a, parse_graph("sig 0\nroot a\na lam a\n").graph)


def test_are_bisimilar_matches_relational_oracle():
    rng = random.Random(401)
    done = 0
    while done < 60:
        g1 = random_graph(rng, max_vertices=6)
        g2 = random_graph(rng, max_vertices=6)
        if g1.variant != g2.variant:
            continue
        done += 1
        assert are_bisimilar(g1, g2) == relational_bisimilar(g1, g2)


def test_collapse_debruijn(debruijn):
    g2, _, g0 = debruijn
    collapsed, mapping = collapse(g2)
    assert isomorphic(collapsed, g0) is not None
    assert collapsed.vertex_count == 3
    # The projection is a homomorphism.
    assert find_homomorphism(g2, collapsed) == mapping


def test_collapse_eager_pair(eager_pair):
    collapsed, _ = collapse(eager_pair)
    expected = parse_graph("sig 1 2\nroot a\na @ b b\nb lam v\nv 0 b\n").graph
    assert isomorphic(collapsed, expected) is not None
    # Independently: the brute-force coarsest partition has three blocks.
    assert len(brute_coarsest_partition(eager_pair)) == 3


def test_collapse_idempotent(debruijn, eager_pair):
    for g in (*debruijn, eager_pair):
        once, _ = collapse(g)
        twice, mapping = collapse(once)
        assert isomorphic(once, twice) is not None
        assert mapping == {v: v for v in once.vertices()}


def test_collapse_partition_matches_brute_force_oracle():
    rng = random.Random(402)
    for _ in range(40):
        g = random_graph(rng, max_vertices=7)
        assert coarsest_partition(g).as_blocks() == brute_coarsest_partition(g)
    # A few larger ones; the partition count grows fast with the size.
    checked = 0
    while checked < 6:
        g = random_graph(rng, max_vertices=10)
        if g.vertex_count < 9:
            continue
        assert coarsest_partition(g).as_blocks() == brute_coarsest_partition(g)
        checked += 1


def test_partition_matches_signature_refinement_on_random_terms():
    rng = random.Random(408)
    for i in range(240):
        term = random_term(rng, depth=rng.randint(1, 5))
        g = (name_keyed_term_to_graph(term, rng=rng) if i % 3 == 0 else term_to_graph(term)).graph
        assert coarsest_partition(g) == signature_refinement_partition(g)


def _structured_terms(n: int) -> list[str]:
    xs = [f"x{i}" for i in range(n)]
    nest = "x"
    church = "x"
    for _ in range(n - 1):
        nest = f"x ({nest})"
    for _ in range(n):
        church = f"f ({church})"
    return [
        r"\x. " + " ".join(["x"] * n),
        rf"\x. {nest}",
        rf"\f. \x. {church}",
        "".join(rf"\{x}. " for x in xs) + " ".join(xs),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 128])
def test_partition_matches_signature_refinement_on_structured_terms(n):
    for text in _structured_terms(n):
        g = term_to_graph(parse_term(text)).graph
        assert coarsest_partition(g) == signature_refinement_partition(g)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: f"{v.var_arity}-{v.del_arity}")
def test_partition_matches_the_oracles_whichever_label_class_is_largest(variant):
    # _refine never splits by the largest label class; make each label
    # the variant allows the largest in turn.
    rng = random.Random(409)
    for label in Label:
        if not variant.allows(label):
            continue
        for i in range(12):
            g = skewed_graph(rng, variant, label, max_vertices=8 if i % 2 else 40)
            part = coarsest_partition(g)
            assert part == signature_refinement_partition(g)
            if g.vertex_count <= 9:
                assert part.as_blocks() == brute_coarsest_partition(g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_partition_and_bisimilarity_match_oracles_hypothesis(data):
    g1 = data.draw(graphs(max_vertices=10))
    g2 = data.draw(graphs(variant=g1.variant, max_vertices=10))
    assert coarsest_partition(g1) == signature_refinement_partition(g1)
    assert are_bisimilar(g1, g2) == relational_bisimilar(g1, g2)


def _perturbed(g, rng: random.Random):
    """g with one label or one successor changed, unreachable vertices
    pruned; None where the drawn vertex admits neither change."""
    labels = {g.names[v]: g.labels[v] for v in g.vertices()}
    succ = {g.names[v]: [g.names[w] for w in g.args[v]] for v in g.vertices()}
    v = rng.choice(g.names)
    others = [
        lab
        for lab in Label
        if lab is not labels[v]
        and g.variant.allows(lab)
        and g.variant.arity(lab) == len(succ[v])
    ]
    if succ[v] and (not others or rng.random() < 0.5):
        succ[v][rng.randrange(len(succ[v]))] = rng.choice(g.names)
    elif others:
        labels[v] = rng.choice(others)
    else:
        return None
    return build_pruned(g.variant, labels, succ, g.names[g.root])[0]


DELIMITED_VARIANTS = [v for v in ALL_VARIANTS if v.del_arity is not None]


def _seeded_bisimilarity_pairs(rng: random.Random):
    """Translations against alpha-renamed copies, their random quotients
    and one-change perturbations of those; then ``random_graph`` draws
    over the four delimited variants, against each other, their
    quotients and perturbations."""
    for _ in range(120):
        term = random_term(rng, depth=rng.randint(1, 5))
        g = term_to_graph(term).graph
        yield "translation", g, term_to_graph(_alpha_rename(term, "_r")).graph
        q, _ = random_quotient(g, rng)
        yield "translation", g, q
        p = _perturbed(q, rng)
        if p is not None:
            yield "translation", g, p
    for variant in DELIMITED_VARIANTS * 60:
        g1 = g2 = None
        while g1 is None or g1.variant != variant:
            g1 = random_graph(rng, max_vertices=8)
        while g2 is None or g2.variant != variant:
            g2 = random_graph(rng, max_vertices=8)
        yield variant, g1, g2
        q, _ = random_quotient(g1, rng)
        yield variant, g1, q
        p = _perturbed(q, rng)
        if p is not None:
            yield variant, g1, p


def test_are_bisimilar_matches_both_oracles_on_seeded_pairs():
    verdicts = Counter()
    for kind, g1, g2 in _seeded_bisimilarity_pairs(random.Random(1601)):
        same = are_bisimilar(g1, g2)
        assert same == refinement_bisimilar(g1, g2) == relational_bisimilar(g1, g2)
        verdicts[kind, same] += 1
    # Each source, and each delimited variant, yields both verdicts.
    for kind in ["translation", *DELIMITED_VARIANTS]:
        assert verdicts[kind, True] >= 20 and verdicts[kind, False] >= 10, kind


DEEP = 10**4


def test_collapse_deep_spine_in_closed_form():
    # \x. x x ... x with n occurrences: 2n vertices over (1,2), one
    # refinement level per application, and n + 1 vertices in the quotient.
    n = DEEP // 2
    labels = {"l": Label.ABS}
    succ = {"l": [f"a{n - 1}"]}
    for i in range(n):
        labels[f"v{i}"] = Label.VAR
        succ[f"v{i}"] = ["l"]
    for i in range(1, n):
        labels[f"a{i}"] = Label.APP
        succ[f"a{i}"] = [f"a{i - 1}" if i > 1 else "v0", f"v{i}"]
    g = build(SignatureVariant(1, 2), labels, succ, "l")
    assert g.vertex_count == DEEP
    start = time.perf_counter()
    quotient, mapping = collapse(g)
    assert time.perf_counter() - start < 3
    assert quotient.vertex_count == n + 1
    assert len(quotient.vertices_labeled(Label.VAR)) == 1
    assert len(quotient.vertices_labeled(Label.APP)) == n - 1
    assert find_homomorphism(g, quotient) == mapping


def _binder_spine(n: int, head: str, p: str = "", reverse: bool = False):
    # \x. \y. H y ... y x with n applications over (1,2), eager and
    # built directly: every x below the scope of y sits under a
    # delimiter closing y.  The head H, the deepest occurrence, is x or
    # y; ``p`` prefixes the vertex names and ``reverse`` the ids.
    labels = {f"{p}x": Label.ABS, f"{p}y": Label.ABS}
    succ = {f"{p}x": [f"{p}y"], f"{p}y": [f"{p}a{n}"]}
    for i in range(1, n + 1):
        labels[f"{p}a{i}"] = Label.APP
        succ[f"{p}a{i}"] = [f"{p}a{i - 1}" if i > 1 else f"{p}h", f"{p}v{i}"]
    for i in range(1, n):
        labels[f"{p}v{i}"] = Label.VAR
        succ[f"{p}v{i}"] = [f"{p}y"]
    labels[f"{p}v{n}"] = Label.DEL
    succ[f"{p}v{n}"] = [f"{p}t", f"{p}y"]
    labels[f"{p}t"] = Label.VAR
    succ[f"{p}t"] = [f"{p}x"]
    if head == "x":
        labels[f"{p}h"] = Label.DEL
        succ[f"{p}h"] = [f"{p}hx", f"{p}y"]
        labels[f"{p}hx"] = Label.VAR
        succ[f"{p}hx"] = [f"{p}x"]
    else:
        labels[f"{p}h"] = Label.VAR
        succ[f"{p}h"] = [f"{p}y"]
    if reverse:
        labels = dict(reversed(labels.items()))
    return build(SignatureVariant(1, 2), labels, succ, f"{p}x")


def test_are_bisimilar_on_a_10k_application_spine():
    for head in "xy":
        text = rf"\x. \y. {head} y y x"
        g = term_to_graph(parse_term(text)).graph
        assert isomorphic(_binder_spine(3, head), g) is not None, text
    # The rebound head differs from the original only at the bottom of
    # the spine, so the "no" is found after every application is paired.
    g = _binder_spine(DEEP, "x")
    for other, expected in (
        (_binder_spine(DEEP, "x", p="r", reverse=True), True),
        (_binder_spine(DEEP, "y", p="r", reverse=True), False),
    ):
        start = time.perf_counter()
        assert are_bisimilar(g, other) is expected
        assert time.perf_counter() - start < 1


def _delimited_cycle(n: int, period: int):
    # A cycle of n unary vertices over (0,1) with a delimiter at every
    # multiple of the period and abstractions elsewhere.
    labels = {f"c{i}": Label.ABS if i % period else Label.DEL for i in range(n)}
    succ = {f"c{i}": [f"c{(i + 1) % n}"] for i in range(n)}
    return build(SignatureVariant(0, 1), labels, succ, "c0")


@pytest.mark.parametrize("period", [16, DEEP])
def test_collapse_deep_cycle_in_closed_form(period):
    g = _delimited_cycle(DEEP, period)
    start = time.perf_counter()
    quotient, _ = collapse(g)
    assert are_bisimilar(g, _delimited_cycle(period, period))
    assert not are_bisimilar(g, _delimited_cycle(period + 1, period + 1))
    assert time.perf_counter() - start < 3
    assert quotient.vertex_count == period


def test_collapse_is_terminal():
    # No homomorphism out of the collapse merges anything further.
    rng = random.Random(403)
    for _ in range(30):
        g = random_graph(rng, max_vertices=7)
        collapsed, _ = collapse(g)
        hs = all_homomorphisms(collapsed, collapsed)
        assert hs == [{v: v for v in collapsed.vertices()}]


# ---------------------------------------------------------------------------
# Known non-closure regressions.


def test_debruijn_chain_membership(debruijn):
    g2, g1, g0 = debruijn
    assert is_lambda_term_graph(g2)
    assert not is_lambda_term_graph(g1)
    assert is_lambda_term_graph(g0)
    assert find_homomorphism(g2, g1) is not None
    assert find_homomorphism(g1, g0) is not None


def test_backlinked_unsharing_regression(backlinked_shared, backlinked_halfshared):
    # Converse direction: the valid shared form has an invalid preimage.
    assert is_lambda_term_graph(backlinked_shared)
    assert not is_lambda_term_graph(backlinked_halfshared)
    assert find_homomorphism(backlinked_halfshared, backlinked_shared) is not None


def test_delimiters_without_backlinks_not_closed(shared_delim_trap):
    # Valid over (1,1), yet the collapse identifies the two delimiter
    # chains and the result admits no prefix function.
    assert is_lambda_term_graph(shared_delim_trap)
    collapsed, _ = collapse(shared_delim_trap)
    assert collapsed.vertex_count < shared_delim_trap.vertex_count
    assert not is_lambda_term_graph(collapsed)


def test_non_eager_not_closed(non_eager_trap):
    dg = DelimitedGraph.from_graph(non_eager_trap)
    assert not is_eager_scope(dg)
    collapsed, _ = collapse(non_eager_trap)
    assert collapsed.vertex_count < non_eager_trap.vertex_count
    assert not is_lambda_term_graph(collapsed)


def test_eager_variant_is_closed(eager_fixed):
    dg = DelimitedGraph.from_graph(eager_fixed)
    assert is_eager_scope(dg)
    collapsed, _ = collapse(eager_fixed)
    assert collapsed.vertex_count < eager_fixed.vertex_count
    out = DelimitedGraph.from_graph(collapsed)
    assert is_eager_scope(out) and is_fully_back_linked(out)


# ---------------------------------------------------------------------------
# Preservation under arbitrary homomorphic images.


def _random_delimited(seed, count, lazy_share=0.5):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lazy = rng.random() < lazy_share
        t = random_term(rng, depth=rng.randint(1, 4))
        out.append((name_keyed_term_to_graph(t, rng=rng) if lazy else term_to_graph(t), rng))
    return out


def test_preservation_under_random_quotients():
    for dg, rng in _random_delimited(404, 40):
        if not is_fully_back_linked(dg):
            continue
        eager = is_eager_scope(dg)
        image, mapping = random_quotient(dg.graph, rng)
        quotient = DelimitedGraph.from_graph(image)  # stays a lambda term graph
        assert is_fully_back_linked(quotient)
        if eager:
            assert is_eager_scope(quotient)
        # Image words are the word images wherever vertices merged.
        for v1 in dg.graph.vertices():
            for v2 in dg.graph.vertices():
                if v1 < v2 and mapping[v1] == mapping[v2]:
                    w1 = tuple(mapping[x] for x in dg.prefixes[v1])
                    w2 = tuple(mapping[x] for x in dg.prefixes[v2])
                    assert w1 == w2


def test_prefix_image_coherence_under_quotients():
    for dg, rng in _random_delimited(405, 25, lazy_share=0.0):
        image, mapping = random_quotient(dg.graph, rng)
        quotient = DelimitedGraph.from_graph(image)
        for v in dg.graph.vertices():
            assert quotient.prefixes[mapping[v]] == tuple(
                mapping[x] for x in dg.prefixes[v]
            )


# ---------------------------------------------------------------------------
# The maximal sharing pipeline.


def _scoped_of(dg: DelimitedGraph) -> ScopedGraph:
    return prefix_to_scope(strip_delimiters(dg))


def test_max_share_identity_pair(eager_pair):
    sg = _scoped_of(DelimitedGraph.from_graph(eager_pair))
    shared = max_share_ho(sg)
    expected = parse_graph(
        "sig 1\nroot a\na @ b b\nb lam v\nv 0 b\n"
    ).graph
    assert isomorphic(shared.graph, expected) is not None
    again = max_share_ho(shared)
    iso = isomorphic(shared.graph, again.graph)
    assert iso is not None
    assert all(
        frozenset(iso[m] for m in shared.scopes[v]) == again.scopes[iso[v]]
        for v in shared.scopes
    )


def test_max_share_running_example(running_eager):
    shared = max_share_ho(running_eager)
    # The running example has no duplicate subterms, so nothing merges.
    assert isomorphic(shared.graph, running_eager.graph) is not None
    # Pipeline output is bisimilar to the collapse of the delimited form.
    fo = insert_delimiters(scope_to_prefix(running_eager), 2)
    collapsed, _ = collapse(fo.graph)
    redone = insert_delimiters(scope_to_prefix(shared), 2)
    assert are_bisimilar(redone.graph, collapsed)


def test_max_share_rejects_non_eager(running_lazy):
    with pytest.raises(NotEagerScope):
        max_share_ho(running_lazy)


def test_not_eager_scope_names_a_failing_vertex(running_lazy):
    with pytest.raises(NotEagerScope) as info:
        max_share_ho(running_lazy)
    witness = info.value.vertex
    assert witness is not None and witness in str(info.value)
    delimited = insert_delimiters(scope_to_prefix(running_lazy), 2)
    w = delimited.graph.names.index(witness)
    assert not per_vertex_eager_at(delimited, w)


def test_max_share_agrees_with_collapse_oracle():
    rng = random.Random(406)
    for _ in range(15):
        dg = term_to_graph(random_term(rng, depth=3))
        sg = _scoped_of(dg)
        shared = max_share_ho(sg)
        fo = insert_delimiters(scope_to_prefix(shared), 2)
        collapsed, _ = collapse(dg.graph)
        assert isomorphic(fo.graph, collapsed) is not None


def _max_share_ho_docs():
    """Ring and tower documents, and random hotg documents, as text."""
    docs = [ring_doc(n) for n in (1, 3, 8)] + [tower_doc(n) for n in (2, 4, 8)]
    rng = random.Random(408)
    for _ in range(20):
        ap = strip_delimiters(term_to_graph(random_term(rng, depth=4)))
        docs.append(serialize_graph(GraphDocument(ap.graph, scopes=prefix_to_scope(ap).scopes)))
    return docs


def test_max_share_ho_equals_its_public_steps():
    # The step-by-step replay the traced benchmark makes.
    for text in _max_share_ho_docs():
        doc = parse_graph(text)
        h = ScopedGraph.checked(doc.graph, doc.scopes)
        delimited = insert_delimiters(scope_to_prefix(h), 2)
        quotient = collapse(delimited.graph)[0]
        steps = prefix_to_scope(strip_delimiters(DelimitedGraph.from_graph(quotient)))
        assert max_share_ho(h) == steps


def test_max_share_ho_intermediates_pass_the_validators():
    # max_share_ho runs on arrays and validates nothing; each step of the
    # public chain it replaced gives what that step's validator passes.
    for text in _max_share_ho_docs():
        doc = parse_graph(text)
        h = ScopedGraph.checked(doc.graph, doc.scopes)
        words = scope_to_prefix(h)
        assert validate_prefix_ho(words.graph, words.prefixes).passed
        delimited = insert_delimiters(words, 2)
        shared = max_share(delimited)
        for dg in (delimited, shared):
            assert validate_prefix_fo(dg.graph, dg.prefixes).passed
        stripped = strip_delimiters(shared)
        assert validate_prefix_ho(stripped.graph, stripped.prefixes).passed
        result = prefix_to_scope(stripped)
        assert validate_scope(result.graph, result.scopes).passed
        assert max_share_ho(h) == result


def test_max_share_ho_takes_every_scope_function_the_constructor_takes():
    # Hand-built scope functions: the constructor, the route's one check,
    # refuses exactly what validate_scope refuses, with its violations;
    # max_share_ho refuses what it takes only for not being eager.
    rng = random.Random(410)
    outcomes = {"refused": 0, "shared": 0, "not eager": 0}
    while min(outcomes.values()) < 30:
        g = random_graph(rng, max_vertices=8)
        if g.variant != SignatureVariant(1):
            continue
        sc = random_scopes(rng, g)
        report = validate_scope(g, sc)
        try:
            h = ScopedGraph(g, sc)
        except ValueError as exc:
            assert str(exc) == f"invalid scope function: {report.violation_text(g)}"
            outcomes["refused"] += 1
            continue
        assert report.passed
        try:
            max_share_ho(h)
            outcomes["shared"] += 1
        except NotEagerScope:
            outcomes["not eager"] += 1


def _share_inputs():
    """Ring and tower documents, then 100 inputs of each kind that
    ``share_parity`` draws, each under its own seed.  The documents go
    up to 128 binders: ``max_share_ho`` numbers its result by a walk of
    the input's rows, the steps by a walk of the collapsed delimited
    form, and a tower puts a delimiter on each spine edge and walks n
    deep."""
    for n in (*range(2, 9), 16, 64, 128):
        for text in (ring_doc(n), tower_doc(n)):
            doc = parse_graph(text)
            yield "doc", ScopedGraph.checked(doc.graph, doc.scopes)
    for i, seed in enumerate(range(4100, 4500)):
        kind = SHARE_KINDS[i % len(SHARE_KINDS)]
        yield kind, SHARE_DRAW[kind](random.Random(seed))


def test_max_share_ho_matches_its_stepwise_composition():
    # The array route against the public steps it replaced: an equal
    # result with byte-identical text, or the same refusal and witness.
    # A carrier the root does not wholly reach is refused where it is
    # made, so neither route sees one.
    seen = Counter()
    for kind, h in _share_inputs():
        got = share_outcome(max_share_ho, h)
        assert got == share_outcome(stepwise_max_share_ho, h), kind
        seen[kind, got[0]] += 1
        seen["unreached carrier refused"] += isinstance(h, UnreachableVertex)
    assert all(seen[kind, "shared"] for kind in SHARE_KINDS)
    assert seen["lazy", "not eager"] and seen["hand", "not eager"]
    assert seen["unreached carrier refused"]


def test_the_projection_lifts_to_the_result():
    # The theorem the array route reads its result off: the input maps
    # onto its maximally shared form by a homomorphism of higher-order
    # graphs, so each scope's image is its image's scope.
    shrunk = 0
    for kind, h in _share_inputs():
        verdict, result, *_ = share_outcome(max_share_ho, h)
        if verdict != "shared":
            continue
        m = find_homomorphism(h.graph, result.graph)
        assert m is not None and lift_homomorphism(m, h, result), kind
        shrunk += result.graph.vertex_count < h.graph.vertex_count
    assert shrunk >= 50


def test_max_share_is_collapse_then_inference():
    rng = random.Random(409)
    for _ in range(30):
        dg = term_to_graph(random_term(rng, depth=4))
        assert max_share(dg) == DelimitedGraph.from_graph(collapse(dg.graph)[0])


def test_max_share_requires_backlinks(single_lambda):
    sg = ScopedGraph.checked(single_lambda, {"r": {"r", "c"}})
    with pytest.raises(VariantMismatch):
        max_share_ho(sg)


def test_lift_homomorphism_on_delimited_graphs():
    rng = random.Random(407)
    for _ in range(10):
        dg = term_to_graph(random_term(rng, depth=3))
        image, mapping = random_quotient(dg.graph, rng)
        quotient = DelimitedGraph.from_graph(image)
        assert lift_homomorphism(mapping, dg, quotient)


def test_admits_scoping_diagnostic(g0_plain, nonext_pair, single_lambda):
    from oracles import admits_scoping

    source, target = nonext_pair
    assert admits_scoping(g0_plain)
    assert admits_scoping(single_lambda)
    assert admits_scoping(source) and admits_scoping(target)
    half_i1 = parse_graph(
        "sig 1\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0 b1\n"
    ).graph
    assert not admits_scoping(half_i1)
    half_i0 = parse_graph(
        "sig 0\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0\n"
    ).graph
    assert not admits_scoping(half_i0)
