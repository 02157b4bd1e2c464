import random
import time

import pytest
from hypothesis import given, settings

from generators import erase_backlinks, graphs, random_graph, random_quotient, random_term
from oracles import (
    name_keyed_term_to_graph,
    per_vertex_eager_at,
    per_vertex_eager_scope,
    per_vertex_fully_back_linked,
    per_word_fully_back_linked,
    per_word_non_eager_vertex,
    revalidating_infer_prefix,
    simple_root_paths,
)

from lamgraph import (
    Abs,
    App,
    DelimitedGraph,
    Label,
    collapse,
    SignatureVariant,
    VariantMismatch,
    build,
    infer_prefix,
    insert_delimiters,
    is_eager_scope,
    is_fully_back_linked,
    is_lambda_term_graph,
    parse_graph,
    parse_term,
    strip_delimiters,
    term_to_graph,
    validate_prefix_fo,
    validate_prefix_ho,
    Var,
)
from lamgraph.delimited import _non_eager_vertex


def by_name(g, prefixes):
    return {g.name_of(v): tuple(g.name_of(x) for x in word) for v, word in prefixes.items()}


def test_validate_prefix_fo_eager_nested(eager_nested):
    p = {"b1": (), "s": ("b1",), "b2": (), "v": ("b2",)}
    assert validate_prefix_fo(eager_nested, p).passed


def test_validate_prefix_fo_lazy_nested(lazy_nested):
    p = {"b1": (), "b2": ("b1",), "v": ("b1", "b2")}
    assert validate_prefix_fo(lazy_nested, p).passed
    broken = {"b1": (), "b2": ("b1",), "v": ("b2",)}
    report = validate_prefix_fo(lazy_nested, broken)
    assert not report.passed
    assert "lambda" in {v.condition for v in report.violations}


def test_delimiter_needs_nonempty_prefix():
    # A delimiter above everything can only pop from the empty word,
    # which is impossible; the all-empty assignment must not validate.
    g = parse_graph("sig 0 1\nroot s\ns S r\nr lam c\nc 0\n").graph
    report = validate_prefix_fo(g, {"s": (), "r": (), "c": ("r",)})
    assert "delim-pop" in {v.condition for v in report.violations}
    assert not is_lambda_term_graph(g)


def test_infer_prefix_debruijn(debruijn):
    g2, g1, g0 = debruijn
    prefixes, _ = infer_prefix(g0)
    assert by_name(g0, prefixes) == {"a": (), "b": (), "c": ("b",)}
    assert infer_prefix(g1)[0] is None
    prefixes2, _ = infer_prefix(g2)
    assert by_name(g2, prefixes2) == {
        "a": (),
        "b1": (),
        "c1": ("b1",),
        "b2": (),
        "c2": ("b2",),
    }


def test_infer_prefix_eager_nested(eager_nested):
    prefixes, _ = infer_prefix(eager_nested)
    assert by_name(eager_nested, prefixes) == {
        "b1": (),
        "s": ("b1",),
        "b2": (),
        "v": ("b2",),
    }


def test_is_lambda_term_graph(debruijn):
    g2, g1, g0 = debruijn
    assert is_lambda_term_graph(g2)
    assert not is_lambda_term_graph(g1)
    assert is_lambda_term_graph(g0)
    tiny = parse_graph("sig 1 2\nroot b\nb lam v\nv 0 b\n").graph
    assert is_lambda_term_graph(tiny)


def test_fully_back_linked(eager_nested, lazy_nested):
    assert is_fully_back_linked(DelimitedGraph.from_graph(eager_nested))
    assert not is_fully_back_linked(DelimitedGraph.from_graph(lazy_nested))
    tiny = parse_graph("sig 1 2\nroot b\nb lam v\nv 0 b\n").graph
    assert is_fully_back_linked(DelimitedGraph.from_graph(tiny))


def test_eager_scope(eager_nested, lazy_nested, eager_pair):
    assert is_eager_scope(DelimitedGraph.from_graph(eager_nested))
    assert is_eager_scope(DelimitedGraph.from_graph(eager_pair))
    assert not is_eager_scope(DelimitedGraph.from_graph(lazy_nested))


def test_eager_scope_strict_mode(eager_nested, eager_pair):
    # Literal reading: the delimiter closing the unused binder has a
    # nonempty prefix but no reachable occurrence, so strict mode fails.
    assert not is_eager_scope(DelimitedGraph.from_graph(eager_nested), strict=True)
    # Without delimiters the two readings agree.
    assert is_eager_scope(DelimitedGraph.from_graph(eager_pair), strict=True)


def test_eager_scope_needs_variable_backlinks(debruijn):
    _, _, g0 = debruijn
    with pytest.raises(VariantMismatch):
        is_eager_scope(DelimitedGraph.from_graph(g0))


def _random_delimited(seed, count, variants=((1, 2),)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lazy = rng.random() < 0.5
        t = random_term(rng, depth=rng.randint(1, 4))
        dg = name_keyed_term_to_graph(t, rng=rng) if lazy else term_to_graph(t)
        i, j = rng.choice(variants)
        if (i, j) == (1, 2):
            out.append(dg)
        else:
            out.append(DelimitedGraph.from_graph(erase_backlinks(dg.graph, i, j)))
    return out


def test_infer_prefix_traversal_order_invariance():
    # The library has one traversal order; the oracle runs the same
    # propagation in shuffled orders and must find the library's words.
    for dg in _random_delimited(200, 30, variants=((1, 2), (1, 1), (0, 2), (0, 1))):
        baseline = dg.prefixes
        for k in range(5):
            shuffled, _ = revalidating_infer_prefix(dg.graph, rng=random.Random(k))
            assert shuffled == baseline


def test_eager_witness_ignores_the_order_of_the_prefix_keys():
    # Inference lists its words in discovery order; the eager check walks
    # the vertices in id order, so the witness does not depend on it.
    witnesses = 0
    for dg in _random_delimited(209, 300):
        by_id = sorted(dg.prefixes.items())
        for order in (by_id, by_id[::-1]):
            reordered = DelimitedGraph(dg.graph, dict(order))
            for strict in (False, True):
                w = _non_eager_vertex(dg, strict)
                assert _non_eager_vertex(reordered, strict) == w
                witnesses += w is not None
    assert witnesses >= 100


def test_delimited_graph_reads_a_list_word_as_its_tuple():
    # As PrefixedGraph reads it: the constructor once compared the list
    # words with the inferred tuples and refused them as other words.
    dg = term_to_graph(parse_term(r"\x. \y. x (\z. y z)"))
    listed = {v: list(word) for v, word in dg.prefixes.items()}
    h = DelimitedGraph(dg.graph, listed)
    assert h == dg and h.prefixes == dg.prefixes
    assert {tuple} == set(map(type, h.prefixes.values()))
    # A list word that differs from the inferred one is still refused.
    v = next(v for v, word in listed.items() if word)
    with pytest.raises(ValueError, match=rf"^not the inferred words: vertex {v} \("):
        DelimitedGraph(dg.graph, listed | {v: []})


def test_access_paths_avoid_variables_and_exit_delimiters_by_zero():
    for dg in _random_delimited(201, 15):
        g = dg.graph
        if g.vertex_count > 10:
            continue
        for w in g.vertices():
            for path in simple_root_paths(g, w):
                for v, k in zip(path.vertices, path.indices):
                    assert g.labels[v] is not Label.VAR
                    if g.labels[v] is Label.DEL:
                        assert k == 0


def test_prefix_length_changes_by_at_most_one():
    for dg in _random_delimited(202, 30):
        for v, k, w in dg.graph.edges():
            assert abs(len(dg.prefixes[v]) - len(dg.prefixes[w])) <= 1


def test_eager_implies_fully_back_linked():
    # With delimiter back-links the exempt reading suffices; without them
    # a delimiter closing an occurrence-free binder has no way back, so
    # the implication is only guaranteed under the literal reading.
    # term_to_graph relies on the (1,2) case in place of a back-link pass.
    rng = random.Random(209)
    candidates = _random_delimited(203, 400, variants=((1, 2),))
    for _ in range(3000):
        g = random_graph(rng, max_vertices=8)
        if g.variant == SignatureVariant(1, 2):
            prefixes, _ = infer_prefix(g)
            if prefixes is not None:
                candidates.append(DelimitedGraph(g, prefixes))
    verdicts = set()
    for dg in candidates:
        eager = is_eager_scope(dg)
        verdicts.add(eager)
        if eager:
            assert is_fully_back_linked(dg)
            assert per_vertex_fully_back_linked(dg)
    assert verdicts == {True, False}
    for dg in _random_delimited(205, 40, variants=((1, 1),)):
        if is_eager_scope(dg, strict=True):
            assert is_fully_back_linked(dg)


def test_inference_matches_exhaustive_enumeration():
    # Oracle: enumerate every candidate prefix assignment (words are
    # repeat-free sequences of abstraction vertices) and compare with
    # membership, uniqueness, and the inferred function.
    from itertools import permutations, product

    from generators import random_graph
    from lamgraph import Label

    rng = random.Random(206)
    checked = 0
    while checked < 60:
        g = random_graph(rng, max_vertices=6)
        abs_vs = g.vertices_labeled(Label.ABS)
        if g.variant.del_arity is None or len(abs_vs) > 2:
            continue
        words = [()] + [w for r in (1, 2) for w in permutations(abs_vs, r)]
        passing = [
            p
            for combo in product(words, repeat=g.vertex_count)
            if validate_prefix_fo(g, (p := dict(zip(g.vertices(), combo)))).passed
        ]
        assert len(passing) <= 1
        inferred, _ = infer_prefix(g)
        assert inferred == (passing[0] if passing else None)
        assert is_lambda_term_graph(g) == bool(passing)
        checked += 1


def test_erasing_backlinks_preserves_validity():
    rng = random.Random(204)
    for _ in range(25):
        t = random_term(rng, depth=3)
        dg = name_keyed_term_to_graph(t, rng=rng) if rng.random() < 0.5 else term_to_graph(t)
        for i, j in ((1, 1), (0, 2), (0, 1)):
            erased = erase_backlinks(dg.graph, i, j)
            assert is_lambda_term_graph(erased)


def _check_verdicts(dg, verdicts):
    """Compare both checks with the per-vertex oracles; collect verdicts."""
    assert is_fully_back_linked(dg) == per_vertex_fully_back_linked(dg)
    verdicts.add(("back-linked", is_fully_back_linked(dg)))
    for strict in (False, True):
        if dg.graph.variant.var_arity != 1:
            with pytest.raises(VariantMismatch):
                is_eager_scope(dg, strict=strict)
            continue
        eager = is_eager_scope(dg, strict=strict)
        assert eager == per_vertex_eager_scope(dg, strict=strict)
        verdicts.add((strict, eager))


def _all_verdicts(verdicts):
    wanted = {("back-linked", True), ("back-linked", False)}
    wanted |= {(strict, v) for strict in (False, True) for v in (True, False)}
    return wanted <= verdicts


def test_checks_match_per_vertex_oracles_on_translations():
    # Half of the translations are lazy, so both verdicts occur.
    rng = random.Random(207)
    verdicts: set = set()
    for i in range(1000):
        lazy = i % 2 == 1
        t = random_term(rng, depth=rng.randint(1, 4))
        dg = name_keyed_term_to_graph(t, rng=rng) if lazy else term_to_graph(t)
        _check_verdicts(dg, verdicts)
    assert _all_verdicts(verdicts)


def test_checks_match_per_vertex_oracles_on_random_graphs():
    rng = random.Random(208)
    verdicts: set = set()
    checked = 0
    for _ in range(6000):
        g = random_graph(rng, max_vertices=8)
        if g.variant.del_arity is None or not is_lambda_term_graph(g):
            continue
        _check_verdicts(DelimitedGraph.from_graph(g), verdicts)
        checked += 1
    assert checked >= 200
    assert _all_verdicts(verdicts)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_checks_match_per_vertex_oracles_hypothesis(g):
    if g.variant.del_arity is None or not is_lambda_term_graph(g):
        return
    _check_verdicts(DelimitedGraph.from_graph(g), set())


# Scale: about 10^4 vertices each, built directly.  A forward search per
# vertex would make both checks quadratic on these shapes.

SCALE = 5000
BACKLINKED = SignatureVariant(1, 2)


def _spine(n):
    # r = \x. a_0; a_i = a_{i+1} v_i with every v_i an occurrence of x.
    labels = {"r": Label.ABS}
    succ = {"r": ["a0"]}
    for i in range(n):
        labels[f"a{i}"], succ[f"a{i}"] = Label.APP, [f"a{i + 1}", f"v{i}"]
        labels[f"v{i}"], succ[f"v{i}"] = Label.VAR, ["r"]
    labels[f"a{n}"], succ[f"a{n}"] = Label.VAR, ["r"]
    return build(BACKLINKED, labels, succ, "r")


def _chain(n):
    # a_i = a_{i+1} a_{i+1}, ending in the single occurrence a_n of x.
    labels = {"r": Label.ABS}
    succ = {"r": ["a0"]}
    for i in range(n):
        labels[f"a{i}"], succ[f"a{i}"] = Label.APP, [f"a{i + 1}"] * 2
    labels[f"a{n}"], succ[f"a{n}"] = Label.VAR, ["r"]
    return build(BACKLINKED, labels, succ, "r")


def _ring(n):
    # f_i = \a. a (f_{i+1}), the reference to f_{i+1} behind a delimiter.
    labels, succ = {}, {}
    for i in range(n):
        nxt = (i + 1) % n
        labels[f"f{i}"], succ[f"f{i}"] = Label.ABS, [f"a{i}"]
        labels[f"a{i}"], succ[f"a{i}"] = Label.APP, [f"v{i}", f"s{i}"]
        labels[f"v{i}"], succ[f"v{i}"] = Label.VAR, [f"f{i}"]
        labels[f"s{i}"], succ[f"s{i}"] = Label.DEL, [f"f{nxt}", f"f{i}"]
    return build(BACKLINKED, labels, succ, "f0")


@pytest.mark.parametrize(
    "make, n", [(_spine, SCALE), (_chain, 2 * SCALE), (_ring, SCALE)],
    ids=["spine", "chain", "ring"],
)
def test_checks_scale_to_ten_thousand_vertices(make, n):
    dg = DelimitedGraph.from_graph(make(n))
    assert dg.graph.vertex_count >= 10**4
    start = time.perf_counter()
    assert is_eager_scope(dg)
    assert is_fully_back_linked(dg)
    assert time.perf_counter() - start < 3.0


def _tower(n):
    # \l_0 ... l_{n-1}. x_0 x_1 ... x_{n-1}, each function part behind a
    # delimiter closing the scope of the argument's binder: a_k = s_k x_k
    # and s_k continues at a_{k-1}, with a_0 = x_0.  Words grow to n
    # entries, so a search per word through every deeper region is
    # quadratic.
    def a(k):
        return "x0" if k == 0 else f"a{k}"

    labels, succ = {}, {}
    for i in range(n):
        labels[f"l{i}"], succ[f"l{i}"] = Label.ABS, [f"l{i + 1}" if i + 1 < n else a(n - 1)]
        labels[f"x{i}"], succ[f"x{i}"] = Label.VAR, [f"l{i}"]
    for k in range(1, n):
        labels[a(k)], succ[a(k)] = Label.APP, [f"s{k}", f"x{k}"]
        labels[f"s{k}"], succ[f"s{k}"] = Label.DEL, [a(k - 1), f"l{k}"]
    return build(BACKLINKED, labels, succ, "l0")


def test_checks_take_linear_time_on_a_tower():
    dg = DelimitedGraph.from_graph(_tower(2000))
    assert dg.graph.vertex_count == 7998
    start = time.perf_counter()
    assert is_eager_scope(dg)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert is_fully_back_linked(dg)
    assert time.perf_counter() - start < 0.5


def test_eager_witness_matches_the_per_word_oracle():
    # The region search steps over deeper regions; the oracle walks them.
    rng = random.Random(4110)
    pool = []
    for i in range(1500):
        t = random_term(rng, depth=rng.randint(1, 4))
        pool.append(name_keyed_term_to_graph(t, rng=rng) if i % 2 else term_to_graph(t))
    drawn = 0
    while drawn < 300:
        g = random_graph(rng, max_vertices=8)
        if g.variant == BACKLINKED and is_lambda_term_graph(g):
            pool.append(DelimitedGraph.from_graph(g))
            drawn += 1
    witnesses = 0
    for dg in pool:
        for strict in (False, True):
            w = _non_eager_vertex(dg, strict)
            assert w == per_word_non_eager_vertex(dg, strict)
            witnesses += w is not None
    assert witnesses >= 800


def test_eager_witness_takes_the_group_with_the_smallest_first_member():
    # Both binder groups break the condition.  The smallest violating id,
    # z, lies in yl's group, whose first member z comes after x's first
    # member p; the witness is x's violating member yl.
    g = parse_graph(
        "sig 1 2\nroot x\nx lam p\np @ yl vx\nvx 0 x\nz @ s s\ns S yl yl\n"
        "yb @ z yv\nyv 0 yl\nyl lam yb\n"
    ).graph
    dg = DelimitedGraph.from_graph(g)
    violating = [w for w in g.vertices() if dg.prefixes[w] and not per_vertex_eager_at(dg, w)]
    assert [g.names[w] for w in violating] == ["z", "s", "yl"]
    assert [g.names[dg.prefixes[w][-1]] for w in violating] == ["yl", "yl", "x"]
    for strict in (False, True):
        assert g.names[_non_eager_vertex(dg, strict)] == "yl"
        assert per_word_non_eager_vertex(dg, strict) == _non_eager_vertex(dg, strict)


def test_back_link_verdict_matches_the_oracles_on_every_variant():
    rng = random.Random(4111)
    verdicts = set()

    def check(dg):
        verdict = is_fully_back_linked(dg)
        assert verdict == per_vertex_fully_back_linked(dg) == per_word_fully_back_linked(dg)
        verdicts.add((dg.graph.variant, verdict))

    for dg in _random_delimited(4112, 200):
        for i, j in ((1, 2), (1, 1), (0, 2), (0, 1)):
            check(DelimitedGraph.from_graph(erase_backlinks(dg.graph, i, j)))
        for j in (1, 2):
            check(insert_delimiters(strip_delimiters(dg), j))
    for _ in range(3000):
        g = random_graph(rng, max_vertices=8)
        if g.variant.del_arity is not None and is_lambda_term_graph(g):
            check(DelimitedGraph.from_graph(g))
    variants = [SignatureVariant(i, j) for i in (0, 1) for j in (1, 2)]
    assert verdicts == {(v, b) for v in variants for b in (True, False)}


def test_component_pass_matches_the_oracle_on_erasures_and_their_quotients():
    # Graphs without delimiter back-links are where a vertex reaches its
    # binder only around a cycle.  Half the translations are lazy, so
    # (1,2) graphs fail too.  A quotient without variable back-links may
    # merge two binders' variables and have no prefix function; those
    # are skipped.
    rng = random.Random(4113)
    verdicts = set()
    quotients = 0
    for k in range(300):
        t = random_term(rng, depth=rng.randint(1, 4))
        dg = name_keyed_term_to_graph(t, rng=rng) if k % 2 else term_to_graph(t)
        for i, j in ((1, 2), (1, 1), (0, 2), (0, 1)):
            erased = erase_backlinks(dg.graph, i, j)
            quotient, _ = random_quotient(erased, rng)
            for g in (erased, quotient):
                if g is quotient and not is_lambda_term_graph(g):
                    continue
                quotients += g is quotient
                made = DelimitedGraph.from_graph(g)
                verdict = is_fully_back_linked(made)
                assert verdict == per_vertex_fully_back_linked(made)
                verdicts.add((g.variant, verdict))
    variants = [SignatureVariant(i, j) for i in (0, 1) for j in (1, 2)]
    assert verdicts == {(v, b) for v in variants for b in (True, False)}
    assert quotients >= 600, quotients


def test_back_link_check_is_linear_on_the_unlinked_tower():
    # The (1,1) tower \x0. ... \x{n-1}. x0: no delimiter back-links, and
    # every binder's body reaches it only through the variable's.  A
    # whole-graph search per binder was quadratic here: 0.47 s at n = 1000
    # and 1.86 s at n = 2000 (CPU time, CPython 3.11, one core of a shared
    # 2-core container).
    n = 2000
    t = parse_term("".join(f"\\x{i}. " for i in range(n)) + "x0")
    dg = DelimitedGraph.from_graph(erase_backlinks(term_to_graph(t).graph, 1, 1))
    start = time.process_time()
    assert is_fully_back_linked(dg)
    assert time.process_time() - start < 0.5


def test_back_link_fallback_leaves_the_region():
    # n4 reaches its binder n0 only through n5, whose word is empty: the
    # whole-graph search must walk n5, not step over it to a binder.
    dg = DelimitedGraph.from_graph(
        parse_graph("sig 0 1\nroot n0\nn0 lam n4\nn4 S n5\nn5 @ n0 n0\n").graph
    )
    assert is_fully_back_linked(dg)
    assert per_word_fully_back_linked(dg)


# ---------------------------------------------------------------------------
# Every failed inference comes with a report that names its witnesses.


@pytest.mark.parametrize(
    "text, condition, witnesses",
    [
        # a pushes itself onto the word of its own target, the root.
        ("sig 1 2\nroot a\na lam a\n", "prefix-conflict", ("a", "a")),
        # c gets the word b2 first (last in, first out), then b1 forces b1.
        ("sig 0 1\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0\n",
         "prefix-conflict", ("b1", "c")),
        ("sig 1 2\nroot v\nv 0 v\n", "var0", ("v",)),
        ("sig 1 2\nroot a\na lam b\nb lam v\nv 0 a\n", "var1", ("v", "a")),
        ("sig 0 1\nroot s\ns S r\nr lam c\nc 0\n", "delim-pop", ("s", "r")),
        ("sig 0 2\nroot a\na lam b\nb lam s\ns S c a\nc 0\n", "delim-backlink", ("s", "a")),
    ],
    ids=["self-loop", "join", "var0", "var1", "delim-pop", "delim-backlink"],
)
def test_failed_inference_names_a_witness(text, condition, witnesses):
    g = parse_graph(text).graph
    prefixes, report = infer_prefix(g)
    assert prefixes is None
    (violation,) = report.violations
    assert violation.condition == condition
    assert tuple(g.names[w] for w in violation.witnesses) == witnesses
    with pytest.raises(ValueError, match=f"{condition} at {', '.join(witnesses)}"):
        DelimitedGraph.from_graph(g)


def test_every_failed_inference_has_a_report():
    rng = random.Random(209)
    outcomes = set()
    for _ in range(3000):
        g = random_graph(rng, max_vertices=6)
        if g.variant.del_arity is None:
            continue
        prefixes, report = infer_prefix(g)
        assert (prefixes is None) != (report is None)
        if report is not None:
            assert report.violations
            assert all(0 <= w < g.vertex_count for v in report.violations for w in v.witnesses)
            outcomes |= {v.condition for v in report.violations}
        else:
            outcomes.add("pass")
    assert {"pass", "prefix-conflict", "var1", "delim-backlink"} <= outcomes


def test_infer_prefix_on_an_unreachable_vertex_names_it():
    from lamgraph import TermGraph, UnreachableVertex
    from lamgraph.core import _trusted

    # Made without the constructor's checks, as the translator's builder
    # makes its output: b is unreachable from the root, and inference,
    # the translator's guard, must refuse it, naming it.
    g = _trusted(
        TermGraph,
        variant=SignatureVariant(0, 1),
        labels=(Label.ABS, Label.VAR, Label.ABS),
        args=((1,), (), (1,)),
        root=0,
        names=("a", "c", "b"),
    )
    for infer in (infer_prefix, is_lambda_term_graph, DelimitedGraph.from_graph):
        with pytest.raises(UnreachableVertex) as err:
            infer(g)
        assert err.value.vertices == ("b",)


def test_infer_prefix_refuses_a_negative_successor_id():
    from lamgraph import DomainMismatch, TermGraph

    # Built directly: the -1 would index vertex c.  Construction refuses
    # it, so no graph that inference sees can hold it.
    for variant, c_args in ((SignatureVariant(0, 1), ()), (SignatureVariant(1, 2), (0,))):
        with pytest.raises(DomainMismatch, match="successor id -1 of a names no vertex"):
            TermGraph(
                variant=variant,
                labels=(Label.ABS, Label.VAR),
                args=((-1,), c_args),
                root=0,
                names=("a", "c"),
            )


@pytest.mark.parametrize(
    "variant, labels, args",
    [
        # a would force a word on the id 2, whose label inference then reads.
        ((1, 2), ("ABS", "VAR"), ((2,), (0,))),
        # The back-links name no vertex: var1 and delim-backlink would
        # report the ids 2, -1 and 5 as witnesses.
        ((1, 2), ("ABS", "VAR"), ((1,), (2,))),
        ((1, 2), ("ABS", "VAR"), ((1,), (-1,))),
        ((0, 2), ("ABS", "DEL", "VAR"), ((1,), (2, 5), ())),
        # The -3 would be read as a, which then pushes itself a second
        # time: a prefix-conflict at a vertex that is not there.
        ((1, 2), ("ABS", "APP", "VAR"), ((1,), (-3, 2), (0,))),
    ],
    ids=["forced", "var1-past-n", "var1-negative", "delim-backlink-past-n", "conflict-negative"],
)
def test_inference_refuses_a_successor_id_that_names_no_vertex(variant, labels, args):
    # Construction refuses such a graph, before inference can read it.
    from lamgraph import DomainMismatch, TermGraph

    with pytest.raises(DomainMismatch, match="names no vertex"):
        TermGraph(
            variant=SignatureVariant(*variant),
            labels=tuple(Label[lab] for lab in labels),
            args=args,
            root=0,
            names=tuple("abc"[: len(labels)]),
        )


def _same_inference(g, seed=None):
    """infer_prefix and the revalidating oracle agree in the library's
    order, the library's words keyed in ascending id order; with a seed,
    the oracle in that shuffled order finds the library's words, or fails
    where the library fails.  Returns the report."""
    got = infer_prefix(g)
    want = revalidating_infer_prefix(g)
    assert got == want
    if got[0] is not None:
        assert list(got[0]) == sorted(want[0])
    if seed is not None:
        shuffled, _ = revalidating_infer_prefix(g, random.Random(seed))
        assert shuffled == got[0]
    return got[1]


def test_one_pass_inference_matches_the_revalidating_oracle():
    # The oracle's trailing validation pass can only add var0 violations
    # on graphs without variable back-links; inference reports them from
    # one scan after propagating.
    rng = random.Random(4107)
    drawn = passed = multi_var0 = 0
    while drawn < 3000:
        g = random_graph(rng, max_vertices=rng.choice((4, 8)))
        if g.variant.del_arity is None:
            continue
        drawn += 1
        report = _same_inference(g, seed=drawn if drawn % 2 else None)
        if report is None:
            passed += 1
        elif g.variant.var_arity == 0 and len(report.violations) >= 2:
            assert {v.condition for v in report.violations} == {"var0"}
            multi_var0 += 1
    assert 0 < passed < drawn
    assert multi_var0 >= 5


def test_one_pass_inference_matches_the_revalidating_oracle_on_quotients():
    rng = random.Random(4108)
    for _ in range(100):
        dg = term_to_graph(random_term(rng, depth=rng.randint(1, 4)))
        quotient, _ = collapse(dg.graph)
        for g in (quotient, erase_backlinks(quotient, 0, rng.choice((1, 2)))):
            _same_inference(g)


def test_builder_mints_the_smallest_free_suffix():
    # The minter's counter resumes where the last search for a base
    # ended; searching from j = 1 over the taken names, as insertion once
    # did, gives the same names.
    from lamgraph.core import _Minter
    from lamgraph.textfmt import RESERVED_NAMES

    bases = ("a", "a.2", "b", "b.2.s", "s", "scope", "root")
    rng = random.Random(4109)
    for _ in range(300):
        seeded = {rng.choice(bases) + rng.choice(("", ".2", ".3", ".2.2")) for _ in range(4)}
        minter = _Minter(seeded)
        taken = set(RESERVED_NAMES) | seeded
        for _ in range(12):
            base = rng.choice(bases)
            name, n = base, 1
            while name in taken:
                n += 1
                name = f"{base}.{n}"
            taken.add(name)
            assert minter.fresh_name(base) == name


def _minting(g) -> tuple[list[str], list[str], list[str]]:
    """The names of a graph that ``_Builder.finish`` made, read for the
    first time; the names sequential ``fresh_name`` minting gives from
    the seeded names and bases it was made with; and the names by
    position alone (``base``, ``base.2``, ... per base)."""
    from lamgraph.core import _Minter

    assert "names" not in vars(g)
    seeded, bases = g._unnamed
    names = list(g.names)
    ref = _Minter(seeded)
    counts = {}
    positional = list(seeded)
    for base in bases:
        counts[base] = counts.get(base, 0) + 1
        positional.append(base if counts[base] == 1 else f"{base}.{counts[base]}")
    return names, [*seeded, *map(ref.fresh_name, bases)], positional


_COLLIDING_BINDERS = ("a", "a.2", "s", "s.2", "scope", "x")


def _colliding_term(rng, depth, scope=()):
    """A closed lambda term whose binders take names the translator also
    mints: a.2 and s.2 for a second application and delimiter, and the
    reserved word scope."""
    if depth == 0 and scope:
        return Var(rng.choice(scope))
    kind = rng.choice(("abs", "app", "var") if scope else ("abs", "app")) if depth else "abs"
    if kind == "var":
        return Var(rng.choice(scope))
    if kind == "app":
        return App(_colliding_term(rng, depth - 1, scope), _colliding_term(rng, depth - 1, scope))
    name = rng.choice(_COLLIDING_BINDERS)
    return Abs(name, _colliding_term(rng, max(depth - 1, 0), scope + (name,)))


def test_finish_mints_as_fresh_name_does_when_binder_names_collide():
    calls = []
    rng = random.Random(4110)
    for _ in range(200):
        t = _colliding_term(rng, rng.randint(1, 6))
        dg = term_to_graph(t)
        calls.append(_minting(dg.graph))
        names, sequential, _ = calls[-1]
        assert list(dg.graph.names) == names == sequential
        want = name_keyed_term_to_graph(t).graph
        assert dg.graph.names == want.names and dg.graph.args == want.args
    # The terms cover both cases: names by position alone, and collisions.
    assert any(seq == pos for _, seq, pos in calls)
    assert any(seq != pos for _, seq, pos in calls)


def test_insertion_mints_as_fresh_name_does_around_seeded_names():
    # Rename input vertices to the names a first insertion minted, so the
    # second insertion's bases collide with its seeded names.
    from lamgraph import PrefixedGraph, TermGraph

    calls = []
    rng = random.Random(4111)
    collided = 0
    for _ in range(150):
        pg = strip_delimiters(term_to_graph(random_term(rng, depth=rng.randint(1, 4))))
        g, n = pg.graph, pg.graph.vertex_count
        minted = insert_delimiters(pg, 2).graph.names[n:]
        names = list(g.names)
        for v, name in zip(rng.sample(range(n), min(n, len(minted))), minted):
            names[v] = name
        if len(set(names)) < n:
            continue
        renamed = PrefixedGraph(TermGraph(g.variant, g.labels, g.args, g.root, tuple(names)), pg.prefixes)
        for j in (1, 2):
            out = insert_delimiters(renamed, j).graph
            calls.append(_minting(out))
            got, sequential, positional = calls[-1]
            assert list(out.names) == got == sequential
            assert got[:n] == names
            collided += sequential != positional
    assert collided > 0


# ---------------------------------------------------------------------------
# The builder's emission check: inference's violation where there is one,
# else each vertex's recorded innermost binder against the inferred one.


def _emitted(rows, variant=SignatureVariant(1, 2)):
    """``_Builder.finish`` on vertices given as (base, label, innermost
    binder, successors), the first of them the root."""
    from lamgraph.delimited import _Builder

    b = _Builder()
    for base, label, inner, succ in rows:
        b.bases.append(base)
        b.labels.append(label)
        b.inner.append(inner)
        b.succ.append(succ)
    return b.finish(0, variant)


ABS, APP, VAR, DEL = Label.ABS, Label.APP, Label.VAR, Label.DEL


@pytest.mark.parametrize(
    "rows, expected",
    [
        # \x. x with the root given a binder.
        ([("x", ABS, 0, (1,)), ("x!", VAR, 0, (0,))], "root at x"),
        ([("x", ABS, -1, (1,)), ("x!", VAR, -1, (0,))], "lambda at x, x!"),
        (
            [("x", ABS, -1, (1,)), ("a", APP, 0, (2, 3)), ("x!", VAR, 0, (0,)), ("x!", VAR, -1, (0,))],
            "apply at a, x!.2",
        ),
        # A delimiter with nothing to pop, and one whose target keeps x.
        ([("s", DEL, -1, (1, 1)), ("x", ABS, -1, (2,)), ("x!", VAR, 1, (1,))], "delim-pop at s, x"),
        (
            [("x", ABS, -1, (1,)), ("s", DEL, 0, (2, 0)), ("y", ABS, 0, (3,)), ("y!", VAR, 2, (2,))],
            "delim-pop at s, y",
        ),
        # \x. \y. S(x) back-linking to x, which it does not pop.
        (
            [("x", ABS, -1, (1,)), ("y", ABS, 0, (2,)), ("s", DEL, 1, (3, 0)), ("x!", VAR, 0, (0,))],
            "delim-backlink at s, x",
        ),
        ([("x!", VAR, -1, (0,))], "var0 at x!"),
        ([("x", ABS, -1, (1,)), ("y", ABS, 0, (2,)), ("x!", VAR, 1, (0,))], "var1 at x!, x"),
    ],
)
def test_emission_check_names_the_failed_condition(rows, expected):
    # Each case breaks the strict validator's condition ``expected`` on
    # the recorded binders.  Where the graph itself has a correct prefix
    # function, inference passes, and the first vertex whose recorded
    # binder is not the inferred one is named instead.
    mismatch = {
        "root at x": "recorded binder x of x is not the inferred ()",
        "lambda at x, x!": "recorded binder () of x! is not the inferred x",
        "apply at a, x!.2": "recorded binder () of x!.2 is not the inferred x",
        "delim-pop at s, y": "recorded binder x of y is not the inferred ()",
    }
    with pytest.raises(ValueError) as refusal:
        _emitted(rows)
    assert str(refusal.value) == mismatch.get(expected, f"not a valid delimited lambda graph: {expected}")


def test_emission_check_names_every_unreachable_vertex():
    from lamgraph import UnreachableVertex

    rows = [("x", ABS, -1, (1,)), ("x!", VAR, 0, (0,)), ("a", VAR, 0, (0,)), ("a", VAR, 0, (0,))]
    with pytest.raises(UnreachableVertex) as refusal:
        _emitted(rows)
    assert refusal.value.vertices == ("a", "a.2")


def test_emission_check_refuses_every_changed_binder():
    # The correct prefix function is unique and the innermost binders
    # determine it, so the check refuses any other binder for any vertex:
    # here each vertex of each translation gets -1 or another abstraction.
    from lamgraph.delimited import _Builder

    rng = random.Random(4112)
    refused = 0
    for _ in range(60):
        dg = term_to_graph(random_term(rng, depth=rng.randint(1, 4)))
        g = dg.graph
        inner = [word[-1] if word else -1 for word in map(dg.prefixes.__getitem__, g.vertices())]
        choices = [-1, *g.vertices_labeled(ABS)]
        assert _Builder(g.labels, g.args, g.names, inner).finish(g.root, g.variant) == dg
        for v in g.vertices():
            for other in choices:
                if other == inner[v]:
                    continue
                changed = inner[:v] + [other] + inner[v + 1:]
                with pytest.raises(ValueError):
                    _Builder(g.labels, g.args, g.names, changed).finish(g.root, g.variant)
                refused += 1
    assert refused > 500


# A word that lists an abstraction twice, under both prefix validators.
@pytest.mark.parametrize(
    "validator, text, expected",
    [
        (
            validate_prefix_ho,
            "sig 0\nroot r\nr lam c\nc 0\n",
            "fail: repeated-entry at c; lambda at r, c",
        ),
        (
            validate_prefix_fo,
            "sig 0 1\nroot r\nr lam c\nc 0\n",
            "fail: repeated-entry at c; lambda at r, c",
        ),
    ],
)
def test_a_repeated_prefix_entry_is_reported(validator, text, expected):
    g = parse_graph(text).graph
    assert validator(g, {"r": (), "c": ("r", "r")}).describe(g) == expected
