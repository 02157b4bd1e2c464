"""Acceptance criteria.

Each test prints one pass/fail line (visible with ``pytest -s``); the
test outcome itself carries the verdict either way.  Random inputs are
seeded, so runs are reproducible.
"""

import random
from contextlib import contextmanager

import pytest

from conftest import (
    RUNNING_TERM,
    NONEXT_SOURCE_PREFIXES_LAZY,
    corpus_graphs,
    debruijn_chain,
)
from generators import erase_backlinks, random_quotient, random_term
from oracles import (
    all_homomorphisms,
    all_scope_functions,
    brute_coarsest_partition,
    name_keyed_term_to_graph,
    revalidating_infer_prefix,
)

from lamgraph import (
    DelimitedGraph,
    Label,
    PrefixedGraph,
    ScopedGraph,
    coarsest_partition,
    collapse,
    find_homomorphism,
    infer_prefix,
    insert_delimiters,
    is_eager_scope,
    is_fully_back_linked,
    is_label_restricted,
    is_lambda_term_graph,
    isomorphic,
    lift_homomorphism,
    parse_graph,
    prefix_to_scope,
    scope_to_prefix,
    strip_delimiters,
    term_to_graph,
)
from lamgraph.cli import main as cli_main


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {title}")
        raise
    print(f"criterion {number}: PASS - {title}")


# Shared pools of random valid graphs, generated once per session.


@pytest.fixture(scope="session")
def delimited_pool():
    rng = random.Random(900)
    pool = []
    while len(pool) < 500:
        lazy = rng.random() < 0.5
        t = random_term(rng, depth=rng.randint(1, 4))
        dg = name_keyed_term_to_graph(t, rng=rng) if lazy else term_to_graph(t)
        pool.append(dg)
    return pool


@pytest.fixture(scope="session")
def prefixed_pool(delimited_pool):
    rng = random.Random(901)
    pool = []
    i = 0
    while len(pool) < 500:
        pg = strip_delimiters(delimited_pool[i % len(delimited_pool)])
        i += 1
        if pg.graph.vertex_count > 12:
            continue
        if rng.random() < 0.5:
            erased = erase_backlinks(pg.graph, 0, None)
            pg = PrefixedGraph.checked(
                erased,
                {
                    erased.id_of(pg.graph.name_of(v)): tuple(
                        erased.id_of(pg.graph.name_of(x)) for x in word
                    )
                    for v, word in pg.prefixes.items()
                },
            )
        pool.append(pg)
    return pool


def test_criterion_1_debruijn_fixture():
    with criterion(1, "de Bruijn chain membership and homomorphisms, variants (0,1) and (0,2)"):
        for j in (1, 2):
            g2, g1, g0 = debruijn_chain(j)
            assert is_lambda_term_graph(g2)
            assert not is_lambda_term_graph(g1)
            assert is_lambda_term_graph(g0)
            assert find_homomorphism(g2, g1) is not None
            assert find_homomorphism(g1, g0) is not None


def test_criterion_2_scope_prefix_round_trip(prefixed_pool):
    with criterion(2, "scope/prefix interconversion is a bijection on 500 graphs, both i"):
        assert len(prefixed_pool) >= 500
        assert any(pg.graph.variant.var_arity == 0 for pg in prefixed_pool)
        assert any(pg.graph.variant.var_arity == 1 for pg in prefixed_pool)
        for pg in prefixed_pool:
            sg = prefix_to_scope(pg)
            again = scope_to_prefix(sg)
            assert again.graph is pg.graph and again.prefixes == pg.prefixes
            back = prefix_to_scope(again)
            assert back.graph is sg.graph and back.scopes == sg.scopes


def test_criterion_3_delimiter_round_trip(prefixed_pool, delimited_pool):
    with criterion(3, "delimiter insertion/erasure round trips on 500 graphs"):
        assert len(delimited_pool) >= 500
        # Erasure after insertion is the identity up to isomorphism, with
        # the prefixes carried along: on all 500 stripped translations
        # (variable back-links present) and on the mixed-i pool as well.
        ap_pool = [strip_delimiters(dg) for dg in delimited_pool]
        for pg in ap_pool + prefixed_pool:
            fo = insert_delimiters(pg, 2)
            back = strip_delimiters(fo)
            iso = isomorphic(back.graph, pg.graph)
            assert iso is not None
            assert all(
                tuple(iso[x] for x in back.prefixes[v]) == pg.prefixes[iso[v]]
                for v in back.graph.vertices()
            )
        # Insertion after erasure maps onto the original, identifying
        # only delimiter vertices.
        for dg in delimited_pool:
            redone = insert_delimiters(strip_delimiters(dg), 2)
            h = find_homomorphism(redone.graph, dg.graph)
            assert h is not None
            assert is_label_restricted(h, redone.graph, Label.DEL)


def test_criterion_4_prefix_inference_unique(delimited_pool):
    with criterion(4, "prefix inference is traversal-order independent, 20 orders x 500 graphs"):
        for n, dg in enumerate(delimited_pool):
            # The library has one order, where it must equal the oracle,
            # with its words keyed in ascending id order; the oracle runs
            # the same propagation in 20 shuffled orders.
            got = infer_prefix(dg.graph)
            want = revalidating_infer_prefix(dg.graph)
            assert got == want and list(got[0]) == sorted(want[0])
            for k in range(20):
                shuffled, _ = revalidating_infer_prefix(dg.graph, rng=random.Random(n * 20 + k))
                assert shuffled == got[0]


def test_criterion_5_eager_closure(delimited_pool):
    with criterion(5, "eager class closed under collapse and under random quotients"):
        rng = random.Random(902)
        eager_count = 0
        for dg in delimited_pool:
            if not is_eager_scope(dg):
                continue  # pool mixes eager and lazy translations
            eager_count += 1
            collapsed, _ = collapse(dg.graph)
            out = DelimitedGraph.from_graph(collapsed)
            assert is_eager_scope(out)
            assert is_fully_back_linked(out)
        assert eager_count >= 200
        fbl_checked = 0
        for dg in delimited_pool:
            if not is_fully_back_linked(dg):
                continue
            image, _ = random_quotient(dg.graph, rng)
            quotient = DelimitedGraph.from_graph(image)
            assert is_fully_back_linked(quotient)
            if is_eager_scope(dg):
                assert is_eager_scope(quotient)
            fbl_checked += 1
        assert fbl_checked >= 200


def test_criterion_5_supplement_fresh_eager_terms():
    # 500 eager translations outright, beyond the mixed pool.
    with criterion(5, "supplement: 500 eager translations collapse inside the class"):
        rng = random.Random(903)
        for _ in range(500):
            dg = term_to_graph(random_term(rng, depth=rng.randint(1, 3)))
            collapsed, _ = collapse(dg.graph)
            out = DelimitedGraph.from_graph(collapsed)
            assert is_eager_scope(out) and is_fully_back_linked(out)


def test_criterion_6_collapse_matches_oracle():
    with criterion(6, "collapse partition equals brute-force coarsest partition"):
        checked = 0
        for g in corpus_graphs():
            if g.vertex_count <= 8:
                assert coarsest_partition(g).as_blocks() == brute_coarsest_partition(g)
                checked += 1
        rng = random.Random(904)
        from generators import random_graph

        for _ in range(200):
            g = random_graph(rng, max_vertices=8)
            assert coarsest_partition(g).as_blocks() == brute_coarsest_partition(g)
            checked += 1
        assert checked >= 200


def test_criterion_7_end_to_end_cli(tmp_path, capsys):
    with criterion(7, "CLI maxshare and equiv end to end"):
        pair = tmp_path / "pair.lam"
        pair.write_text(r"(\x.x)(\y.y)")
        assert cli_main(["maxshare", str(pair)]) == 0
        out = capsys.readouterr().out
        g = parse_graph(out).graph
        expected = parse_graph("sig 1 2\nroot a\na @ b b\nb lam v\nv 0 b\n").graph
        assert g.vertex_count == 3
        assert isomorphic(g, expected) is not None

        sample = tmp_path / "running.lam"
        sample.write_text(RUNNING_TERM)
        renamed = tmp_path / "running_renamed.lam"
        renamed.write_text(
            r"letrec fun = \a.(\b. b (a gee)) (\c. gee fun); gee = \w.w in fun"
        )
        assert cli_main(["equiv", str(sample), str(renamed)]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"
        other = tmp_path / "id.lam"
        other.write_text(r"\u.u")
        assert cli_main(["equiv", str(sample), str(other)]) == 1
        assert capsys.readouterr().out.strip() == "not equivalent"


def test_criterion_8_homomorphism_uniqueness():
    with criterion(8, "at most one homomorphism per ordered corpus pair, exhaustively"):
        small = [g for g in corpus_graphs() if g.vertex_count <= 6]
        assert len(small) >= 8
        pairs = 0
        for g1 in small:
            for g2 in small:
                if g1.variant != g2.variant:
                    continue
                found = all_homomorphisms(g1, g2)
                assert len(found) <= 1
                assert find_homomorphism(g1, g2) == (found[0] if found else None)
                pairs += 1
        assert pairs >= 20


def test_criterion_9_non_extension(nonext_pair):
    with criterion(9, "no target scope assignment extends the carrier homomorphism"):
        source, target = nonext_pair
        assert source.vertex_count <= 8 and target.vertex_count <= 8
        h = find_homomorphism(source, target)
        assert h is not None
        lazy_source = prefix_to_scope(
            PrefixedGraph.checked(source, NONEXT_SOURCE_PREFIXES_LAZY)
        )
        target_assignments = [
            ScopedGraph(target, sc) for sc in all_scope_functions(target)
        ]
        assert len(target_assignments) >= 1
        assert all(
            not lift_homomorphism(h, lazy_source, t) for t in target_assignments
        )
