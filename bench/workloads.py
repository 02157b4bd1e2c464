"""The three benchmark workloads: corpus, one op, its traced form and
its reference check.

An op calls the package only through ``lib``, the imported ``lamgraph``
module (or a stand-in with one function replaced, in the self-tests).
Untraced, it is exactly the route the command-line tool takes.  Traced,
every call into the package gets a span named ``<module>.<function>``,
and probe spans after the op replay parts of it to split a layer's time
further; probes never count towards op time.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Random terms for ``maxshare`` come from a fixed pool so that each has a
# recorded output digest; the seed picks which of them a run uses.
POOL_SIZE = 256
POOL_TERM_SIZE = 60


class ReplayMismatch(Exception):
    """A traced replay of a library call disagrees with the call itself."""


@dataclass(frozen=True)
class Op:
    id: int
    family: str
    size: int
    inputs: tuple[str, ...]
    # Family-specific reference: label counts, a digest, a verdict, or
    # the input document itself.
    expect: object


def pool_term(i: int) -> str:
    return gen.format_term(gen.random_term(random.Random(f"maxshare-pool-{i}"), POOL_TERM_SIZE))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Reading documents, independently of ``lamgraph.textfmt``.


@dataclass
class Doc:
    sig: tuple[str, ...]
    root: str
    vertices: dict[str, tuple[str, tuple[str, ...]]]
    prefixed: set[str]
    scopes: dict[str, frozenset[str]]

    def label_counts(self) -> dict[str, int]:
        return dict(Counter(label for label, _ in self.vertices.values()))


def read_doc(text: str) -> Doc:
    sig: tuple[str, ...] = ()
    root = ""
    vertices: dict[str, tuple[str, tuple[str, ...]]] = {}
    prefixed: set[str] = set()
    scopes: dict[str, frozenset[str]] = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "sig":
            sig = tuple(fields[1:])
        elif fields[0] == "root":
            root = fields[1]
        elif fields[0] == "prefix":
            prefixed.add(fields[1])
        elif fields[0] == "scope":
            scopes[fields[1]] = frozenset(fields[4:-1])
        else:
            vertices[fields[0]] = (fields[1], tuple(fields[2:]))
    return Doc(sig, root, vertices, prefixed, scopes)


# ---------------------------------------------------------------------------
# Tracing counters shared by the workloads.


def count_nodes(lib, t) -> int:
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        n += 1
        if isinstance(u, lib.App):
            stack += (u.fun, u.arg)
        elif isinstance(u, lib.Abs):
            stack.append(u.body)
        elif isinstance(u, lib.Letrec):
            stack.extend(b for _, b in u.bindings)
            stack.append(u.body)
    return n


def postcheck(lib, tr, dg) -> None:
    """Replay term_to_graph's own post-checks on its result."""
    with tr.span("translate.postcheck"):
        tr.call("delimited.infer_prefix", lib.infer_prefix, dg.graph)
        tr.call("delimited.is_eager_scope", lib.is_eager_scope, dg)
        tr.call("delimited.is_fully_back_linked", lib.is_fully_back_linked, dg)


def traced_collapse(lib, tr, stats, graph):
    quotient, projection = tr.call("sharing.collapse", lib.collapse, graph)
    stats["collapse_in"] += graph.vertex_count
    stats["core.vertices.quotient"] += quotient.vertex_count
    return quotient, projection


# ---------------------------------------------------------------------------
# maxshare: parse_term -> term_to_graph -> collapse -> from_graph -> text.


class MaxShare:
    """One or two binders and deep, highly shared application chains:
    collapse (one refinement round per level) and translate do the work;
    scoped and transforms are never called."""

    name = "maxshare"
    # (family, size, copies): copies differ in binder names only.
    LADDER = [(fam, n, c) for fam in ("spine", "nest", "church")
              for n, c in ((8, 6), (16, 6), (32, 4), (64, 3), (128, 3))]
    RANDOM_OPS = 200

    def corpus(self, rng: random.Random) -> list[Op]:
        reference = json.loads(REFERENCE.read_text())["maxshare_pool"]
        ops = []
        for family, n, copies in self.LADDER:
            for _ in range(copies):
                t = gen.tag(rng)
                if family == "spine":
                    src, expect = gen.spine(n, t), {"lam": 1, "@": n - 1, "0": 1}
                elif family == "nest":
                    src, expect = gen.nest(n, t), {"lam": 1, "@": n - 1, "0": 1}
                else:
                    # Every f sits inside x's scope behind one delimiter;
                    # the delimiters and the f occurrences merge.
                    src = gen.church(n, t + "f", t + "x")
                    expect = {"lam": 2, "@": n, "S": 1, "0": 2}
                ops.append((family, n, (src,), expect))
        for i in rng.sample(range(POOL_SIZE), self.RANDOM_OPS):
            ops.append(("random", POOL_TERM_SIZE, (pool_term(i),), reference[i]))
        rng.shuffle(ops)
        return [Op(i, *op) for i, op in enumerate(ops)]

    @staticmethod
    def run(lib, op: Op) -> str:
        dg = lib.term_to_graph(lib.parse_term(op.inputs[0]))
        quotient, _ = lib.collapse(dg.graph)
        shared = lib.DelimitedGraph.from_graph(quotient)
        return lib.serialize_graph(lib.GraphDocument(shared.graph, prefixes=shared.prefixes))

    @staticmethod
    def run_traced(lib, op: Op, tr, stats: Counter) -> str:
        with tr.span("op", op.id):
            t = tr.call("terms.parse_term", lib.parse_term, op.inputs[0])
            dg = tr.call("translate.term_to_graph", lib.term_to_graph, t)
            quotient, _ = traced_collapse(lib, tr, stats, dg.graph)
            shared = tr.call("delimited.from_graph", lib.DelimitedGraph.from_graph, quotient)
            doc = lib.GraphDocument(shared.graph, prefixes=shared.prefixes)
            out = tr.call("textfmt.serialize_graph", lib.serialize_graph, doc)
        with tr.span("probe", op.id):
            postcheck(lib, tr, dg)
            tr.call("sharing.coarsest_partition", lib.coarsest_partition, dg.graph)
        stats["terms.nodes"] += count_nodes(lib, t)
        stats["core.vertices.input"] += dg.graph.vertex_count
        stats["core.vertices.delimited"] += dg.graph.vertex_count
        stats["textfmt.bytes"] += len(out)
        return out

    @staticmethod
    def check(op: Op, out: str) -> bool:
        if op.family == "random":
            return digest(out) == op.expect
        doc = read_doc(out)
        return (
            doc.sig == ("1", "2")
            and doc.label_counts() == op.expect
            and doc.prefixed == set(doc.vertices)
            and doc.vertices.get(doc.root, ("",))[0] == "lam"
        )

    def cli_cases(self, corpus: list[Op]) -> list[tuple[list[str], Op]]:
        cases = []
        for family in ("spine", "nest", "church"):
            op = next(o for o in corpus if o.family == family and o.size == 32)
            cases.append((["maxshare"], op))
        return cases

    @staticmethod
    def check_cli(op: Op, code: int, out: str) -> bool:
        return code == 0 and MaxShare.check(op, out)


# ---------------------------------------------------------------------------
# equiv: parse and translate both terms, then are_bisimilar.


class Equiv:
    """A yes/no use of sharing on large cyclic inputs that collapse to a
    few blocks: translation dominates and bisimulation is small.  The
    contrast workload for a collapse optimisation, and the one where an
    early exit on "not equivalent" would show."""

    name = "equiv"
    # (ring size n, unrolled levels k, equivalent copies, rebound copies)
    RINGS = [(8, 4, 10, 5), (16, 8, 8, 4), (32, 16, 6, 3), (64, 32, 4, 2)]
    # Random pairs of each verdict: the seed picks RANDOM_PAIRS of
    # POOL_PAIRS, so the median op, which is a random pair, varies little
    # from seed to seed.
    RANDOM_PAIRS = 90
    POOL_PAIRS = 100
    RANDOM_SIZE = 40

    @classmethod
    def pool_pair(cls, i: int, verdict: str) -> tuple[str, str]:
        rng = random.Random(f"equiv-pool-{verdict}-{i}")
        if verdict == "equivalent":
            t = gen.random_term(rng, cls.RANDOM_SIZE)
            return gen.format_term(t), gen.format_term(gen.alpha_rename(t, rng))
        while True:
            t = gen.random_term(rng, cls.RANDOM_SIZE)
            rebound = gen.rebind(t, rng)
            if rebound is not None:
                return gen.format_term(t), gen.format_term(rebound)

    def corpus(self, rng: random.Random) -> list[Op]:
        ops = []
        for n, k, same, rebound in self.RINGS:
            for i in range(same + rebound):
                t = gen.tag(rng)
                ring = gen.ring(n, t + "f", t + "x")
                if i < same:
                    other = gen.ring_unrolled(n, k, t + "f", t + "x", t + "y")
                    ops.append(("ring", n, (ring, other), "equivalent"))
                else:
                    d = rng.randint(2, k)
                    other = gen.ring_unrolled(n, k, t + "f", t + "x", t + "y", rebind_at=d)
                    ops.append(("ring", n, (ring, other), "not equivalent"))
        for verdict in ("equivalent", "not equivalent"):
            for i in rng.sample(range(self.POOL_PAIRS), self.RANDOM_PAIRS):
                ops.append(("random", self.RANDOM_SIZE, self.pool_pair(i, verdict), verdict))
        rng.shuffle(ops)
        return [Op(i, *op) for i, op in enumerate(ops)]

    @staticmethod
    def run(lib, op: Op) -> str:
        g1 = lib.term_to_graph(lib.parse_term(op.inputs[0]))
        g2 = lib.term_to_graph(lib.parse_term(op.inputs[1]))
        return "equivalent" if lib.are_bisimilar(g1.graph, g2.graph) else "not equivalent"

    @staticmethod
    def run_traced(lib, op: Op, tr, stats: Counter) -> str:
        graphs = []
        with tr.span("op", op.id):
            for src in op.inputs:
                t = tr.call("terms.parse_term", lib.parse_term, src)
                graphs.append(tr.call("translate.term_to_graph", lib.term_to_graph, t))
                stats["terms.nodes"] += count_nodes(lib, t)
            same = tr.call("sharing.are_bisimilar", lib.are_bisimilar,
                           graphs[0].graph, graphs[1].graph)
        with tr.span("probe", op.id):
            quotients = []
            for dg in graphs:
                postcheck(lib, tr, dg)
                quotients.append(traced_collapse(lib, tr, stats, dg.graph)[0])
                tr.call("sharing.coarsest_partition", lib.coarsest_partition, dg.graph)
            iso = tr.call("core.isomorphic", lib.isomorphic, *quotients)
        for dg in graphs:
            stats["core.vertices.input"] += dg.graph.vertex_count
            stats["core.vertices.delimited"] += dg.graph.vertex_count
        if (iso is not None) != same:
            raise ReplayMismatch("are_bisimilar replayed as collapse + isomorphic disagrees")
        return "equivalent" if same else "not equivalent"

    @staticmethod
    def check(op: Op, out: str) -> bool:
        return out == op.expect

    def cli_cases(self, corpus: list[Op]) -> list[tuple[list[str], Op]]:
        cases = []
        for verdict in ("equivalent", "not equivalent"):
            op = next(o for o in corpus if o.family == "ring" and o.size == 16
                      and o.expect == verdict)
            cases.append((["equiv"], op))
        return cases

    @staticmethod
    def check_cli(op: Op, code: int, out: str) -> bool:
        return code == (0 if op.expect == "equivalent" else 1) and out.strip() == op.expect


# ---------------------------------------------------------------------------
# maxshare_ho: parse_graph -> ScopedGraph.checked -> max_share_ho -> text.


class MaxShareHO:
    """Many binders and long prefix words: textfmt, scope validation and
    the scope/prefix conversions do most of the work; terms and
    translate are never called.  Rings collapse to a fixed size, so
    collapse is light on them; towers share nothing and take n
    refinement rounds, so collapse is still present."""

    name = "maxshare_ho"
    LADDER = [("ring", n, c) for n, c in ((8, 40), (16, 30), (32, 16), (64, 8), (128, 3))]
    LADDER += [("tower", n, c) for n, c in ((4, 45), (8, 35), (16, 16), (32, 8), (64, 2))]

    def corpus(self, rng: random.Random) -> list[Op]:
        ops = []
        for family, n, copies in self.LADDER:
            for _ in range(copies):
                p = gen.tag(rng) + "_"
                doc = gen.ring_doc(n, p) if family == "ring" else gen.tower_doc(n, p)
                ops.append((family, n, (doc,), doc))
        rng.shuffle(ops)
        return [Op(i, *op) for i, op in enumerate(ops)]

    @staticmethod
    def run(lib, op: Op) -> str:
        doc = lib.parse_graph(op.inputs[0])
        shared = lib.max_share_ho(lib.ScopedGraph.checked(doc.graph, doc.scopes))
        return lib.serialize_graph(lib.GraphDocument(shared.graph, scopes=shared.scopes))

    @staticmethod
    def run_traced(lib, op: Op, tr, stats: Counter) -> str:
        with tr.span("op", op.id):
            doc = tr.call("textfmt.parse_graph", lib.parse_graph, op.inputs[0])
            h = tr.call("scoped.ScopedGraph.checked", lib.ScopedGraph.checked,
                        doc.graph, doc.scopes)
            shared = tr.call("sharing.max_share_ho", lib.max_share_ho, h)
            out_doc = lib.GraphDocument(shared.graph, scopes=shared.scopes)
            out = tr.call("textfmt.serialize_graph", lib.serialize_graph, out_doc)
        with tr.span("probe", op.id):
            # max_share_ho as its seven public steps.
            prefixed = tr.call("transforms.scope_to_prefix", lib.scope_to_prefix, h)
            delimited = tr.call("transforms.insert_delimiters", lib.insert_delimiters,
                                prefixed, 2)
            eager = tr.call("delimited.is_eager_scope", lib.is_eager_scope, delimited)
            quotient, _ = traced_collapse(lib, tr, stats, delimited.graph)
            dq = tr.call("delimited.from_graph", lib.DelimitedGraph.from_graph, quotient)
            stripped = tr.call("transforms.strip_delimiters", lib.strip_delimiters, dq)
            replay = tr.call("transforms.prefix_to_scope", lib.prefix_to_scope, stripped)
            tr.call("sharing.coarsest_partition", lib.coarsest_partition, delimited.graph)
        if not eager or replay != shared:
            raise ReplayMismatch("max_share_ho replayed step by step gave another result")
        n_in = doc.graph.vertex_count
        stats["core.vertices.input"] += n_in
        stats["core.vertices.delimited"] += delimited.graph.vertex_count
        stats["transforms.delimiters"] += delimited.graph.vertex_count - n_in
        stats["scoped.prefix_len_total"] += sum(map(len, prefixed.prefixes.values()))
        stats["scoped.scope_size_total"] += sum(map(len, h.scopes.values()))
        stats["textfmt.bytes"] += len(op.inputs[0]) + len(out)
        return out

    @staticmethod
    def check(op: Op, out: str) -> bool:
        doc, given = read_doc(out), read_doc(op.expect)
        if doc.sig != ("1",):
            return False
        if op.family == "tower":
            # No sharing: the same vertices, edges and scopes come back.
            return (
                doc.root == given.root
                and doc.vertices == given.vertices
                and doc.scopes == given.scopes
            )
        # A ring of any length collapses to one binding: lam -> @,
        # @ -> (var, lam), var -> lam, all three in the lambda's scope.
        by_label = {label: name for name, (label, _) in doc.vertices.items()}
        if len(doc.vertices) != 3 or set(by_label) != {"lam", "@", "0"}:
            return False
        lam, app, var = by_label["lam"], by_label["@"], by_label["0"]
        return (
            doc.root == lam
            and doc.vertices[lam][1] == (app,)
            and doc.vertices[app][1] == (var, lam)
            and doc.vertices[var][1] == (lam,)
            and doc.scopes == {lam: frozenset((lam, app, var))}
        )

    def cli_cases(self, corpus: list[Op]) -> list[tuple[list[str], Op]]:
        ring = next(o for o in corpus if o.family == "ring" and o.size == 32)
        tower = next(o for o in corpus if o.family == "tower" and o.size == 16)
        return [(["translate", "--from", "hotg", "--to", "ltg"], op) for op in (ring, tower)]

    @staticmethod
    def check_cli(op: Op, code: int, out: str) -> bool:
        # Going first-order adds one delimiter per edge that leaves a
        # scope: the edge into the next ring binding, and in a tower the
        # function edge of every application.
        n = op.size
        if op.family == "ring":
            expect = {"lam": n, "@": n, "0": n, "S": n}
        else:
            expect = {"lam": n, "@": n - 1, "0": n, "S": n - 1}
        doc = read_doc(out)
        return code == 0 and doc.sig == ("1", "2") and doc.label_counts() == expect


WORKLOADS = {w.name: w for w in (MaxShare(), Equiv(), MaxShareHO())}
