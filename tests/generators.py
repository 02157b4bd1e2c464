"""Seeded random generators for terms and graphs used across the tests,
and the fixture terms they share."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from lamgraph import (
    Abs,
    App,
    Label,
    Letrec,
    SignatureVariant,
    Term,
    TermGraph,
    Var,
    build,
    build_pruned,
)

ALL_VARIANTS = [
    SignatureVariant(0, None),
    SignatureVariant(1, None),
    SignatureVariant(0, 1),
    SignatureVariant(0, 2),
    SignatureVariant(1, 1),
    SignatureVariant(1, 2),
]


def random_term(rng: random.Random, depth: int = 5, max_bindings: int = 3, splice: bool = False) -> Term:
    """A random closed term with letrec, bounded depth.  With ``splice``,
    a letrec binding's term may be a letrec too, whose group the parser
    splices into the enclosing one; without it, the draws are the same
    as before that option was added."""

    def gen(d: int, lam_scope: tuple[str, ...], rec_scope: tuple[str, ...]) -> Term:
        choices = ["abs", "abs"]
        if d > 0:
            choices += ["app", "app", "app"]
            choices.append("letrec")
        if lam_scope:
            choices += ["var", "var", "var"]
        if rec_scope:
            choices += ["ref", "ref"]
        kind = rng.choice(choices)
        if kind == "var":
            return Var(rng.choice(lam_scope))
        if kind == "ref":
            return Var(rng.choice(rec_scope))
        if kind == "abs":
            name = f"x{rng.randrange(1000)}"
            if d == 0:
                return Abs(name, Var(name))
            return Abs(name, gen(d - 1, lam_scope + (name,), rec_scope))
        if kind == "app":
            return App(gen(d - 1, lam_scope, rec_scope), gen(d - 1, lam_scope, rec_scope))
        names = fresh_names(rec_scope)
        inner = rec_scope + tuple(names)
        bindings = tuple((n, binding(d, lam_scope, inner)) for n in names)
        return Letrec(bindings, gen(d - 1, lam_scope, inner))

    def fresh_names(rec_scope: tuple[str, ...]) -> list[str]:
        names = []
        while len(names) < rng.randint(1, max_bindings):
            n = f"f{rng.randrange(1000)}"
            if n not in names and n not in rec_scope:
                names.append(n)
        return names

    def binding(d: int, lam_scope: tuple[str, ...], rec_scope: tuple[str, ...]) -> Term:
        # Binding terms are abstractions or applications so that no
        # binding is a bare name (those may alias-cycle); with splice, also
        # a letrec whose binding terms and body are binding terms again.
        shape = rng.choice(["abs", "app", "abs"] + ["letrec"] * 3 * (splice and d > 1))
        if shape == "abs":
            x = f"y{rng.randrange(1000)}"
            return Abs(x, gen(d - 1, lam_scope + (x,), rec_scope))
        if shape == "app":
            return App(gen(d - 1, lam_scope, rec_scope), gen(d - 1, lam_scope, rec_scope))
        names = fresh_names(rec_scope)
        inner = rec_scope + tuple(names)
        bindings = tuple((n, binding(d - 1, lam_scope, inner)) for n in names)
        return Letrec(bindings, binding(d - 1, lam_scope, inner))

    return gen(depth, (), ())


@st.composite
def closed_terms(draw) -> Term:
    """Hypothesis closed terms: variables refer to binders in scope,
    letrec bindings are abstractions."""

    def gen(depth, scope):
        options = ["abs"]
        if scope:
            options.append("var")
        if depth > 0:
            options += ["app", "letrec"]
        kind = draw(st.sampled_from(options))
        if kind == "var":
            return Var(draw(st.sampled_from(sorted(scope))))
        if kind == "abs":
            name = f"x{depth}_{draw(st.integers(0, 3))}"
            if depth == 0:
                return Abs(name, Var(name))
            return Abs(name, gen(depth - 1, scope | {name}))
        if kind == "app":
            return App(gen(depth - 1, scope), gen(depth - 1, scope))
        names = [f"f{depth}_{i}" for i in range(draw(st.integers(1, 2)))]
        inner = scope | set(names)
        bindings = tuple(
            (n, Abs(f"y{depth}_{i}", gen(depth - 1, inner | {f"y{depth}_{i}"})))
            for i, n in enumerate(names)
        )
        return Letrec(bindings, gen(depth - 1, inner))

    return gen(draw(st.integers(1, 4)), frozenset())


def table_less_copy(t: Term) -> Term:
    """``t`` built again by its constructor from its fields, so it holds
    no parse table; ``getattr`` reads an unread parsed root back first."""
    return type(t)(*(getattr(t, name) for name in t.__match_args__))


def erase_backlinks(
    g: TermGraph, var_arity: int, del_arity: int | None
) -> TermGraph:
    """Forget variable and/or delimiter back-link edges.

    Dropping back-links preserves every prefix-correctness condition, so
    this turns valid graphs over richer variants into valid graphs over
    poorer ones (possibly with newly unreachable abstractions, which are
    pruned).
    """
    target = SignatureVariant(var_arity, del_arity)
    labels = {g.names[v]: g.labels[v] for v in g.vertices()}
    succ = {}
    for v in g.vertices():
        out = [g.names[w] for w in g.args[v]]
        if g.labels[v] is Label.VAR and var_arity == 0:
            out = []
        if g.labels[v] is Label.DEL and del_arity == 1:
            out = out[:1]
        succ[g.names[v]] = out
    pruned_graph, _ = build_pruned(target, labels, succ, g.names[g.root])
    return pruned_graph


def random_quotient(
    g: TermGraph, rng: random.Random
) -> tuple[TermGraph, dict[int, int]]:
    """A random homomorphic image between the graph and its collapse.

    Seeds a union-find with random pairs of bisimilar vertices and closes
    under indexed-successor congruence, so the quotient is well-defined.
    """
    from lamgraph import coarsest_partition, build

    part = coarsest_partition(g)
    parent = list(g.vertices())

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def merge(u, v):
        ru, rv = find(u), find(v)
        if ru == rv:
            return
        parent[rv] = ru
        for k in range(len(g.args[u])):
            merge(g.args[u][k], g.args[v][k])

    buckets: dict[int, list[int]] = {}
    for v in g.vertices():
        buckets.setdefault(part.block[v], []).append(v)
    for members in buckets.values():
        for v in members[1:]:
            if rng.random() < 0.5:
                merge(members[0], v)
    classes: dict[int, list[int]] = {}
    for v in g.vertices():
        classes.setdefault(find(v), []).append(v)
    rep = {c: min(members) for c, members in classes.items()}
    labels = {g.names[rep[c]]: g.labels[rep[c]] for c in classes}
    succ = {
        g.names[rep[c]]: [g.names[rep[find(w)]] for w in g.args[rep[c]]]
        for c in classes
    }
    quotient = build(g.variant, labels, succ, g.names[rep[find(g.root)]])
    mapping = {v: quotient.id_of(g.names[rep[find(v)]]) for v in g.vertices()}
    return quotient, mapping


def random_graph(rng: random.Random, max_vertices: int = 8) -> TermGraph:
    """A random reachable term graph over a random variant.

    No lambda-correctness is attempted; these exercise the first-order
    machinery (collapse, homomorphisms) on arbitrary shapes.
    """
    variant = rng.choice(ALL_VARIANTS)
    n = rng.randint(1, max_vertices)
    allowed = [Label.APP, Label.ABS, Label.VAR]
    if variant.del_arity is not None:
        allowed.append(Label.DEL)
    names = [f"n{i}" for i in range(n)]
    labels = {names[i]: rng.choice(allowed) for i in range(n)}
    succ = {
        names[i]: [rng.choice(names) for _ in range(variant.arity(labels[names[i]]))]
        for i in range(n)
    }
    g, _ = build_pruned(variant, labels, succ, names[0])
    return g


@st.composite
def graphs(
    draw, variant: SignatureVariant | None = None, max_vertices: int = 8
) -> TermGraph:
    """Hypothesis strategy with the shapes of ``random_graph``."""
    if variant is None:
        variant = draw(st.sampled_from(ALL_VARIANTS))
    n = draw(st.integers(1, max_vertices))
    allowed = [Label.APP, Label.ABS, Label.VAR]
    if variant.del_arity is not None:
        allowed.append(Label.DEL)
    labels = {f"n{i}": draw(st.sampled_from(allowed)) for i in range(n)}
    succ = {
        v: [f"n{draw(st.integers(0, n - 1))}" for _ in range(variant.arity(lab))]
        for v, lab in labels.items()
    }
    g, _ = build_pruned(variant, labels, succ, "n0")
    return g


def random_scopes(rng, g):
    """Random member sets, each abstraction usually in its own scope."""
    vertices = list(g.vertices())
    return {
        v: frozenset(u for u in vertices if rng.random() < 0.4 or (u == v and rng.random() < 0.9))
        for v in g.vertices_labeled(Label.ABS)
    }


def ring_doc(n):
    # l_i = lam a_i, a_i = v_i l_(i+1), v_i back-links to l_i.
    lines = ["sig 1", "root l0"]
    for i in range(n):
        lines += [f"l{i} lam a{i}", f"a{i} @ v{i} l{(i + 1) % n}", f"v{i} 0 l{i}"]
    lines += [f"scope l{i} = {{ l{i} a{i} v{i} }}" for i in range(n)]
    return "\n".join(lines) + "\n"


def tower_doc(n):
    # \x0 ... \x(n-1). x0 x1 ... x(n-1), every scope closed eagerly.
    lines = ["sig 1", "root l0"]
    lines += [f"l{i} lam l{i + 1}" for i in range(n - 1)]
    lines.append(f"l{n - 1} lam a{n - 1}")
    for j in range(1, n):
        lines.append(f"a{j} @ {f'a{j - 1}' if j > 1 else 'v0'} v{j}")
    lines += [f"v{i} 0 l{i}" for i in range(n)]
    for k in range(n):
        members = [f"l{j}" for j in range(k, n)]
        members += [f"a{j}" for j in range(max(k, 1), n)]
        members += [f"v{j}" for j in range(k, n)]
        lines.append(f"scope l{k} = {{ {' '.join(members)} }}")
    return "\n".join(lines) + "\n"

# ---------------------------------------------------------------------------
# Fixture terms.

RUNNING_TERM = r"letrec f = \x.(\y. y (x g)) (\z. g f); g = \u.u in f"


def letrec_body_chain(d: int) -> str:
    # d letrecs nested in body position, every binding dead.
    lets = "".join(f"letrec f{i} = \\y{i}. y{i} x in " for i in range(d))
    return f"\\x. {lets}x"


def reverse_letrec_chain(n: int) -> str:
    # f_i references f_{i+1}, and only the last binding mentions y, so a
    # fixpoint that re-walks every binding per round needs n rounds.
    bindings = "; ".join(f"f{i} = \\z. z f{i + 1}" for i in range(n))
    return f"\\y. letrec {bindings}; f{n} = y in f0"


FIXTURE_TERMS = [
    RUNNING_TERM,
    r"(\x.x)(\y.y)",
    r"\x.\y.y",
    r"\x.\x.x",
    r"\u.u",
    r"letrec f = \x. x f in f",
    r"letrec f = \x. f x in f",
    r"\x. x (letrec g = \y. y g in g)",
    r"letrec f = \x. g x; g = \y. f y in f",
    r"letrec dead = \y.y y in \x.x",
    r"letrec f = \x.x; h = f in h f",
    r"\x. letrec f = x in f f",
    r"letrec f = letrec g = \x.x in g g in f",
    r"letrec f = letrec g = \x.x in letrec h = g g in h h in f",
    r"letrec d = \y. letrec g = \z. z g y in g; f = \x. x in f",
    r"\x. letrec f = g; g = \y. y x in f",
    r"letrec g = \u.u in \x.\y. y (g x)",
    r"\x. \y. (\z. z) (x x)",
    r"\y. letrec f0 = \z. z y; f1 = \z. z f0; f2 = \z. z f1 in f2",
    letrec_body_chain(5),
    reverse_letrec_chain(5),
]

# Binder and letrec names that collide with the names the translator
# mints ("a" for applications, "s" for delimiters, "x!" for variable
# occurrences) and with the document format's reserved words.
COLLIDING_TERMS = [
    r"letrec a = \s. s a; scope = \root. root scope (\sig. \prefix. sig); "
    r"s = \a. a (\a. a) in a scope (s s) (\s. \s. s)",
    r"\root. \a. letrec s = \scope. scope a root s in s (\a. a) (\s. s)",
]

# Terms whose names a later binding of a group takes from an enclosing
# binder, read before that binding, and letrecs spliced from binding
# position, first or later, nested before a later binding: the cases a
# one-pass resolver must settle at the group's "in".
SCOPING_TERMS = [
    r"\y. letrec a = \z. y b; b = \x. x y; y = \w. w in a",
    r"\y. letrec a = (letrec b = y in b); y = \w. w in a",
    r"letrec f = \x. x; g = letrec a = f; f = \y. y y in a in g",
    r"letrec f = \x. x; g = (letrec a = \u. f u in letrec f = \v. v in a f) in g f",
    r"letrec f = \x. x in letrec g = \u. (letrec a = f in a) u; f = \y. y y in g f",
    r"letrec a = letrec b = \x. x in letrec c = b b in c c; d = a in d",
    r"letrec a = \x. x; g = (letrec b = a in letrec c = b in c) in g",
    r"letrec a = (letrec b = \x. x in b) (letrec c = \y. y in c); d = a in d",
]
