"""Seeded input generators for the benchmark.

Every input is produced here as text: terms in the concrete syntax of
``lamgraph.terms`` and higher-order graphs as ``hotg`` documents.  The
generators import nothing from the package or from ``tests/``, so set-up
never runs the code under test and an edit to the test suite cannot
change what the benchmark measures.

Sizes stay below what the package handles at the default recursion
limit (towers fail from n = 300 and spines from n = 500), and the limit
is never raised: the command-line tool runs with the default, so a
raised limit would measure a different program.

Families and why each is here:

- ``spine`` ``\\x. x x ... x`` and ``nest`` ``\\x. x (x (... x))``: one
  binder, a deep application chain that collapses to n + 1 vertices.
  Collapse needs one refinement round per level, so it is quadratic.
- ``church`` ``\\f. \\x. f (f (... x))``: two binders, and a delimiter
  before every ``f`` that collapse merges into one.
- ``ring`` ``letrec f_i = \\x. x f_(i+1 mod n) in f_0``: a cycle through
  letrec bindings that collapses to a fixed size however long it is.
- ``tower`` ``\\x0 ... \\x(n-1). x0 ... x(n-1)``: n binders, prefix words
  up to n long and no sharing at all.
- ``random``: closed letrec terms of a fixed node count, for shapes the
  structured families do not have (letrec in nested positions, dead
  bindings, mixed binders).  Every letrec binding is an abstraction, so
  no binding is an unguarded cycle of names.
"""

from __future__ import annotations

import random

# A term is a tuple tree:
#   ("var", name) | ("abs", name, body) | ("app", fun, arg)
#   | ("letrec", ((name, term), ...), body)
# Lambda binders and letrec names never shadow one another within a
# term, which keeps alpha-renaming and rebinding simple.


def tag(rng: random.Random) -> str:
    """A short identifier stem drawn from the seed; never a keyword."""
    return rng.choice("abcdeghjkmnpqrtuvwxyz") + str(rng.randrange(10, 100))


def format_term(t: tuple) -> str:
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "abs":
        return f"\\{t[1]}. {format_term(t[2])}"
    if kind == "app":
        fun, arg = format_term(t[1]), format_term(t[2])
        if t[1][0] in ("abs", "letrec"):
            fun = f"({fun})"
        if t[2][0] != "var":
            arg = f"({arg})"
        return f"{fun} {arg}"
    binds = "; ".join(f"{n} = {format_term(b)}" for n, b in t[1])
    return f"letrec {binds} in {format_term(t[2])}"


# ---------------------------------------------------------------------------
# Structured term families, as text.


def spine(n: int, x: str) -> str:
    return f"\\{x}. " + " ".join([x] * n)


def nest(n: int, x: str) -> str:
    body = x
    for _ in range(n - 1):
        body = f"{x} ({body})"
    return f"\\{x}. {body}"


def church(n: int, f: str, x: str) -> str:
    body = x
    for _ in range(n):
        body = f"{f} ({body})"
    return f"\\{f}. \\{x}. {body}"


def ring_bindings(n: int, f: str, x: str) -> str:
    return "; ".join(f"{f}{i} = \\{x}. {x} {f}{(i + 1) % n}" for i in range(n))


def ring(n: int, f: str, x: str) -> str:
    return f"letrec {ring_bindings(n, f, x)} in {f}0"


def ring_unrolled(
    n: int, k: int, f: str, x: str, y: str, rebind_at: int | None = None
) -> str:
    """The ring entered through k unfolded copies of its bindings.

    Level j (1-based) is ``\\y_j. y_j (...)``, and level k ends in the
    ring name that k unfoldings of ``f0`` reach, so the term unfolds to
    the same infinite tree as ``ring(n)``.  With ``rebind_at = d`` the
    occurrence at level d names the binder of level d - 1 instead: its
    de Bruijn index in the unfolding changes from 0 to 1, so the result
    is not unfolding-equivalent to the ring.
    """
    if rebind_at is not None and not 2 <= rebind_at <= k:
        raise ValueError("rebind_at must name a level with an enclosing level")
    body = f"{f}{k % n}"
    for j in range(k, 0, -1):
        head = f"{y}{j - 1}" if j == rebind_at else f"{y}{j}"
        body = f"\\{y}{j}. {head} ({body})" if j < k else f"\\{y}{j}. {head} {body}"
    return f"letrec {ring_bindings(n, f, x)} in {body}"


# ---------------------------------------------------------------------------
# Higher-order documents (hotg: delimiter-free, variable back-links, and
# an eager scope function), written by hand from each family's shape.


def ring_doc(n: int, p: str) -> str:
    """The ring: lam l_i -> app a_i = (v_i, l_(i+1)), v_i back to l_i.

    Each scope holds its own three vertices: the reference to the next
    binding is closed, so it leaves the scope at once.
    """
    lines = ["sig 1", f"root {p}l0"]
    for i in range(n):
        lines.append(f"{p}l{i} lam {p}a{i}")
        lines.append(f"{p}a{i} @ {p}v{i} {p}l{(i + 1) % n}")
        lines.append(f"{p}v{i} 0 {p}l{i}")
    for i in range(n):
        lines.append(f"scope {p}l{i} = {{ {p}l{i} {p}a{i} {p}v{i} }}")
    return "\n".join(lines) + "\n"


def tower_doc(n: int, p: str) -> str:
    """The tower: l_0 -> ... -> l_(n-1) -> a_(n-1), a_j = (a_(j-1), v_j).

    a_1 applies v_0 to v_1.  Under eager scoping a_j's prefix is
    l_0 ... l_j, so the scope of l_k holds l_j, a_j and v_j for j >= k.
    """
    if n < 2:
        raise ValueError("a tower document needs n >= 2")
    lines = ["sig 1", f"root {p}l0"]
    for i in range(n - 1):
        lines.append(f"{p}l{i} lam {p}l{i + 1}")
    lines.append(f"{p}l{n - 1} lam {p}a{n - 1}")
    for j in range(1, n):
        fun = f"{p}a{j - 1}" if j > 1 else f"{p}v0"
        lines.append(f"{p}a{j} @ {fun} {p}v{j}")
    for i in range(n):
        lines.append(f"{p}v{i} 0 {p}l{i}")
    for k in range(n):
        members = [f"{p}l{j}" for j in range(k, n)]
        members += [f"{p}a{j}" for j in range(max(k, 1), n)]
        members += [f"{p}v{j}" for j in range(k, n)]
        lines.append(f"scope {p}l{k} = {{ {' '.join(members)} }}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random closed letrec terms.


def random_term(rng: random.Random, size: int) -> tuple:
    """A closed term of exactly ``size`` nodes (letrec counts as one).

    The root is an abstraction, so a lambda variable is always in scope
    where a leaf is needed.  Letrec bindings are abstractions.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    counter = iter(range(10**9))

    def gen(n: int, lams: tuple, recs: tuple) -> tuple:
        if n == 1:
            return ("var", rng.choice(lams + recs))
        kinds = ["abs"]
        if n >= 3:
            kinds += ["app", "app"]
        if n >= 4:
            kinds.append("letrec")
        kind = rng.choice(kinds)
        if kind == "abs":
            x = f"x{next(counter)}"
            return ("abs", x, gen(n - 1, lams + (x,), recs))
        if kind == "app":
            left = rng.randint(1, n - 2)
            return ("app", gen(left, lams, recs), gen(n - 1 - left, lams, recs))
        # letrec: k bindings of at least 2 nodes each, a body of at least 1.
        k = rng.randint(1, min(3, (n - 2) // 2))
        spare = n - 1 - 2 * k - 1
        cuts = sorted(rng.randint(0, spare) for _ in range(k))
        shares = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
        names = tuple(f"f{next(counter)}" for _ in range(k))
        inner = recs + names
        bindings = []
        for name, extra in zip(names, shares[:k]):
            y = f"x{next(counter)}"
            bindings.append((name, ("abs", y, gen(1 + extra, lams + (y,), inner))))
        return ("letrec", tuple(bindings), gen(1 + shares[k], lams, inner))

    x0 = f"x{next(counter)}"
    return ("abs", x0, gen(size - 1, (x0,), ()))


def node_count(t: tuple) -> int:
    kind = t[0]
    if kind == "var":
        return 1
    if kind == "abs":
        return 1 + node_count(t[2])
    if kind == "app":
        return 1 + node_count(t[1]) + node_count(t[2])
    return 1 + sum(node_count(b) for _, b in t[1]) + node_count(t[2])


def alpha_rename(t: tuple, rng: random.Random) -> tuple:
    """The same term with every binder and letrec name replaced."""
    # Generated names carry small numbers, so fresh ones from 10^5 up
    # never collide with them.
    fresh = iter(range(rng.randrange(10**5, 10**6), 10**7))
    mapping: dict[str, str] = {}

    def new(name: str) -> str:
        mapping[name] = f"{name[0]}{next(fresh)}"
        return mapping[name]

    def walk(u: tuple) -> tuple:
        kind = u[0]
        if kind == "var":
            return ("var", mapping[u[1]])
        if kind == "abs":
            return ("abs", new(u[1]), walk(u[2]))
        if kind == "app":
            return ("app", walk(u[1]), walk(u[2]))
        names = [new(n) for n, _ in u[1]]
        return ("letrec", tuple((m, walk(b)) for m, (_, b) in zip(names, u[1])), walk(u[2]))

    return walk(t)


def live_occurrences(t: tuple) -> list[tuple[tuple, tuple]]:
    """(path, enclosing lambda binders) of every lambda-variable
    occurrence that appears in the term's unfolding.

    An occurrence inside a letrec binding appears iff the binding is
    live: referenced from the letrec body, or from a live binding of the
    same group.  Paths index into the tuple tree.
    """
    found: list[tuple[tuple, tuple]] = []

    def walk(u: tuple, path: tuple, lams: tuple) -> set:
        # Returns the letrec names referenced from live positions.
        kind = u[0]
        if kind == "var":
            if u[1] in lams:
                found.append((path, lams))
                return set()
            return {u[1]}
        if kind == "abs":
            return walk(u[2], path + (2,), lams + (u[1],))
        if kind == "app":
            return walk(u[1], path + (1,), lams) | walk(u[2], path + (2,), lams)
        index = {name: i for i, (name, _) in enumerate(u[1])}
        refs = walk(u[2], path + (2,), lams)
        free = refs - index.keys()
        frontier = [r for r in refs if r in index]
        live: set = set()
        while frontier:
            name = frontier.pop()
            if name in live:
                continue
            live.add(name)
            i = index[name]
            sub = walk(u[1][i][1], path + (1, i, 1), lams)
            frontier.extend(r for r in sub if r in index)
            free |= sub - index.keys()
        return free

    walk(t, (), ())
    return found


def _replace(t: tuple, path: tuple, new: tuple) -> tuple:
    if not path:
        return new
    head, rest = path[0], path[1:]
    if t[0] == "letrec" and head == 1:
        i, rest = rest[0], rest[1:]
        bindings = list(t[1])
        name, body = bindings[i]
        # The binding tuple's index 1 is its term.
        bindings[i] = (name, _replace(body, rest[1:], new))
        return ("letrec", tuple(bindings), t[2])
    items = list(t)
    items[head] = _replace(t[head], rest, new)
    return tuple(items)


def rebind(t: tuple, rng: random.Random) -> tuple | None:
    """One live lambda-variable occurrence renamed to another enclosing
    lambda binder, or None when no occurrence has two enclosing binders.

    The two binders sit at different depths above the occurrence in the
    unfolding, so its de Bruijn index changes there and the result is
    not unfolding-equivalent to ``t``.
    """
    candidates = [(p, lams) for p, lams in live_occurrences(t) if len(lams) >= 2]
    if not candidates:
        return None
    path, lams = rng.choice(candidates)
    current = _get(t, path)[1]
    other = rng.choice([x for x in lams if x != current])
    return _replace(t, path, ("var", other))


def _get(t: tuple, path: tuple) -> tuple:
    while path:
        if t[0] == "letrec" and path[0] == 1:
            t, path = t[1][path[1]][1], path[3:]
        else:
            t, path = t[path[0]], path[1:]
    return t
