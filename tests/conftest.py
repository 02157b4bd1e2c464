"""Shared fixture corpus.

Most graphs here are the worked examples used throughout the tests: the
de Bruijn sharing chain, the shared-variable non-example, the running
letrec example with its eager and lazy scope assignments, the delimiter
sharing pair, and the closure counterexamples.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from generators import RUNNING_TERM  # noqa: F401  (re-exported for the tests)
from lamgraph import parse_graph


def doc(text: str):
    return parse_graph(text)


def graph(text: str):
    return parse_graph(text).graph


# ---------------------------------------------------------------------------
# de Bruijn style chain over variants without variable back-links:
# the unshared syntax tree, the shared-variable middle graph (not a
# lambda term graph), and the fully shared form.


def debruijn_chain(j: int):
    g2 = graph(f"sig 0 {j}\nroot a\na @ b1 b2\nb1 lam c1\nc1 0\nb2 lam c2\nc2 0\n")
    g1 = graph(f"sig 0 {j}\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0\n")
    g0 = graph(f"sig 0 {j}\nroot a\na @ b b\nb lam c\nc 0\n")
    return g2, g1, g0


@pytest.fixture(params=[1, 2], ids=["j1", "j2"])
def debruijn(request):
    return debruijn_chain(request.param)


@pytest.fixture
def g0_plain():
    # Same shared form over the delimiter-free signature (0,none).
    return graph("sig 0\nroot a\na @ b b\nb lam c\nc 0\n")


@pytest.fixture
def single_lambda():
    # One abstraction over one variable, no back-link.
    return graph("sig 0\nroot r\nr lam c\nc 0\n")


@pytest.fixture
def single_lambda_cycle():
    return graph("sig 0\nroot a\na lam a\n")


# ---------------------------------------------------------------------------
# Variable back-link versions, for the converse-direction counterexample.


@pytest.fixture
def backlinked_shared():
    # Fully shared (lam 0)(lam 0) with back-links: valid.
    return graph("sig 1 2\nroot a\na @ b b\nb lam c\nc 0 b\n")


@pytest.fixture
def backlinked_halfshared():
    # Two abstractions sharing one variable vertex: admits no prefixes.
    return graph("sig 1 2\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0 b1\n")


# ---------------------------------------------------------------------------
# The two lambda-x lambda-y examples over (1,2).

EAGER_NESTED = "sig 1 2\nroot b1\nb1 lam s\ns S b2 b1\nb2 lam v\nv 0 b2\n"
LAZY_NESTED = "sig 1 2\nroot b1\nb1 lam b2\nb2 lam v\nv 0 b2\n"


@pytest.fixture
def eager_nested():
    # \x.\y.y with x's scope delimited right away.
    return graph(EAGER_NESTED)


@pytest.fixture
def lazy_nested():
    # \x.\y.y with x's scope left open to the end.
    return graph(LAZY_NESTED)


@pytest.fixture
def eager_pair():
    # (\x.x)(\y.y), both redex sides private.
    return graph(
        "sig 1 2\nroot a\na @ b b'\nb lam v\nv 0 b\nb' lam v'\nv' 0 b'\n"
    )


# Delimiter-free prefixed graph of \x.\y.x over (0,none): the inner
# abstraction closes late, so its body edge needs one delimiter when
# going first-order.
INNER_USER = "sig 0\nroot b1\nb1 lam b2\nb2 lam v\nv 0\nprefix b2 = b1\nprefix v = b1\n"


@pytest.fixture
def inner_user_doc():
    return doc(INNER_USER)


# ---------------------------------------------------------------------------
# The running letrec example: letrec f = \x.(\y. y (x g)) (\z. g f);
# g = \u.u in f.  One carrier, two scope assignments: eager and lazy.

RUNNING_CARRIER = """\
sig 1
root f
f lam a
a @ ly lz
ly lam b1
b1 @ vy b2
vy 0 ly
b2 @ vx g
vx 0 f
lz lam c
c @ g f
g lam vu
vu 0 g
"""

RUNNING_EAGER_SCOPES = {
    "f": {"f", "a", "ly", "b1", "vy", "b2", "vx"},
    "ly": {"ly", "b1", "vy"},
    "lz": {"lz"},
    "g": {"g", "vu"},
}

RUNNING_LAZY_SCOPES = {
    "f": {"f", "a", "ly", "b1", "vy", "b2", "vx", "lz", "c", "g", "vu"},
    "ly": {"ly", "b1", "vy", "b2"},
    "lz": {"lz", "c"},
    "g": {"g", "vu"},
}

RUNNING_EAGER_PREFIXES = {
    "f": (),
    "a": ("f",),
    "ly": ("f",),
    "b1": ("f", "ly"),
    "vy": ("f", "ly"),
    "b2": ("f",),
    "vx": ("f",),
    "lz": (),
    "c": (),
    "g": (),
    "vu": ("g",),
}


@pytest.fixture
def running_carrier():
    return graph(RUNNING_CARRIER)


@pytest.fixture
def running_eager(running_carrier):
    from lamgraph import ScopedGraph

    return ScopedGraph.checked(running_carrier, RUNNING_EAGER_SCOPES)


@pytest.fixture
def running_lazy(running_carrier):
    from lamgraph import ScopedGraph

    return ScopedGraph.checked(running_carrier, RUNNING_LAZY_SCOPES)


# ---------------------------------------------------------------------------
# Delimiter-sharing pair over (0,1): two graphs with differently shared
# delimiter chains that erase to the same prefixed graph.

DELIM_SHARED = "sig 0 1\nroot l1\nl1 lam a\na @ s s\ns S l2\nl2 lam v\nv 0\n"
DELIM_UNSHARED = (
    "sig 0 1\nroot l1\nl1 lam a\na @ s0 s1\ns0 S l2\ns1 S l2\nl2 lam v\nv 0\n"
)


@pytest.fixture
def delim_sharing_pair():
    return graph(DELIM_SHARED), graph(DELIM_UNSHARED)


# ---------------------------------------------------------------------------
# Closure counterexamples.

# Over (1,1): delimiters carry no back-links, so the two chains closing
# different abstractions are bisimilar; collapsing them creates a
# delimiter whose two parents demand different prefixes.
SHARED_DELIM_TRAP = """\
sig 1 1
root a
a @ l v
l lam s1
s1 S t
v lam b
b @ s2 z
s2 S t
z 0 v
t lam w
w 0 t
"""

# Over (1,2), delimiter-free and not eager: the closed identity under v
# is bisimilar to the one at top level although their prefixes differ.
NON_EAGER_TRAP = """\
sig 1 2
root a
a @ l1 v
l1 lam u1
u1 0 l1
v lam b
b @ l2 z
z 0 v
l2 lam u2
u2 0 l2
"""

# The eager variation: one delimiter closes v's scope before the inner
# identity, and the collapse stays a lambda term graph.
EAGER_FIXED = """\
sig 1 2
root a
a @ l1 v
l1 lam u1
u1 0 l1
v lam b
b @ s z
s S l2 v
z 0 v
l2 lam u2
u2 0 l2
"""


@pytest.fixture
def shared_delim_trap():
    return graph(SHARED_DELIM_TRAP)


@pytest.fixture
def non_eager_trap():
    return graph(NON_EAGER_TRAP)


@pytest.fixture
def eager_fixed():
    return graph(EAGER_FIXED)


# ---------------------------------------------------------------------------
# Non-extension pair over (1,none): the carrier homomorphism merging the
# two closed identities exists, but with the lazy scope assignment on
# the source no scope assignment on the target commutes with it.

NONEXT_SOURCE = """\
sig 1
root a
a @ l1 v
l1 lam u1
u1 0 l1
v lam b
b @ l2 z
z 0 v
l2 lam u2
u2 0 l2
"""

NONEXT_TARGET = """\
sig 1
root a
a @ l v
l lam u
u 0 l
v lam b
b @ l z
z 0 v
"""

# P(l2) = (v,): the source's inner identity kept inside v's scope.
NONEXT_SOURCE_PREFIXES_LAZY = {
    "a": (),
    "l1": (),
    "u1": ("l1",),
    "v": (),
    "b": ("v",),
    "z": ("v",),
    "l2": ("v",),
    "u2": ("v", "l2"),
}

NONEXT_SOURCE_PREFIXES_EAGER = {
    "a": (),
    "l1": (),
    "u1": ("l1",),
    "v": (),
    "b": ("v",),
    "z": ("v",),
    "l2": (),
    "u2": ("l2",),
}


@pytest.fixture
def nonext_pair():
    return graph(NONEXT_SOURCE), graph(NONEXT_TARGET)


def corpus_graphs():
    """Every fixture graph, for the exhaustive acceptance sweeps."""
    out = []
    for j in (1, 2):
        out.extend(debruijn_chain(j))
    out.append(graph("sig 0\nroot a\na @ b b\nb lam c\nc 0\n"))
    out.append(graph("sig 0\nroot r\nr lam c\nc 0\n"))
    out.append(graph("sig 0\nroot a\na lam a\n"))
    out.append(graph("sig 1 2\nroot a\na @ b b\nb lam c\nc 0 b\n"))
    out.append(graph("sig 1 2\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0 b1\n"))
    out.append(graph(EAGER_NESTED))
    out.append(graph(LAZY_NESTED))
    out.append(graph("sig 1 2\nroot a\na @ b b'\nb lam v\nv 0 b\nb' lam v'\nv' 0 b'\n"))
    out.append(graph(RUNNING_CARRIER))
    out.append(graph(DELIM_SHARED))
    out.append(graph(DELIM_UNSHARED))
    out.append(graph(SHARED_DELIM_TRAP))
    out.append(graph(NON_EAGER_TRAP))
    out.append(graph(EAGER_FIXED))
    out.append(graph(NONEXT_SOURCE))
    out.append(graph(NONEXT_TARGET))
    return out
