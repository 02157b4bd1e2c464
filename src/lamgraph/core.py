"""Finite rooted first-order term graphs with ordered successors.

Vertices carry one of four labels: application (binary), abstraction
(unary), variable occurrence, and scope delimiter.  A signature variant
fixes whether variable and delimiter vertices carry back-link edges to
the abstraction they belong to.  Graphs are immutable; every vertex is
reachable from the root; vertex ids are dense integers 0..n-1, which
``build`` assigns in the insertion order of its maps and ``parse_graph``
in declaration order.

Each representation checks itself where it is made, each invariant by
one piece of code: a ``TermGraph`` built directly refuses a successor or
root id that names no vertex, then a row that ``_check_rows`` refuses (a
label that is no ``Label``, a forbidden label, a wrong arity), then a
name that two vertices share (``_check_names``), then a vertex the root
does not reach.  ``build`` and ``parse_graph`` run the same row check
on the ids they assign (``_build_ids``).  ``ScopedGraph``,
``PrefixedGraph`` and ``DelimitedGraph`` refuse an invalid annotation.
Producers whose output is valid by construction (the builders,
``collapse`` and the conversions) make it through ``_trusted``, which
runs no check.  A builder leaves a graph's names to be minted where they
are first read.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from typing import Hashable, Iterable, Mapping, Sequence


class GraphError(Exception):
    """Base class for construction and navigation errors."""


class ArityMismatch(GraphError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"wrong number of successors at vertex {vertex!r}")


class DanglingSuccessor(GraphError):
    def __init__(self, vertex, index):
        self.vertex = vertex
        self.index = index
        super().__init__(f"successor {index} of vertex {vertex!r} does not exist")


class UnreachableVertex(GraphError):
    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__(f"vertices not reachable from the root: {list(self.vertices)}")


class ForbiddenLabel(GraphError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"delimiter label at vertex {vertex!r} not allowed by this variant")


class IndexOutOfRange(GraphError):
    def __init__(self, vertex, index):
        self.vertex = vertex
        self.index = index
        super().__init__(f"edge index {index} out of range at vertex {vertex!r}")


class VariantMismatch(GraphError):
    """Operation applied to a graph over the wrong signature variant."""


class DomainMismatch(GraphError):
    """A scope or prefix function whose domain does not fit the graph."""


class Label(Enum):
    APP = "@"
    ABS = "lam"
    VAR = "0"
    DEL = "S"

    def __str__(self):
        return self._value_


class _Record:
    """A frozen record: the base of the library's graph, report and term
    classes.

    A record's fields are the parameters of its class's ``__init__``, in
    order, which stores them in the instance ``__dict__``.  ``==``,
    ``hash`` (over every field but those named by the class keyword
    ``unhashed``), ``repr`` and ``__match_args__`` are what
    ``dataclass(frozen=True)`` generates, and assigning or deleting an
    attribute raises ``dataclasses.FrozenInstanceError``.  Unlike a
    dataclass, a record class is made without compiling any code, and
    without importing ``dataclasses``.
    """

    def __init_subclass__(cls, unhashed=(), **kwargs):
        super().__init_subclass__(**kwargs)
        # A base class without an ``__init__`` of its own has no fields.
        code = getattr(cls.__init__, "__code__", None)
        cls._fields = cls.__match_args__ = code.co_varnames[1 : code.co_argcount] if code else ()
        cls._hashed = tuple(name for name in cls._fields if name not in unhashed)

    def _values(self, names) -> tuple:
        # Read through the class, so a field ``_derived_field`` derives is
        # derived here, as a dataclass method reading it would derive it.
        return tuple(map(self.__getattribute__, names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._fields) == other._values(other._fields)

    def __hash__(self):
        return hash(self._values(self._hashed))

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values(self._fields))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SignatureVariant(_Record):
    """Arity choices: var_arity is 0 or 1, del_arity is None, 1 or 2.

    var_arity 1 gives variable vertices a back-link edge to their
    abstraction; del_arity None forbids delimiter vertices entirely,
    otherwise delimiters are unary (1) or carry a back-link too (2).
    """

    def __init__(self, var_arity: int, del_arity: int | None = None):
        self.__dict__.update(var_arity=var_arity, del_arity=del_arity)
        if self.var_arity not in (0, 1):
            raise ValueError(f"var_arity must be 0 or 1, got {self.var_arity}")
        if self.del_arity not in (None, 1, 2):
            raise ValueError(f"del_arity must be None, 1 or 2, got {self.del_arity}")

    def arity(self, label: Label) -> int:
        if label is Label.APP:
            return 2
        if label is Label.ABS:
            return 1
        if label is Label.VAR:
            return self.var_arity
        if self.del_arity is None:
            raise ForbiddenLabel(label)
        return self.del_arity

    def allows(self, label: Label) -> bool:
        return label is not Label.DEL or self.del_arity is not None

    def __str__(self):
        if self.del_arity is None:
            return f"({self.var_arity},none)"
        return f"({self.var_arity},{self.del_arity})"


class Path(_Record):
    """Alternating vertex/edge-index walk v0 -k0-> v1 -k1-> ... -> vn."""

    def __init__(self, vertices: tuple[int, ...], indices: tuple[int, ...]):
        self.__dict__.update(vertices=vertices, indices=indices)
        if len(self.vertices) != len(self.indices) + 1 or not self.vertices:
            raise ValueError("path must have one more vertex than edge indices")

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def __len__(self):
        return len(self.indices)

    def holds_in(self, g: "TermGraph") -> bool:
        return all(
            g.args[v][k] == w
            for v, k, w in zip(self.vertices, self.indices, self.vertices[1:])
        )

    def is_access_path(self, g: "TermGraph") -> bool:
        return (
            self.start == g.root
            and len(set(self.vertices)) == len(self.vertices)
            and self.holds_in(g)
        )


class _Lookup(dict):
    """A graph's name-or-id index.  An unknown name raises ``KeyError``
    as ``id_of`` does; any other missing key, such as an id that is no
    vertex, stands for itself, as in ``resolve``, for the caller's
    domain check."""

    def __missing__(self, key):
        if isinstance(key, str):
            raise KeyError(key)
        return key


def _trusted(cls, **fields):
    """An instance of the record or term class ``cls`` with these fields,
    made without the checks of its constructor: the one path for
    producers whose output is valid by construction.  A field that
    ``_derived_field`` derives may be left out, with the plain data it
    is derived from given instead."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _derived_field(cls, name: str, derive) -> None:
    """Let field ``name`` of the record class ``cls`` be derived on its
    first read, by ``derive(obj)``, where ``_trusted`` left it out.

    ``cached_property`` is a non-data descriptor: a field that is set
    lives in the instance ``__dict__`` and is read from there, as
    before, and a derived one is stored there on its first read.  So
    equality, hashing, ``repr``, ``copy`` and ``pickle``, which read the
    field or copy the ``__dict__``, behave as if it had been given.
    """
    prop = cached_property(derive)
    prop.__set_name__(cls, name)
    setattr(cls, name, prop)


# The text format's keywords: no vertex may be named after one.
RESERVED_NAMES = frozenset({"sig", "root", "prefix", "scope"})


class _Minter:
    """Fresh vertex names around the ones already taken."""

    def __init__(self, taken: Iterable[str] = ()):
        # Minting never reuses a taken name, nor one the document format
        # cannot express (a binder may be called "scope" or "root").
        self.taken: set[str] = set(RESERVED_NAMES).union(taken)
        self.counts: dict[str, int] = {}

    def fresh_name(self, base: str) -> str:
        """``base`` itself, or else ``base.j`` for the smallest free j >= 2.

        Every ``base.j`` with j up to ``counts[base]`` is taken, so the
        search resumes there.
        """
        n = self.counts.get(base, 0) + 1
        name = base if n == 1 else f"{base}.{n}"
        while name in self.taken:
            n += 1
            name = f"{base}.{n}"
        self.counts[base] = n
        self.taken.add(name)
        return name


# A homomorphism witness: total map from source vertices to target vertices.
VertexMap = dict[int, int]


class TermGraph(_Record):
    """Rooted labeled graph with ordered successors, vertices 0..n-1.

    ``names`` keeps the construction-time vertex names for reporting and
    serialization.  Equality and hashing compare every field, names
    included, so graphs that differ only in vertex names are unequal;
    ``isomorphic`` compares structure alone.
    """

    def __init__(
        self,
        variant: SignatureVariant,
        labels: tuple[Label, ...],
        args: tuple[tuple[int, ...], ...],
        root: int,
        names: tuple[str, ...],
    ):
        self.__dict__.update(variant=variant, labels=labels, args=args, root=root, names=names)
        # A direct construction: every id must name a vertex, or readers
        # would index past the end or wrap a negative id round; every row
        # must fit its label, or inference would index past a row; and
        # the root must reach every vertex, or the collapse's numbering
        # would miss one.
        n = len(self.labels)
        if len(self.args) != n or len(self.names) != n:
            raise DomainMismatch("args and names must hold one entry per vertex")
        # An id is an int: 1.0 and True equal a vertex id but are none.
        ids = set(range(n))
        if type(self.root) is not int or self.root not in ids:
            raise DomainMismatch(f"root id {self.root} names no vertex")
        flat = chain.from_iterable
        if not ({int}.issuperset(map(type, flat(self.args))) and ids.issuperset(flat(self.args))):
            w, t = next(
                (w, t) for w, succ in enumerate(self.args) for t in succ if type(t) is not int or t not in ids
            )
            raise DomainMismatch(f"successor id {t} of {self.names[w]} names no vertex")
        _check_rows(self.variant, self.names, self.labels, self.args)
        _check_names(self.names)
        reached = _reachable_keys(self.root, self.args)
        if len(reached) < n:
            raise UnreachableVertex(self.names[v] for v in range(n) if v not in reached)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def vertices(self) -> range:
        return range(len(self.labels))

    def edges(self) -> Iterable[tuple[int, int, int]]:
        """All indexed edges as (source, index, target) triples."""
        for v in self.vertices():
            for k, w in enumerate(self.args[v]):
                yield v, k, w

    def vertices_labeled(self, label: Label) -> list[int]:
        return [v for v in self.vertices() if self.labels[v] is label]

    @cached_property
    def _ids(self) -> dict[str, int]:
        # Name -> id index, built on the first lookup by name.  Not a
        # field, so equality, hashing and repr never see it.  No two
        # vertices share a name (``_check_names``, ``parse_graph``).
        return dict(zip(self.names, self.vertices()))

    @cached_property
    def _lookup(self) -> _Lookup:
        # Name or id -> id, so a whole map resolves in C-level passes.
        # Ids are entered last: an id always stands for itself.
        lookup = _Lookup(self._ids)
        lookup.update(zip(self.vertices(), self.vertices()))
        return lookup

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def name_of(self, v: int) -> str:
        return self.names[v]

    def resolve(self, vertex: int | str) -> int:
        return self.id_of(vertex) if isinstance(vertex, str) else vertex

    def _vertex(self, vertex: int | str) -> int:
        """``resolve``, refusing an id that is no vertex with ``KeyError``,
        as ``id_of`` refuses an unknown name.  An id is an int: 1.0 and
        True equal one but are none."""
        v = self.resolve(vertex)
        if type(v) is not int or not 0 <= v < len(self.labels):
            raise KeyError(v)
        return v

    def __repr__(self):
        parts = ", ".join(
            f"{self.names[v]}:{self.labels[v]}({','.join(self.names[w] for w in self.args[v])})"
            for v in self.vertices()
        )
        return f"<TermGraph {self.variant} root={self.names[self.root]} {parts}>"


def _minted_names(g: TermGraph) -> tuple[str, ...]:
    """The names of a graph made with ``_unnamed = (seeded, bases)``
    instead of ``names``: the seeded names of its first vertices, then
    one name per base from ``fresh_name``, in id order, around the
    seeded names."""
    seeded, bases = g._unnamed
    return (*seeded, *map(_Minter(seeded).fresh_name, bases))


# Builders leave the names to be minted where they are first read:
# equivalence reads labels and successors only.
_derived_field(TermGraph, "names", _minted_names)


def _reachable_keys(root, succ: Mapping) -> set:
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _predecessors(args: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """The predecessor index of these successor rows, by edge index:
    ``into0[t]`` lists the vertices whose first successor is t and
    ``into1[t]`` those whose second is, each in ascending id order.
    O(n + m); built once per graph and read by the eager check and the
    refinement alike."""
    into0: list[list[int]] = [[] for _ in args]
    into1: list[list[int]] = [[] for _ in args]
    for v, row in enumerate(args):
        if len(row) == 2:
            s, t = row
            into0[s].append(v)
            into1[t].append(v)
        elif row:
            into0[row[0]].append(v)
    return into0, into1


def build(
    variant: SignatureVariant,
    labels: Mapping[Hashable, Label],
    successors: Mapping[Hashable, Sequence[Hashable]],
    root: Hashable,
) -> TermGraph:
    """Construct a validated term graph, rejecting unreachable vertices.

    The label and successor maps must share one key set containing the
    root.  Vertices are numbered in the maps' insertion order; original
    keys survive as vertex names.  The keys are indexed once and the
    checks run on ids in ``_build_ids``, the one constructor that
    ``build_pruned`` and ``parse_graph`` share.
    """
    g, pruned = build_pruned(variant, labels, successors, root)
    if pruned:
        raise UnreachableVertex(pruned)
    return g


# Vertex ids are dense integers in map insertion order, so documents and
# programmatic constructions keep their declared numbering; transformed
# graphs are renumbered by whatever order their constructors emit.


def build_pruned(
    variant: SignatureVariant,
    labels: Mapping[Hashable, Label],
    successors: Mapping[Hashable, Sequence[Hashable]],
    root: Hashable,
) -> tuple[TermGraph, tuple]:
    """Lenient constructor: drops unreachable vertices and reports them."""
    keys = list(labels)
    index = dict(zip(keys, range(len(keys))))
    if index.keys() != set(successors) or root not in index:
        raise DomainMismatch("label and successor maps must share a key set containing the root")
    labs = list(map(labels.__getitem__, keys))
    succ = list(map(successors.__getitem__, keys))
    graph, pruned = _build_ids(variant, keys, labs, succ, index, index[root])
    _check_names(graph.names)  # distinct keys may read alike as text
    return graph, pruned


def _build_ids(variant, keys, labels, successors, index, root):
    """The one constructor behind ``build``, ``build_pruned`` and
    ``parse_graph``: vertex ``v`` is ``keys[v]``, labelled ``labels[v]``,
    with successor keys ``successors[v]`` that ``index`` maps to ids, and
    ``root`` is an id.  The rows pass ``_check_rows``, as a ``TermGraph``
    made directly does.  Returns the graph of the vertices reachable from
    the root, renumbered only if some are not, and the keys of the
    others, in id order."""
    args = list(map(tuple, map(map, repeat(index.get), successors)))
    _check_rows(variant, keys, labels, args)
    reached, pruned = _reachable_keys(root, args), ()
    if len(reached) < len(args):
        pruned = tuple(keys[v] for v in range(len(keys)) if v not in reached)
        order = sorted(reached)
        new_id = dict(zip(order, range(len(order))))
        args = [tuple(map(new_id.__getitem__, args[v])) for v in order]
        labels, keys, root = [labels[v] for v in order], [keys[v] for v in order], new_id[root]
    names = tuple(map(str, keys))
    graph = _trusted(
        TermGraph, variant=variant, labels=tuple(labels), args=tuple(args), root=root, names=names
    )
    return graph, pruned


def _check_rows(variant, keys, labels, args) -> None:
    """The row check of every term graph made outside the library:
    vertex ``v`` is labelled ``labels[v]`` with successor ids ``args[v]``,
    None for a key that names no vertex.  Vertices are checked in id
    order, each for a label that is no ``Label`` (``TypeError``), a
    forbidden label, its arity, then its first dangling successor;
    errors name the vertex by ``keys[v]``."""
    # Arity by label value: an Enum member hashes through a Python-level
    # call, its value in C.  A label the variant forbids has no entry.
    arity = {lab._value_: variant.arity(lab) for lab in Label if variant.allows(lab)}.get
    for v, ids in enumerate(args):
        lab = labels[v]
        if type(lab) is not Label:
            raise TypeError(f"label {lab!r} of vertex {keys[v]!r} is not a Label")
        n = arity(lab._value_)
        if n is None:
            raise ForbiddenLabel(keys[v])
        if len(ids) != n:
            raise ArityMismatch(keys[v])
        if None in ids:
            raise DanglingSuccessor(keys[v], ids.index(None))


def _check_names(names) -> None:
    """Refuse the first vertex whose name, as text, an earlier vertex
    has: a document names each vertex once, so such a graph would
    serialize to one that ``parse_graph`` refuses.  ``parse_graph``
    refuses a name declared twice itself, with its line."""
    names = list(map(str, names))
    if len(set(names)) < len(names):
        seen: dict[str, int] = {}
        for v, name in enumerate(names):
            if name in seen:
                raise DomainMismatch(f"vertices {seen[name]} and {v} share the name {name!r}")
            seen[name] = v


def successor(g: TermGraph, v: int | str, k: int) -> int:
    """The k-th successor of v; raises IndexOutOfRange past the arity."""
    v = g._vertex(v)
    if not 0 <= k < len(g.args[v]):
        raise IndexOutOfRange(g.names[v], k)
    return g.args[v][k]


def access_path(g: TermGraph, v: int | str) -> Path:
    """The depth-first-first access path from the root to v.

    Deterministic: follows the lowest edge index first; the result never
    repeats a vertex.  Each vertex records the edge it was first popped
    through, and the path is read back along those edges: O(n + m).
    """
    v = g._vertex(v)
    via: dict[int, tuple[int, int]] = {}  # vertex -> its first popped edge
    stack = [(g.root, -1, -1)]  # (vertex, source, index)
    while stack:
        u, source, index = stack.pop()
        if u in via:
            continue
        via[u] = (source, index)
        if u == v:
            verts, idxs = [u], []
            while verts[-1] != g.root:
                source, index = via[verts[-1]]
                verts.append(source)
                idxs.append(index)
            return Path(tuple(reversed(verts)), tuple(reversed(idxs)))
        for k, w in reversed(list(enumerate(g.args[u]))):
            if w not in via:
                stack.append((w, u, k))
    raise KeyError(f"vertex {g.names[v]} not reachable")  # unreachable by construction


def find_homomorphism(g1: TermGraph, g2: TermGraph) -> VertexMap | None:
    """The unique root/label/argument-preserving map g1 -> g2, if any.

    Computed by simultaneous traversal from the roots; any label or
    argument conflict means no homomorphism exists.
    """
    if g1.variant != g2.variant:
        raise VariantMismatch(f"{g1.variant} vs {g2.variant}")
    mapping: VertexMap = {g1.root: g2.root}
    pending = [g1.root]
    while pending:
        v = pending.pop()
        w = mapping[v]
        if g1.labels[v] is not g2.labels[w]:
            return None
        for k, v_succ in enumerate(g1.args[v]):
            w_succ = g2.args[w][k]
            if v_succ in mapping:
                if mapping[v_succ] != w_succ:
                    return None
            else:
                mapping[v_succ] = w_succ
                pending.append(v_succ)
    return mapping


def isomorphic(g1: TermGraph, g2: TermGraph) -> VertexMap | None:
    """Root-preserving isomorphism witness, or None.

    For rooted graphs with ordered successors a bijective homomorphism
    is an isomorphism and the witness is unique.
    """
    if g1.vertex_count != g2.vertex_count:
        return None
    h = find_homomorphism(g1, g2)
    if h is None or len(set(h.values())) != g1.vertex_count:
        return None
    return h
