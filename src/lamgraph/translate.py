"""Translate closed letrec terms to delimited first-order graphs.

The traversal carries the current abstraction-prefix word.  Entering an
abstraction pushes its fresh vertex; before descending into a subterm,
trailing word entries whose binder has no free occurrence in the
subterm are popped, one delimiter vertex per pop, 0-successor
continuing into the subterm and 1-successor back-linking to the popped
abstraction.

Free binders are int masks over lambda depth, the number of
abstractions around a binder (letrec bindings share their letrec's
depth).  A subterm's mask comes from one fixpoint that follows letrec
references.  Its free binders all lie on its word, and a word grows in
depth, so the pop keeps the entries up to the one at the depth of the
mask's highest bit and needs no set of binders.

Letrec bindings translate in two passes: entry vertices for the whole
group are allocated first, then the defining terms are filled in, so
cycles and cross-references become direct edges.  Occurrences of letrec
names are plain edges to the entry vertex; only lambda-bound variables
become variable vertices.  Only live bindings are translated: the one
live set is what the root reaches in the reference relation, found by
``core._reachable_keys`` from the same fixpoint that gives the free
binders.

The graph is emitted with ``delimited._Builder``: vertices get dense
integer ids in allocation order, each with the base of its name and its
innermost binder, the last entry of the traversal's word.  The
traversal carries only that binder: the builder's binder of an
abstraction is the entry below it, so the word is a chain of links, and
popping walks only the links it drops, one delimiter each, whose
back-link is the popped binder.  The builder's finish step compares the
recorded binders with the inferred ones.  Names are minted, and words
derived from the binders, only where they are read: equivalence reads
neither.  The result is eager-scope by construction, as the paper's
eager translation is, so no eager check runs on it;
``tests/translate_parity.py`` checks that claim on seeded terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .core import Label, SignatureVariant, UnreachableVertex, _reachable_keys
from .delimited import DelimitedGraph, _Builder
from .terms import Abs, App, DuplicateBinding, Letrec, Term, UnboundVariable, Var


class InternalValidationFailure(Exception):
    """The translator produced an invalid graph; this is a bug guard."""


class DegenerateBinding(Exception):
    """A letrec binding defined only through a cycle of bare names."""


# ---------------------------------------------------------------------------
# Resolution: lambda depths, binding ids, free binders as depth masks.


@dataclass(slots=True)
class _RNode:
    fv: int = field(init=False)


# A vertex's name base: "a" for an application, the binder's name for an
# abstraction, and that name with "!" for a variable.


@dataclass(slots=True)
class _RVar(_RNode):
    base: str
    depth: int  # its binder's
    label = Label.VAR


@dataclass(slots=True)
class _RRef(_RNode):
    binding: int


@dataclass(slots=True)
class _RApp(_RNode):
    fun: "_RNode"
    arg: "_RNode"
    label = Label.APP
    base = "a"


@dataclass(slots=True)
class _RAbs(_RNode):
    base: str
    depth: int
    body: "_RNode"
    label = Label.ABS


@dataclass(slots=True)
class _RLetrec(_RNode):
    bindings: list[tuple[int, str, "_RNode"]]
    body: "_RNode"


class _Resolver:
    def __init__(self):
        self.fresh = count(1).__next__  # letrec binding ids
        self.binding_term: dict[int, _RNode] = {}

    def resolve(self, t: Term, env: dict[str, list[int]], depth: int) -> _RNode:
        """Resolve ``t`` under ``env`` at lambda depth ``depth``, the number
        of abstractions around ``t``.  ``env`` maps each name to its
        binders, innermost last: an abstraction as its depth, a letrec
        binding as its id negated (ids start at 1).  A binder is pushed on
        entry and popped on exit."""
        if isinstance(t, Var):
            binders = env.get(t.name)
            if not binders:  # parser output is closed; guard hand-built terms
                raise UnboundVariable(t.name, -1)
            b = binders[-1]
            return _RVar(f"{t.name}!", b) if b >= 0 else _RRef(-b)
        if isinstance(t, App):
            return _RApp(self.resolve(t.fun, env, depth), self.resolve(t.arg, env, depth))
        if isinstance(t, Abs):
            env.setdefault(t.name, []).append(depth)
            node = _RAbs(t.name, depth, self.resolve(t.body, env, depth + 1))
            env[t.name].pop()
            return node
        if isinstance(t, Letrec):
            ids = [self.fresh() for _ in t.bindings]
            for (name, _), ident in zip(t.bindings, ids):
                binders = env.setdefault(name, [])
                # Only this group's bindings have ids from ids[0] on; parser
                # output binds a name once per group, so guard hand-built terms.
                if binders and -binders[-1] >= ids[0]:
                    raise DuplicateBinding(name, -1)
                binders.append(-ident)
            bindings: list[tuple[int, str, _RNode]] = []
            for (name, sub), ident in zip(t.bindings, ids):
                resolved = self.resolve(sub, env, depth)
                # A letrec in binding position lives in the same lambda
                # environment, so its groups splice into this one (the
                # body of a spliced letrec may be yet another letrec).
                while isinstance(resolved, _RLetrec):
                    bindings.extend(resolved.bindings)
                    resolved = resolved.body
                bindings.append((ident, name, resolved))
                self.binding_term[ident] = resolved
            node = _RLetrec(bindings, self.resolve(t.body, env, depth))
            for name, _ in t.bindings:
                env[name].pop()
            return node
        raise TypeError(f"not a term: {t!r}")


def _analyze(root: _RNode, resolver: _Resolver) -> set[int]:
    """Annotate every node with its free lambda binders, in one worklist
    fixpoint over the bindings, and return the live binding ids.

    A node's free binders are a mask over lambda depth: bit d is set
    when the binder at depth d on the node's scope chain occurs free in
    it.  A variable sets its binder's bit, an application ORs its
    children, an abstraction clears its own bit and a letrec takes its
    body's mask.  The binders in scope at a node have distinct depths,
    so the mask names them exactly.

    Evaluating a binding stores the mask of each node of its term, and
    records the binding as a user of every binding it references.  A
    binding whose mask grows puts its users back on the list, so its last
    evaluation read only final masks.  A closing evaluation of the root,
    under the user id 0 (resolver ids start at 1), annotates the nodes
    outside every binding.  The live bindings, the only ones translated,
    are those that id 0 reaches in the reference relation, the inverse of
    ``users``; the returned set holds them and 0 itself.
    """
    binding_term = resolver.binding_term
    bind_fv: dict[int, int] = dict.fromkeys(binding_term, 0)
    users: dict[int, set[int]] = {b: set() for b in binding_term}
    current = 0

    def fv(node: _RNode) -> int:
        if isinstance(node, _RVar):
            node.fv = 1 << node.depth
        elif isinstance(node, _RRef):
            users[node.binding].add(current)
            node.fv = bind_fv[node.binding]
        elif isinstance(node, _RApp):
            node.fv = fv(node.fun) | fv(node.arg)
        elif isinstance(node, _RAbs):
            node.fv = fv(node.body) & ~(1 << node.depth)
        elif isinstance(node, _RLetrec):
            node.fv = fv(node.body)
        else:
            raise TypeError(node)
        return node.fv

    # A binding not evaluated yet is still on the list, so it reads every
    # growth that happens before its turn without being a user yet.
    worklist = list(binding_term)
    queued = set(worklist)
    while worklist:
        current = worklist.pop()
        queued.discard(current)
        new = fv(binding_term[current])
        if new != bind_fv[current]:
            bind_fv[current] = new
            for u in users[current]:
                if u not in queued:
                    queued.add(u)
                    worklist.append(u)
    current = 0
    fv(root)

    refs: dict[int, list[int]] = {u: [] for u in (0, *binding_term)}
    for b, us in users.items():
        for u in us:
            refs[u].append(b)
    return _reachable_keys(0, refs)


# ---------------------------------------------------------------------------
# Graph emission.


class _Translator:
    """Emits the graph, carrying the innermost binder of the current
    word: the last emitted abstraction on it, or -1 for the empty word.
    The builder's ``inner`` array links each abstraction to the binder
    below it, so the word is a chain of links that grows in depth, and
    ``depth`` maps each abstraction to its lambda depth."""

    def __init__(self, term_of: dict[int, _RNode], live: set[int]):
        self.b = _Builder()
        self.depth: dict[int, int] = {}
        self.entry: dict[int, tuple[int, int]] = {}
        self.term_of = term_of  # every letrec binding's resolved term
        self.live = live  # the bindings a translation reaches

    def pop(self, x: int, fv: int) -> int:
        """The innermost binder left when the word of ``x`` is cut after
        the entry at the depth of ``fv``'s deepest binder; -1 if ``fv``
        is 0.

        A node's free binders all lie on its word, and the word grows in
        depth, so this drops exactly the trailing entries that the node
        has no free occurrence of, walking one link per dropped entry.
        """
        deepest, depth, inner = fv.bit_length() - 1, self.depth, self.b.inner
        while x >= 0 and depth[x] > deepest:
            x = inner[x]
        return x

    def chain(self, source: int, target: int, top: int) -> int:
        """One delimiter per entry popped from ``source``'s word down to
        ``target``'s, bottom-up, the outermost popped first; returns the
        top."""
        popped, inner = [], self.b.inner
        while source != target:
            popped.append(source)
            source = inner[source]
        for x in reversed(popped):
            s = self.b.alloc("s", Label.DEL, x)
            self.b.succ[s] = (top, x)
            top = s
        return top

    def attach(self, node: _RNode, x: int, v: int | None = None) -> int:
        """Translate ``node`` below an edge whose source carries the word
        of binder ``x``: its vertex or letrec entry, then the delimiter
        chain for the prefix drop.  Returns the top of the chain.  A
        letrec binding's term comes with ``v``, its entry vertex,
        allocated under ``x``; it drops nothing, so it gets no chain."""
        if v is None:
            target = self.pop(x, node.fv)
            # A letrec has its body's free binders, so its body keeps the word.
            while isinstance(node, _RLetrec):
                fills = []
                for ident, name, term in node.bindings:
                    if ident in self.live and not isinstance(term, _RRef):
                        entry_x = self.pop(target, term.fv)
                        entry = self.b.alloc(name, term.label, entry_x)
                        self.entry[ident] = (entry, entry_x)
                        fills.append((term, entry_x, entry))
                for fill in fills:
                    self.attach(*fill)
                node = node.body
            if isinstance(node, _RRef):
                v, entry_x = self.resolve_entry(node.binding)
                assert target == entry_x
                return self.chain(x, target, v)
            v = self.b.alloc(node.base, node.label, target)
        else:
            target = x
        if isinstance(node, _RAbs):
            self.depth[v] = node.depth
            self.b.succ[v] = (self.attach(node.body, v),)
        elif isinstance(node, _RApp):
            self.b.succ[v] = (self.attach(node.fun, target), self.attach(node.arg, target))
        elif isinstance(node, _RVar):
            # Word entries enclose the node and differ in depth.
            assert target >= 0 and self.depth[target] == node.depth
            self.b.succ[v] = (target,)
        else:
            raise TypeError(node)
        return self.chain(x, target, v)

    def resolve_entry(self, binding: int) -> tuple[int, int]:
        """The entry of ``binding``, found through its chain of bare-name
        aliases; every alias on the chain gets that entry too."""
        aliases: dict[int, None] = {}
        while binding not in self.entry:
            term = self.term_of[binding]
            if not isinstance(term, _RRef):
                raise AssertionError("reference to a binding that was never allocated")
            if binding in aliases:
                raise DegenerateBinding("letrec binding defined only through a cycle of names")
            aliases[binding] = None
            binding = term.binding
        entry = self.entry[binding]
        for alias in aliases:
            self.entry[alias] = entry
        return entry


def term_to_graph(t: Term) -> DelimitedGraph:
    """Translate a closed term to a valid eager-scope delimited graph
    over the signature with both kinds of back-links.

    The translator resolves the term, analyses its free binders and live
    bindings, and emits the graph on ids with each vertex's innermost
    binder.  One pass checks it, inference in O(n + m), which fails
    where the graph has no correct prefix function, the root misses a
    vertex or a recorded binder is not the inferred one
    (``delimited._Builder.finish``).  Eagerness, and with it
    full back-linking, hold by construction and are not checked again.
    The names are minted on the first read of ``graph.names``, and the
    words built on the first read of ``prefixes`` (``scoped._words``).
    """
    resolver = _Resolver()
    rnode = resolver.resolve(t, {}, 0)
    tr = _Translator(resolver.binding_term, _analyze(rnode, resolver))
    root = tr.attach(rnode, -1)
    try:
        return tr.b.finish(root, SignatureVariant(1, 2))
    except UnreachableVertex as exc:
        raise InternalValidationFailure(f"translator left unreachable vertices: {exc.vertices}") from None
    except ValueError as exc:
        raise InternalValidationFailure(str(exc)) from exc
