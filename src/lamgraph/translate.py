"""Translate closed letrec terms to delimited first-order graphs.

The translation runs in three stages, and none of them recurses: each
keeps its own stack or walks a list, so a term of any depth translates
at Python's default recursion limit.

Resolution gives a table, parallel lists in post-order with one entry
per node: its kind; its binder's lambda depth (a variable or an
abstraction), its binding (a reference to a letrec name) or its
function's node (an application); and the base of its vertex's name.  A
node's last child, its argument or body, is the node before it.  Lambda
depth is the number of abstractions around a binder; letrec bindings
share their letrec's depth, and are numbered in the order their names are
read.  A letrec in binding position splices its bindings into the
enclosing group, so a binding's term is never a letrec; the table keeps
the groups spliced into each binding, which only the readback of a
parsed term reads.  A node's owner is the binding whose term holds it
outside any nested binding's term, else 0; the table records, for each
owner, the depth bits of its variables and the bindings it references.
The parser's one scan builds the table (``terms._Table``) and no term
object: the root it returns holds the table alone, and its fields are
read back from the table only where they are first read, which the
translator never does.  ``_walk`` makes the same table for any other
term, one built by hand, a subterm or a ``dataclasses.replace`` copy.

Analysis gives free binders as int masks over lambda depth.  One
worklist fixpoint over the binding graph finds each binding's mask,
``bind_fv(b) = (own bits | bind_fv(c) for each referenced c) & ((1 <<
depth(b)) - 1)``: the binders at depth(b) or deeper are bound inside b's
term.  One forward sweep then gives every node its mask from its
children's, which precede it in post-order.  The live bindings, the only
ones translated, are those that owner 0 reaches in the reference
relation (``core._reachable_keys``).

Emission runs on an explicit stack in the order the paper's eager
translation allocates: a node's vertex on entry, a letrec's live entries
before their terms and those terms before its body, and the delimiter
chain below a node when its subtree is done.  Before descending into a
subterm, the trailing word entries whose binder has no free occurrence
in it are popped, one delimiter vertex per pop, 0-successor continuing
into the subterm and 1-successor back-linking to the popped abstraction.
A subterm's free binders all lie on its word, and a word grows in depth,
so the pop keeps the entries up to the one at the depth of the mask's
highest bit.  Letrec entries for a whole group are allocated before
their terms are filled in, so cycles and cross-references become direct
edges; occurrences of letrec names are plain edges to the entry vertex,
and only lambda-bound variables become variable vertices.

The graph is emitted into a ``delimited._Builder``: each vertex is
appended straight to the builder's parallel lists, so vertices get
dense integer ids in allocation order, each with its label, its
successor row, the base of its name and its innermost binder, the last
entry of the current word.  The emitter carries only that binder: the
builder's binder of an abstraction is the entry below it, so the word is
a chain of links, and popping walks only the links it drops, one
delimiter each, whose back-link is the popped binder.  The builder's finish step compares the recorded binders with
the inferred ones.  Names are minted, and words derived from the
binders, only where they are read: equivalence reads neither.  The
result is eager-scope by construction, as the paper's eager translation
is, so no eager check runs on it; ``tests/translate_parity.py`` checks
that claim on seeded terms.
"""

from __future__ import annotations

from .core import Label, SignatureVariant, UnreachableVertex, _reachable_keys
from .delimited import DelimitedGraph, _Builder
from .terms import _ABS, _APP, _LETREC, _REF, _VAR, Abs, App, DuplicateBinding, Letrec, Term
from .terms import UnboundVariable, Var, _Table


class InternalValidationFailure(Exception):
    """The translator produced an invalid graph; this is a bug guard."""


class DegenerateBinding(Exception):
    """A letrec binding defined only through a cycle of bare names."""


# The label of each kind's vertex.
_LABEL = (Label.VAR, None, Label.APP, Label.ABS, None)
# The signature of every translation: one back-link per variable, two
# successors per delimiter.
_VARIANT = SignatureVariant(1, 2)
# The codes of the walker's frames that close a node or a scope.
_END_APP, _END_ABS, _END_BINDING, _END_LETREC = range(-1, -5, -1)


def _walk(t: Term) -> _Table:
    """The table of a term that ``parse_term`` did not make, as the parser
    fills it for the term's printed form: nodes in post-order, binding
    ids in the order their names are printed, and the groups spliced into
    each binding.  A group's names are in scope in all of its terms, so
    the walk numbers a group's bindings on entry to its letrec, and
    renumbers all of them in printed order at the end."""
    tab = _Table()
    kind, data, base, groups, spliced = tab.kind, tab.data, tab.base, tab.groups, tab.spliced
    term, names, depths, own, refs = tab.term, tab.name, tab.depth, tab.own, tab.refs
    # Each name's binders, innermost last: an abstraction as its depth, a
    # letrec binding as its id negated.
    env: dict[str, list[int]] = {}
    printed = [0]  # the binding ids in printed order, after 0
    # (term, lambda depth, owner, group, role): group is the binding ids
    # of the letrec group whose binding this term is, or the body of a
    # letrec spliced there, else None; role is the binding's id for its
    # term, -1 for an application's argument, else 0.  A frame whose depth
    # is negative closes a node or a scope: (function node, _END_APP),
    # ((name, depth), _END_ABS), (binding id, _END_BINDING, 0, group) and
    # (names, _END_LETREC, 0, the group's binding ids, or None where it is
    # spliced).
    todo: list = [(t, 0, 0, None, 0)]
    while todo:
        t, depth, owner, group, role = todo.pop()
        if depth < 0:
            if depth == _END_APP:
                kind.append(_APP)
                data.append(t)
                base.append("a")
            elif depth == _END_ABS:
                name, d = t
                env[name].pop()
                kind.append(_ABS)
                data.append(d)
                base.append(name)
            elif depth == _END_BINDING:
                term[t] = len(kind) - 1
                group.append(t)
            else:
                for name in t:
                    env[name].pop()
                if group is not None:
                    groups[len(kind)] = group
                    kind.append(_LETREC)
                    data.append(-1)
                    base.append(None)
            continue
        if role > 0:
            printed.append(role)
        elif role < 0:  # the function is done
            todo.append((len(kind) - 1, _END_APP, 0, None, 0))
        if isinstance(t, Var):
            binders = env.get(t.name)
            if not binders:  # parser output is closed; guard hand-built terms
                raise UnboundVariable(t.name, -1)
            d = binders[-1]
            if d >= 0:
                kind.append(_VAR)
                data.append(d)
                base.append(f"{t.name}!")
                own[owner] |= 1 << d
            else:
                kind.append(_REF)
                data.append(-d)
                base.append(None)
                refs[owner].add(-d)
        elif isinstance(t, App):
            todo += [(t.arg, depth, owner, None, -1), (t.fun, depth, owner, None, 0)]
        elif isinstance(t, Abs):
            env.setdefault(t.name, []).append(depth)
            todo += [((t.name, depth), _END_ABS, 0, None, 0), (t.body, depth + 1, owner, None, 0)]
        elif isinstance(t, Letrec):
            # A letrec in binding position splices its group into the
            # enclosing one, and its body is the binding's term; the
            # binding is the owner.
            ids = [] if group is None else group
            first = len(term)
            frames = []
            for name, sub in t.bindings:
                binders = env.setdefault(name, [])
                # Only this group's bindings have ids from first on; parser
                # output binds a name once per group, so guard hand-built terms.
                if binders and -binders[-1] >= first:
                    raise DuplicateBinding(name, -1)
                b = len(term)
                binders.append(-b)
                term.append(-1)
                names.append(name)
                depths.append(depth)
                own.append(0)
                refs.append(set())
                frames += [(sub, depth, b, ids, b), (b, _END_BINDING, 0, ids, 0)]
            if group is not None:
                spliced.setdefault(owner, []).append(list(range(first, len(term))))
            todo.append(([name for name, _ in t.bindings], _END_LETREC, 0, ids if group is None else None, 0))
            todo.append((t.body, depth, owner, group, 0))
            todo += reversed(frames)
        else:
            raise TypeError(f"not a term: {t!r}")
    if printed == list(range(len(term))):  # the ids are in printed order already
        return tab
    new = [0] * len(term)  # each binding's id in printed order
    for k, b in enumerate(printed):
        new[b] = k
    tab.data = [new[d] if k == _REF else d for k, d in zip(kind, data)]
    tab.groups = {i: [new[b] for b in ids] for i, ids in groups.items()}
    tab.spliced = {new[b]: [[new[c] for c in ids] for ids in lets] for b, lets in spliced.items()}
    tab.term, tab.name, tab.depth, tab.own = ([x[b] for b in printed] for x in (term, names, depths, own))
    tab.refs = [{new[c] for c in refs[b]} for b in printed]
    return tab


def _analyze(tab: _Table) -> tuple[list[int], set[int]]:
    """Every node's free lambda binders, as a mask over lambda depth, and
    the live binding ids.

    Bit d of a node's mask is set when the binder at depth d on the
    node's scope chain occurs free in it.  A variable sets its binder's
    bit, a reference takes its binding's mask, an application ORs its
    children, an abstraction clears its own bit and a letrec takes its
    body's mask.  The binders in scope at a node have distinct depths, so
    the mask names them exactly.

    The bindings' masks come first, from one worklist fixpoint over the
    binding graph: a binding whose mask grows puts the bindings that
    reference it back on the list, which holds each binding at most
    once.  The live bindings, the only ones translated, are those that
    owner 0 reaches in the reference relation; the returned set holds
    them and 0 itself.
    """
    own, refs, depth = tab.own, tab.refs, tab.depth
    bind_fv = [0] * len(own)
    users: list[list[int]] = [[] for _ in own]
    for b in range(1, len(own)):
        for c in refs[b]:
            users[c].append(b)
    # A binding not evaluated yet is still on the list, once.
    worklist = dict.fromkeys(range(1, len(own)))
    while worklist:
        b = worklist.popitem()[0]
        new = own[b]
        for c in refs[b]:
            new |= bind_fv[c]
        new &= (1 << depth[b]) - 1
        if new != bind_fv[b]:
            bind_fv[b] = new
            worklist.update(dict.fromkeys(users[b]))
    mask: list[int] = []
    last = 0  # the mask of the node before, the last child of this one; a letrec keeps it
    for k, d in zip(tab.kind, tab.data):
        if k == _VAR:
            last = 1 << d
        elif k == _REF:
            last = bind_fv[d]
        elif k == _APP:
            last |= mask[d]
        elif k == _ABS:
            last &= ~(1 << d)
        mask.append(last)
    return mask, _reachable_keys(0, refs)


def _emit(tab: _Table, mask: list[int], live: set[int]) -> tuple[_Builder, int]:
    """The graph's builder and root, emitted on an explicit stack.

    Each vertex is appended to the builder's arrays: its label, its
    successor row, its innermost binder and the base of its name.  The
    emitter carries the innermost binder of the current word: the last
    emitted abstraction on it, or -1 for the empty word.  The builder's
    ``inner`` array links each abstraction to the binder below it, so the
    word is a chain of links that grows in depth, and ``depth`` maps each
    abstraction to its lambda depth.

    A frame (i, x, w, p) enters node i below an edge whose source
    carries binder x.  The node's word is w's, cut on entry after the
    entry of the node's deepest free binder (the pop); w is x, or, for a
    letrec's body or a binding's term, a word cut from x's already.  The
    top of the node's delimiter chain, from x's word down to the node's,
    becomes the next successor of vertex p, or the root where p is -1.
    A frame (~v, x, t, p) closes vertex v once its subtree is done, with
    the chain from x's word down to t's.  A frame (j, u, u, -2 - v) fills in the
    entry vertex v of a letrec binding whose term is node j, allocated
    with its group under binder u; it has no chain, and its top goes
    nowhere.
    """
    b = _Builder()
    labels, succ, inner, bases = b.labels, b.succ, b.inner, b.bases
    kind, data, base, term = tab.kind, tab.data, tab.base, tab.term
    depth: dict[int, int] = {}
    entry: dict[int, int] = {}  # a live binding's entry vertex

    def resolve_entry(binding: int) -> int:
        """The entry of ``binding``, found through its chain of bare-name
        aliases; every alias on the chain gets that entry too."""
        aliases: dict[int, None] = {}
        while binding not in entry:
            j = term[binding]
            assert kind[j] == _REF, "reference to a binding that was never allocated"
            if binding in aliases:
                raise DegenerateBinding("letrec binding defined only through a cycle of names")
            aliases[binding] = None
            binding = data[j]
        v = entry[binding]
        for alias in aliases:
            entry[alias] = v
        return v

    root = -1
    todo = [(len(kind) - 1, -1, -1, -1)]
    while todo:
        i, x, t, p = todo.pop()
        if i < 0:
            top = ~i
        else:
            # The pop: the word is cut after the entry at the depth of the
            # node's deepest free binder, or emptied where it has none.  A
            # node's free binders all lie on its word, and the word grows
            # in depth, so this drops exactly the trailing entries that the
            # node has no free occurrence of, one link each.
            deepest = mask[i].bit_length() - 1
            while t >= 0 and depth[t] > deepest:
                t = inner[t]
            k = kind[i]
            if k == _LETREC:
                # A letrec has its body's free binders, so its body keeps
                # the word, and each live binding's entry is cut from it
                # as its term is.
                todo.append((i - 1, x, t, p))
                fills = []
                for ident in tab.groups[i]:
                    j = term[ident]
                    if ident in live and kind[j] != _REF:
                        deepest = mask[j].bit_length() - 1
                        u = t
                        while u >= 0 and depth[u] > deepest:
                            u = inner[u]
                        entry[ident] = v = len(labels)
                        labels.append(_LABEL[kind[j]])
                        succ.append((u,) if kind[j] == _VAR else ())
                        inner.append(u)
                        bases.append(tab.name[ident])
                        fills.append((j, u, u, -2 - v))
                todo += reversed(fills)
                continue
            if k == _REF:
                top = resolve_entry(data[i])
                assert inner[top] == t
            else:
                if k == _VAR:
                    # Word entries enclose the node and differ in depth.
                    assert t >= 0 and depth[t] == data[i]
                if p <= -2:  # a letrec entry, allocated with its group
                    v = -2 - p
                else:
                    v = len(labels)
                    labels.append(_LABEL[k])
                    succ.append((t,) if k == _VAR else ())
                    inner.append(t)
                    bases.append(base[i])
                    if t != x:  # the chain waits until the subtree is done
                        todo.append((~v, x, t, p))
                if k == _ABS:
                    depth[v] = data[i]
                    todo.append((i - 1, v, v, v))
                elif k == _APP:
                    todo.append((i - 1, t, t, v))
                    todo.append((data[i], t, t, v))
                if p <= -2 or t != x:
                    continue
                top = v
        if x != t:
            # The chain: one delimiter per entry popped from x's word down
            # to t's, bottom-up, the outermost popped first, each
            # back-linking to the binder it pops.
            popped = []
            while x != t:
                popped.append(x)
                x = inner[x]
            for x in reversed(popped):
                succ.append((top, x))
                top = len(labels)
                labels.append(Label.DEL)
                inner.append(x)
                bases.append("s")
        if p < 0:
            root = top
        else:
            succ[p] += (top,)
    return b, root


def term_to_graph(t: Term) -> DelimitedGraph:
    """Translate a closed term to a valid eager-scope delimited graph
    over the signature with both kinds of back-links.

    The translator takes the table a parsed root holds, reading none of
    its fields, or walks the term into one, analyses its free binders
    and live bindings, and emits the graph on ids with each vertex's
    innermost binder; no stage recurses.  One pass checks it,
    inference in O(n + m), which fails where the graph has no correct
    prefix function, the root misses a vertex or a recorded binder is
    not the inferred one (``delimited._Builder.finish``).  Eagerness,
    and with it full back-linking, hold by construction and are not
    checked again.  The names are minted on the first read of
    ``graph.names``, and the words built on the first read of
    ``prefixes`` (``scoped._words``).
    """
    tab = getattr(t, "_table", None) or _walk(t)
    b, root = _emit(tab, *_analyze(tab))
    try:
        return b.finish(root, _VARIANT)
    except UnreachableVertex as exc:
        raise InternalValidationFailure(f"translator left unreachable vertices: {exc.vertices}") from None
    except ValueError as exc:
        raise InternalValidationFailure(str(exc)) from exc
