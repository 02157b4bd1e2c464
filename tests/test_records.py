"""The graph, report and term classes are records (``core._Record``),
not dataclasses.  Against the frozen dataclasses they were declared as
(``oracles.dataclass_record``) they give the same ``==``, ``hash``,
``repr`` and ``__match_args__``, refuse assignment and deletion alike,
survive ``copy`` and ``pickle``, before and after a field is first read,
and build alike from positional, keyword and default arguments, with
the same ``TypeError`` for a wrong argument list."""

import copy
import pickle
from dataclasses import FrozenInstanceError, is_dataclass

import pytest

from generators import RUNNING_TERM
from oracles import _DATACLASS_RECORDS, dataclass_record
from test_cli_golden import _FIXTURE_DOCS

from lamgraph import (
    Abs,
    App,
    DelimitedGraph,
    GraphDocument,
    Letrec,
    Partition,
    Path,
    PrefixedGraph,
    ScopedGraph,
    SignatureVariant,
    TermGraph,
    ValidationReport,
    Var,
    Violation,
    access_path,
    coarsest_partition,
    parse_graph,
    parse_term,
    prefix_to_scope,
    scope_to_prefix,
    term_to_graph,
    validate_scope,
)
from lamgraph.core import Label


def samples() -> dict[type, list]:
    """Fresh instances of each class: made by its constructor and by the
    library's producers, some with fields not yet derived or read back,
    and with equal pairs among them."""
    doc = {name: parse_graph(text) for name, text in _FIXTURE_DOCS.items()}
    eager, lazy, ltg = doc["running_eager"], doc["running_lazy"], doc["eager_nested"]
    scoped = ScopedGraph(eager.graph, eager.scopes)
    v = SignatureVariant(1, 2)
    return {
        SignatureVariant: [SignatureVariant(0), SignatureVariant(0, None), SignatureVariant(1, 1), v],
        Path: [Path((0,), ()), Path((0, 1), (0,)), access_path(eager.graph, 2), access_path(eager.graph, 0)],
        TermGraph: [
            eager.graph,
            lazy.graph,
            parse_graph(_FIXTURE_DOCS["running_eager"]).graph,
            ltg.graph,
            TermGraph(v, (Label.ABS, Label.VAR), ((1,), (0,)), 0, ("l", "x")),
            term_to_graph(parse_term(RUNNING_TERM)).graph,
        ],
        Violation: [Violation("scope-closed", (1, 2)), Violation("scope-closed", (1, 2)), Violation("x", ())],
        ValidationReport: [
            ValidationReport(),
            ValidationReport(()),
            validate_scope(eager.graph, eager.scopes),
            validate_scope(eager.graph, {**eager.scopes, 0: frozenset({0})}),
        ],
        ScopedGraph: [scoped, prefix_to_scope(scope_to_prefix(scoped)), ScopedGraph(lazy.graph, lazy.scopes)],
        PrefixedGraph: [
            scope_to_prefix(scoped),
            scope_to_prefix(ScopedGraph(lazy.graph, lazy.scopes)),
            PrefixedGraph(doc["running_prefixes"].graph, doc["running_prefixes"].prefixes),
        ],
        DelimitedGraph: [
            term_to_graph(parse_term(RUNNING_TERM)),
            DelimitedGraph.from_graph(ltg.graph),
            DelimitedGraph(ltg.graph, DelimitedGraph.from_graph(ltg.graph).prefixes),
        ],
        GraphDocument: [eager, parse_graph(_FIXTURE_DOCS["running_eager"]), ltg, GraphDocument(ltg.graph),
                        doc["running_prefixes"]],
        Partition: [
            coarsest_partition(eager.graph),
            coarsest_partition(lazy.graph),
            coarsest_partition(ltg.graph),
            Partition((0, 0), 1, 0),
        ],
        Var: [Var("x"), Var("x"), Var("y"), parse_term(r"\x. x").body],
        App: [parse_term(r"(\x. x) (\y. y)"), App(Abs("x", Var("x")), Abs("y", Var("y"))), App(Var("f"), Var("f"))],
        Abs: [parse_term(r"\x. x"), Abs("x", Var("x")), Abs("y", Var("y")), parse_term(r"\x. \y. x y")],
        Letrec: [parse_term(RUNNING_TERM), parse_term(RUNNING_TERM), Letrec((("f", Var("f")),), Var("f")),
                 Letrec((("f", Abs("x", Var("x"))), ("g", Var("f"))), App(Var("g"), Var("f")))],
    }


CLASSES = list(_DATACLASS_RECORDS)


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def test_the_records_are_the_fourteen_classes_and_no_dataclasses():
    assert len(CLASSES) == 14 and set(samples()) == set(CLASSES)
    assert not any(is_dataclass(cls) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_eq_hash_repr_and_match_args_are_the_dataclass_ones(cls):
    xs = samples()[cls]
    refs = list(map(dataclass_record, xs))
    assert cls.__match_args__ == _DATACLASS_RECORDS[cls].__match_args__
    for x, ref in zip(xs, refs):
        assert repr(x) == repr(ref) and str(x) == str(ref)
        assert outcome(hash, x) == outcome(hash, ref)
        assert x != ref and not x == ref and x != repr(x)
    verdicts = [(x == y, x != y) for x in xs for y in xs]
    assert verdicts == [(a == b, a != b) for a in refs for b in refs]
    assert (True, False) in [verdicts[i * len(xs) + j] for i in range(len(xs)) for j in range(i)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_as_on_the_dataclass(cls):
    x = samples()[cls][0]
    ref = dataclass_record(x)
    for name in (*cls.__match_args__, "other"):
        for action in (lambda obj: setattr(obj, name, None), lambda obj: delattr(obj, name)):
            raised = outcome(action, x)
            assert raised[0] is FrozenInstanceError and raised == outcome(action, ref)
    assert dataclass_record(x) == ref


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trips(cls):
    # Each round trip runs on fresh samples, before any derived field is
    # derived or any parsed term read back, and again after, and gives a
    # record of the same class equal to the original.
    for trip in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        for x in samples()[cls]:
            before = trip(x)
            ref = dataclass_record(x)  # reads every field
            for y in (before, trip(x)):
                assert type(y) is cls and dataclass_record(y) == ref
                assert y == x and repr(y) == repr(x) and outcome(hash, y) == outcome(hash, x)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construction_is_the_dataclass_one(cls):
    ref_cls = _DATACLASS_RECORDS[cls]
    names = cls.__match_args__
    for x in samples()[cls]:
        values = [getattr(x, name) for name in names]
        ref_values = [dataclass_record(value) for value in values]
        assert cls(*values) == x == cls(**dict(zip(names, values)))
        # Leaving out the fields that have defaults.
        required = len(names) - len(cls.__init__.__defaults__ or ())
        assert dataclass_record(cls(*values[:required])) == ref_cls(*ref_values[:required])
        for args, kwargs in [
            (values[: required - 1], {}) if required else (values, {"other": 1}),
            (values, {"other": 1}),
            ([*values, None], {}),
            (values[:1], {names[0]: values[0]}),
        ]:
            raised = outcome(lambda: cls(*args, **kwargs))
            assert raised[0] is TypeError and raised == outcome(lambda: ref_cls(*args, **kwargs))


def destructure(x, var, app, abs_, letrec):
    """What a ``match`` statement over these four classes binds in ``x``."""
    match x:
        case var(name):
            return "var", name
        case app(fun, arg):
            return "app", fun, arg
        case abs_(name, body):
            return "abs", name, body
        case letrec(bindings, body):
            return "letrec", bindings, body


@pytest.mark.parametrize("cls", [Var, App, Abs, Letrec], ids=lambda cls: cls.__name__)
def test_a_match_statement_binds_the_dataclass_fields(cls):
    refs = [_DATACLASS_RECORDS[c] for c in (Var, App, Abs, Letrec)]
    for x in samples()[cls]:
        got = destructure(x, Var, App, Abs, Letrec)
        assert got[0] == cls.__name__.lower()
        assert dataclass_record(got) == destructure(dataclass_record(x), *refs)
