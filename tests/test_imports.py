"""The package namespace, and the modules each command imports.

``lamgraph`` resolves its public names on first access, and the
command-line tool imports only the modules on the route a command
takes.  Which modules a run loads is checked in a fresh interpreter per
command, since this process has loaded them all.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_golden import _FIXTURE_DOCS, _FIXTURE_TERMS

import lamgraph

SRC = Path(__file__).resolve().parent.parent / "src"

# The names the package exported when it imported every submodule
# eagerly, by the submodule that defines each.
EXPORTED = {
    "core": [
        "ArityMismatch", "DanglingSuccessor", "DomainMismatch", "ForbiddenLabel", "GraphError",
        "IndexOutOfRange", "Label", "Path", "SignatureVariant", "TermGraph", "UnreachableVertex",
        "VariantMismatch", "VertexMap", "access_path", "build", "build_pruned", "isomorphic",
        "successor",
    ],
    "delimited": [
        "DelimitedGraph", "infer_prefix", "is_eager_scope", "is_fully_back_linked",
        "is_lambda_term_graph", "validate_prefix_fo",
    ],
    "scoped": [
        "PrefixedGraph", "ScopedGraph", "ValidationReport", "Violation", "binders",
        "validate_prefix_ho", "validate_scope",
    ],
    "sharing": [
        "NotEagerScope", "Partition", "are_bisimilar", "coarsest_partition", "collapse",
        "find_homomorphism", "is_label_restricted", "lift_homomorphism", "max_share",
        "max_share_ho",
    ],
    "terms": [
        "Abs", "App", "DuplicateBinding", "Letrec", "Term", "TermSyntaxError", "UnboundVariable",
        "Var", "format_term", "parse_term",
    ],
    "textfmt": ["FormatError", "GraphDocument", "parse_graph", "serialize_graph"],
    "dot": ["to_dot"],
    "transforms": [
        "forget", "insert_delimiters", "num_delimiters", "prefix_to_scope", "scope_to_prefix",
        "strip_delimiters",
    ],
    "translate": ["DegenerateBinding", "InternalValidationFailure", "term_to_graph"],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)


def test_all_is_the_exported_names():
    assert len(NAMES) == 65
    assert lamgraph.__all__ == NAMES


@pytest.mark.parametrize("home", sorted(EXPORTED))
def test_each_name_is_its_submodules_object(home):
    module = importlib.import_module(f"lamgraph.{home}")
    for name in EXPORTED[home]:
        assert getattr(lamgraph, name) is getattr(module, name), name
    assert lamgraph.__getattr__(home) is module


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(lamgraph))


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="^module 'lamgraph' has no attribute 'no_such_name'$"):
        lamgraph.no_such_name  # noqa: B018


def test_namespace_holds_every_name():
    # Reading the whole namespace resolves it, as copying the package
    # into a stand-in does; checked in a fresh interpreter, where no
    # name has been read yet.
    code = ("import lamgraph, types; stand_in = types.SimpleNamespace(**vars(lamgraph)); "
            "print(all(hasattr(stand_in, name) for name in lamgraph.__all__))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "True\n"


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from lamgraph import *", namespace)
    assert {name: namespace.get(name) for name in NAMES} == {
        name: getattr(lamgraph, name) for name in NAMES}


# Run in a fresh interpreter: importing the module given, then running
# its ``main`` on the command given, if any.  Its last line on stderr is
# the command's exit code, the modules the run added to sys.modules and
# the CPU time it took, in nanoseconds.
PROBE = """\
import sys, time
before = set(sys.modules)
start = time.process_time_ns()
__import__(sys.argv[1])
code = sys.modules[sys.argv[1]].main(sys.argv[2:]) if sys.argv[2:] else 0
took = time.process_time_ns() - start
print((code, sorted(set(sys.modules) - before), took), file=sys.stderr)
"""

# The modules outside ``lamgraph`` that a probe reports: ``json`` is for
# --json alone, and ``dataclasses``, with the ``inspect``, ``ast``, ``dis``
# and ``tokenize`` it imports, for no route: the graph, report and term
# classes are records, not dataclasses.
WATCHED = {"json", "dataclasses", "inspect", "ast", "dis", "tokenize"}


def loaded(cwd: Path, module: str, *command: str) -> set[str]:
    """The ``WATCHED`` and ``lamgraph`` modules that importing
    ``module`` and one ``lamgraph`` command, which must succeed, load in
    a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROBE, module, *command], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    code, modules, _ = ast.literal_eval(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m for m in modules if m in WATCHED or m.startswith("lamgraph")}


def write_route_files(folder: Path) -> None:
    """The input files that the commands in ``ROUTES`` name."""
    (folder / "hotg").write_text(_FIXTURE_DOCS["running_eager"])
    (folder / "ltg").write_text(_FIXTURE_DOCS["eager_nested"])
    (folder / "term").write_text(_FIXTURE_TERMS["running_term"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("routes")
    write_route_files(folder)
    return folder


def test_import_loads_no_submodule(files):
    assert loaded(files, "lamgraph") == {"lamgraph"}


# Each command with the lamgraph modules it loads beyond those of
# ``import lamgraph.cli``, exactly: a module added to a route fails
# here.  No command here has --json, so none may load json; only the
# routes that read a term load ``terms``.
CLI = {"lamgraph", "lamgraph.cli", "lamgraph.core", "lamgraph.scoped", "lamgraph.textfmt"}
DOCUMENTS = {"lamgraph.delimited", "lamgraph.transforms"}
TERMS = {"lamgraph.terms", "lamgraph.translate"}
ROUTES = [
    ("translate --from hotg --to ltg hotg", DOCUMENTS),
    ("translate --from ltg --to hotg ltg", DOCUMENTS),
    ("translate --from term --to aphotg term", DOCUMENTS | TERMS),
    ("validate --class hotg hotg", set()),
    ("validate --class ltg ltg", {"lamgraph.delimited"}),
    ("collapse ltg", {"lamgraph.delimited", "lamgraph.sharing"}),
    ("maxshare term", {"lamgraph.delimited", "lamgraph.sharing"} | TERMS),
    ("equiv term term", {"lamgraph.delimited", "lamgraph.sharing"} | TERMS),
    ("render hotg", {"lamgraph.dot"}),
]


def test_cli_loads_only_its_modules(files):
    assert loaded(files, "lamgraph.cli") == CLI


@pytest.mark.parametrize("command", [command for command, _ in ROUTES])
def test_cli_loads_neither_dataclasses_nor_inspect(files, command):
    assert loaded(files, "lamgraph.cli", *command.split()).isdisjoint(WATCHED - {"json"})


@pytest.mark.parametrize("command, extra", ROUTES, ids=[command for command, _ in ROUTES])
def test_command_loads_only_its_route(files, command, extra):
    assert loaded(files, "lamgraph.cli", *command.split()) == CLI | extra


def test_json_report_loads_json(files):
    assert "json" in loaded(files, "lamgraph.cli", "validate", "--class", "ltg", "--json", "ltg")
