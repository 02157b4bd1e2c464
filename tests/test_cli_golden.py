"""Byte-identical CLI output on a fixed corpus.

Each invocation runs ``lamgraph.cli.main`` in process, inside a directory
that holds its input files, and the sha256 digests of its stdout and
stderr and its exit code are compared with ``cli_golden.json``.  The
corpus is the fixture documents and terms of ``conftest`` (every
subcommand, every ``translate`` route with both delimiter arities) and
40 seeded random terms with their ltg, aphotg and hotg documents.
Record the digests again with

    PYTHONPATH=src python3 tests/record_cli_golden.py

only when the CLI output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
from generators import random_term

from lamgraph import (
    GraphDocument,
    format_term,
    parse_graph,
    prefix_to_scope,
    serialize_graph,
    strip_delimiters,
    term_to_graph,
)
from lamgraph.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
CLASSES = ("hotg", "aphotg", "ltg", "tg")
RANDOM_TERMS = 40
RANDOM_SEED = 7100


def _scope_lines(scopes: dict[str, set[str]]) -> str:
    return "".join(f"scope {v} = {{ {' '.join(sorted(ws))} }}\n" for v, ws in scopes.items())


def _prefix_lines(prefixes: dict[str, tuple[str, ...]]) -> str:
    return "".join(f"prefix {v} = {' '.join(word)}".rstrip() + "\n" for v, word in prefixes.items())


_FIXTURE_DOCS = {
    "eager_nested": conftest.EAGER_NESTED,
    "lazy_nested": conftest.LAZY_NESTED,
    "inner_user": conftest.INNER_USER,
    "running_carrier": conftest.RUNNING_CARRIER,
    "running_eager": conftest.RUNNING_CARRIER + _scope_lines(conftest.RUNNING_EAGER_SCOPES),
    "running_lazy": conftest.RUNNING_CARRIER + _scope_lines(conftest.RUNNING_LAZY_SCOPES),
    "running_prefixes": conftest.RUNNING_CARRIER
    + _prefix_lines(conftest.RUNNING_EAGER_PREFIXES),
    "delim_shared": conftest.DELIM_SHARED,
    "delim_unshared": conftest.DELIM_UNSHARED,
    "shared_delim_trap": conftest.SHARED_DELIM_TRAP,
    "non_eager_trap": conftest.NON_EAGER_TRAP,
    "eager_fixed": conftest.EAGER_FIXED,
    "nonext_source": conftest.NONEXT_SOURCE,
    "nonext_source_lazy": conftest.NONEXT_SOURCE
    + _prefix_lines(conftest.NONEXT_SOURCE_PREFIXES_LAZY),
    "nonext_source_eager": conftest.NONEXT_SOURCE
    + _prefix_lines(conftest.NONEXT_SOURCE_PREFIXES_EAGER),
    "nonext_target": conftest.NONEXT_TARGET,
}

_FIXTURE_TERMS = {
    "running_term": conftest.RUNNING_TERM,
    "identity_pair": r"(\x. x) (\y. y)",
    "unrolled_letrec": r"letrec f = \x. f (f x) in f",
    "syntax_error": r"\x. (x",
    "unbound": r"\x. y",
    "duplicate_binding": r"letrec f = \x. x; f = \y. y in f",
    "degenerate_binding": "letrec f = g; g = f in f",
}


def _translate_argvs(path: str, source: str, both_j: tuple[str, ...] = CLASSES) -> list[list[str]]:
    """``translate`` from ``source`` to every class, with j = 1 and j = 2
    for the targets in ``both_j`` and the default j for the others."""
    return [
        ["translate", "--from", source, "--to", dst, "--j", j, path]
        for dst in CLASSES
        for j in ("12" if dst in both_j else "2")
    ]


def _doc_argvs(path: str, classes=CLASSES, both_j=CLASSES) -> list[list[str]]:
    """Validation and translation as each of ``classes``, collapse, render."""
    out = []
    for cls in classes:
        out.append(["validate", "--class", cls, path])
        out.append(["validate", "--class", cls, "--json", path])
        out += _translate_argvs(path, cls, both_j)
    out.append(["collapse", path])
    out.append(["render", path])
    return out


def _term_argvs(path: str, other: str, both_j=CLASSES) -> list[list[str]]:
    out = _translate_argvs(path, "term", both_j)
    out.append(["maxshare", path])
    out.append(["equiv", path, path])
    out.append(["equiv", path, other])
    return out


def _random_entry(i: int) -> tuple[dict[str, str], list[list[str]]]:
    # Only ltg targets depend on j, so the other routes run with one j.
    term = random_term(random.Random(RANDOM_SEED + i))
    other = random_term(random.Random(RANDOM_SEED + i + 1))
    files = {"t.lam": format_term(term), "u.lam": format_term(other)}
    argvs = _term_argvs("t.lam", "u.lam", both_j=("ltg",))
    dg = term_to_graph(term)
    ap = strip_delimiters(dg)
    docs = {
        "ltg": GraphDocument(dg.graph, prefixes=dg.prefixes),
        "aphotg": GraphDocument(ap.graph, prefixes=ap.prefixes),
        "hotg": GraphDocument(ap.graph, scopes=prefix_to_scope(ap).scopes),
    }
    for cls, doc in docs.items():
        path = f"{cls}.tg"
        files[path] = serialize_graph(doc)
        argvs += _doc_argvs(path, classes=(cls,), both_j=("ltg",))
    return files, argvs


def _fixed_entries() -> dict[str, tuple[dict[str, str], list[list[str]]]]:
    """Entry name -> (input files by name, argument vectors)."""
    entries = {}
    for name, text in _FIXTURE_DOCS.items():
        entries[f"doc-{name}"] = ({"g.tg": text}, _doc_argvs("g.tg"))
    terms = list(_FIXTURE_TERMS.values())
    for k, name in enumerate(_FIXTURE_TERMS):
        files = {"t.lam": terms[k], "u.lam": terms[(k + 1) % len(terms)]}
        entries[f"term-{name}"] = (files, _term_argvs("t.lam", "u.lam"))
    fixtures = [parse_graph(text).graph for text in _FIXTURE_DOCS.values()]
    for k, graph in enumerate(conftest.corpus_graphs()):
        if graph not in fixtures:
            entries[f"corpus-{k:02d}"] = ({"g.tg": serialize_graph(graph)}, _doc_argvs("g.tg"))
    entries["errors"] = (
        {"bad.tg": "sig 3\nroot a\na lam a\n", "g.tg": conftest.EAGER_NESTED},
        [
            ["validate", "--class", "tg", "bad.tg"],
            ["validate", "--class", "ltg", "missing.tg"],
            ["validate", "--class", "ltg", "--variant", "1,1", "g.tg"],
            ["validate", "--class", "ltg", "--variant", "x", "g.tg"],
        ],
    )
    return entries


_FIXED = _fixed_entries()
ENTRIES = list(_FIXED) + [f"random-{i:02d}" for i in range(RANDOM_TERMS)]


def entry(name: str) -> tuple[dict[str, str], list[list[str]]]:
    """The input files and argument vectors of a corpus entry; random
    entries are translated only when asked for."""
    if name.startswith("random-"):
        return _random_entry(int(name.removeprefix("random-")))
    return _FIXED[name]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_entry(files: dict[str, str], argvs: list[list[str]], workdir: Path) -> list[list]:
    """Run each argument vector in ``workdir``: [stdout digest, stderr
    digest, exit code] per invocation."""
    for name, text in files.items():
        (workdir / name).write_text(text)
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results.append([_digest(out.getvalue()), _digest(err.getvalue()), code])
    finally:
        os.chdir(cwd)
    return results


def row_change(old: list | None, new: list) -> str:
    """What differs between two rows: the streams and the exit codes."""
    if old is None:
        return f"new row, exit {new[2]}"
    streams = [s for s, a, b in zip(("stdout", "stderr"), old, new) if a != b] or ["exit code"]
    return f"{'+'.join(streams)}, exit {old[2]} -> {new[2]}"


def dump(golden: dict[str, list[list]]) -> str:
    """The golden file's text: one line per invocation."""
    blocks = []
    for name, results in golden.items():
        rows = ",\n".join(f"  {json.dumps(r)}" for r in results)
        blocks.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", ENTRIES)
def test_cli_output_matches_golden(name, golden, tmp_path):
    files, argvs = entry(name)
    results = run_entry(files, argvs, tmp_path)
    expected = golden[name]
    assert len(results) == len(expected)
    changed = [
        f"lamgraph {' '.join(a)}: {row_change(e, r)}"
        for a, r, e in zip(argvs, results, expected)
        if r != e
    ]
    assert not changed, "CLI output changed:\n" + "\n".join(changed)


def test_golden_covers_every_route():
    invoked = {tuple(argv) for name in ENTRIES for argv in entry(name)[1]}
    commands = {argv[0] for argv in invoked}
    assert commands == {"validate", "translate", "collapse", "maxshare", "equiv", "render"}
    routes = {(a[2], a[4], a[6]) for a in invoked if a[0] == "translate" and len(a) == 8}
    assert routes >= {
        (src, dst, j) for src in ("term",) + CLASSES for dst in CLASSES for j in "12"
    }



@pytest.mark.parametrize("args, code", [(["--help"], 0), (["--no-such-option"], 2)])
def test_recorder_reads_its_command_line(args, code):
    # Asking the recorder for help, or giving it an argument it does not
    # know, must neither re-run the corpus nor rewrite the golden file.
    before = GOLDEN.read_bytes(), GOLDEN.stat().st_mtime_ns
    recorder = Path(__file__).with_name("record_cli_golden.py")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, str(recorder), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code
    assert "usage: record_cli_golden.py" in (proc.stdout if code == 0 else proc.stderr)
    assert "rows changed" not in proc.stdout
    assert (GOLDEN.read_bytes(), GOLDEN.stat().st_mtime_ns) == before
