import collections
import contextlib
import io
import json
import random
import re
import shlex
import sys
from pathlib import Path

import pytest

from conftest import EAGER_NESTED, RUNNING_TERM, RUNNING_CARRIER
from test_cli_golden import ENTRIES, _doc_argvs, entry

from lamgraph import isomorphic, parse_graph
from lamgraph.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_validate_ltg(tmp_path, capsys):
    path = write(tmp_path, "g.tg", EAGER_NESTED)
    code, out, _ = run(capsys, "validate", "--class", "ltg", path)
    assert code == 0 and out.strip() == "pass"


def test_validate_ltg_failure_json(tmp_path, capsys):
    bad = "sig 0 1\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0\n"
    path = write(tmp_path, "g.tg", bad)
    code, out, _ = run(capsys, "validate", "--class", "ltg", "--json", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    # A join conflict names the edge that forces a second word on c.
    conflict = {"condition": "prefix-conflict", "witnesses": ["b1", "c"]}
    assert payload["violations"] == [conflict]
    code, out, _ = run(capsys, "validate", "--class", "ltg", path)
    assert code == 1 and out.strip() == "fail: prefix-conflict at b1, c"


def test_ltg_failure_outputs_name_the_witness(tmp_path, capsys):
    # a pushes itself onto the word of its own target, the root.
    path = write(tmp_path, "g.tg", "sig 1 2\nroot a\na lam a\n")
    code, out, _ = run(capsys, "validate", "--class", "ltg", "--json", path)
    assert code == 1
    assert json.loads(out) == {
        "class": "ltg",
        "variant": "(1,2)",
        "verdict": "fail",
        "violations": [{"condition": "prefix-conflict", "witnesses": ["a", "a"]}],
    }
    code, out, _ = run(capsys, "validate", "--class", "ltg", path)
    assert code == 1 and out == "fail: prefix-conflict at a, a\n"
    code, out, err = run(capsys, "translate", "--from", "ltg", "--to", "aphotg", path)
    assert code == 1 and out == ""
    assert err == (
        f"error: {path}: not a valid delimited lambda graph: prefix-conflict at a, a\n"
    )


def test_validate_hotg_with_scopes(tmp_path, capsys):
    doc = (
        "sig 0\nroot r\nr lam c\nc 0\nscope r = { c r }\n"
    )
    path = write(tmp_path, "g.tg", doc)
    code, out, _ = run(capsys, "validate", "--class", "hotg", "--json", path)
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_validate_aphotg_violations_listed(tmp_path, capsys):
    doc = "sig 0\nroot r\nr lam c\nc 0\nprefix r =\nprefix c =\n"
    path = write(tmp_path, "g.tg", doc)
    code, out, _ = run(capsys, "validate", "--class", "aphotg", "--json", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["violations"] and payload["violations"][0]["condition"] == "var0"


def test_validate_variant_check(tmp_path, capsys):
    path = write(tmp_path, "g.tg", EAGER_NESTED)
    code, _, err = run(capsys, "validate", "--class", "tg", "--variant", "0,1", path)
    assert code == 1 and "variant" in err


@pytest.mark.parametrize(
    "variant, message",
    [
        ("1,2,3", "bad variant '1,2,3'"),
        ("x", "bad variant 'x': invalid literal for int() with base 10: 'x'"),
        ("1,3", "bad variant '1,3': del_arity must be None, 1 or 2, got 3"),
    ],
)
def test_validate_refuses_a_bad_variant(tmp_path, capsys, variant, message):
    path = write(tmp_path, "g.tg", EAGER_NESTED)
    code, out, err = run(capsys, "validate", "--class", "tg", "--variant", variant, path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_validate_stdin(tmp_path, capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(EAGER_NESTED))
    code, out, _ = run(capsys, "validate", "--class", "tg", "-")
    assert code == 0


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["validate", "--class", "nope", "x"])
    assert err.value.code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.tg", "sig 0\nroot a\na @ b\n")
    code, _, err = run(capsys, "validate", "--class", "tg", path)
    assert code == 2 and "line" in err


def test_term_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.lam", "\\x. (x")
    code, _, err = run(capsys, "maxshare", path)
    assert code == 2 and "error" in err


def test_translate_term_to_ltg(tmp_path, capsys):
    path = write(tmp_path, "t.lam", r"\x.\y.y")
    code, out, _ = run(capsys, "translate", "--from", "term", "--to", "ltg", path)
    assert code == 0
    doc = parse_graph(out)
    assert doc.graph.vertex_count == 4


def test_translate_chain(tmp_path, capsys):
    # ltg -> aphotg -> hotg -> back to ltg, all through documents.
    path = write(tmp_path, "g.tg", EAGER_NESTED)
    code, ap_text, _ = run(capsys, "translate", "--from", "ltg", "--to", "aphotg", path)
    assert code == 0 and "prefix" in ap_text
    ap_path = write(tmp_path, "ap.tg", ap_text)
    code, ho_text, _ = run(capsys, "translate", "--from", "aphotg", "--to", "hotg", ap_path)
    assert code == 0 and "scope" in ho_text
    ho_path = write(tmp_path, "ho.tg", ho_text)
    code, back, _ = run(capsys, "translate", "--from", "hotg", "--to", "ltg", ho_path)
    assert code == 0
    assert parse_graph(back).graph.vertex_count == 4


def test_translate_forget(tmp_path, capsys):
    doc = "sig 0\nroot r\nr lam c\nc 0\nscope r = { c r }\n"
    path = write(tmp_path, "g.tg", doc)
    code, out, _ = run(capsys, "translate", "--from", "hotg", "--to", "tg", path)
    assert code == 0 and "scope" not in out


def test_translate_invalid_input_rejected(tmp_path, capsys):
    bad = "sig 1 2\nroot a\na @ b1 b2\nb1 lam c\nb2 lam c\nc 0 b1\n"
    path = write(tmp_path, "g.tg", bad)
    code, _, err = run(capsys, "translate", "--from", "ltg", "--to", "aphotg", path)
    assert code == 1


def test_collapse_command(tmp_path, capsys):
    path = write(tmp_path, "g.tg", "sig 0\nroot a\na @ b1 b2\nb1 lam c1\nc1 0\nb2 lam c2\nc2 0\n")
    code, out, _ = run(capsys, "collapse", path)
    assert code == 0
    assert parse_graph(out).graph.vertex_count == 3


def test_maxshare_identity_pair(tmp_path, capsys):
    path = write(tmp_path, "t.lam", r"(\x.x)(\y.y)")
    code, out, _ = run(capsys, "maxshare", path)
    assert code == 0
    g = parse_graph(out).graph
    assert g.vertex_count == 3


def test_equiv_alpha_renaming(tmp_path, capsys):
    a = write(tmp_path, "a.lam", RUNNING_TERM)
    renamed = r"letrec fun = \a.(\b. b (a gee)) (\c. gee fun); gee = \w.w in fun"
    b = write(tmp_path, "b.lam", renamed)
    code, out, _ = run(capsys, "equiv", a, b)
    assert code == 0 and out.strip() == "equivalent"
    c = write(tmp_path, "c.lam", r"\u.u")
    code, out, _ = run(capsys, "equiv", a, c)
    assert code == 1 and out.strip() == "not equivalent"


def test_equiv_unrolled_letrec(tmp_path, capsys):
    # One unrolling step of the cycle: different syntax, same unfolding;
    # the eager translations collapse to the same graph.
    a = write(tmp_path, "a.lam", r"letrec f = \x. x f in f")
    b = write(tmp_path, "b.lam", r"\x. x (letrec g = \y. y g in g)")
    code, out, _ = run(capsys, "equiv", a, b)
    assert code == 0 and out.strip() == "equivalent"
    c = write(tmp_path, "c.lam", r"letrec f = \x. f x in f")
    code, out, _ = run(capsys, "equiv", a, c)
    assert code == 1


def test_equiv_reads_stdin_once(tmp_path, capsys, monkeypatch):
    stdin = io.StringIO(RUNNING_TERM)
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, "equiv", "-", "-")
    assert (code, out) == (2, "")
    assert err == "error: stdin can be read only once: give at most one term as -\n"
    assert stdin.read() == RUNNING_TERM
    path = write(tmp_path, "a.lam", RUNNING_TERM)
    for argv in (["-", path], [path, "-"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(RUNNING_TERM))
        assert run(capsys, "equiv", *argv) == (0, "equivalent\n", "")


def test_render_dot(tmp_path, capsys):
    path = write(tmp_path, "g.tg", RUNNING_CARRIER)
    code, out, _ = run(capsys, "render", "--dot", path)
    assert code == 0 and out.startswith("digraph")


def test_render_with_prefixes(tmp_path, capsys):
    doc = EAGER_NESTED + "prefix s = b1\nprefix v = b2\n"
    path = write(tmp_path, "g.tg", doc)
    code, out, _ = run(capsys, "render", path)
    assert code == 0 and "[b1]" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--class", "tg", "/nonexistent/path.tg")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("command", ["maxshare", "collapse"])
def test_an_undecodable_input_is_a_read_error(tmp_path, capsys, monkeypatch, command):
    # Exit 2, as for a file that cannot be opened, naming the file; and
    # the same for stdin.
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read {path}: ")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    code, out, err = run(capsys, command, "-")
    assert (code, out) == (2, "") and err.startswith("error: cannot read -: ")


def test_degenerate_binding_reported(tmp_path, capsys):
    path = write(tmp_path, "dg.lam", r"letrec f = g; g = f in f")
    code, _, err = run(capsys, "maxshare", path)
    assert code == 1 and "cycle of names" in err


def test_bad_sig_line(tmp_path, capsys):
    path = write(tmp_path, "bad.tg", "sig 3\nroot a\na lam a\n")
    code, _, err = run(capsys, "validate", "--class", "tg", path)
    assert code == 2 and "var_arity" in err


def test_validate_aphotg_wrong_signature(tmp_path, capsys):
    # Prefix annotations on a delimiter-bearing document: out of scope
    # for the delimiter-free validator.
    doc = EAGER_NESTED + "prefix s = b1\nprefix v = b2\n"
    path = write(tmp_path, "g.tg", doc)
    code, _, err = run(capsys, "validate", "--class", "aphotg", path)
    assert code == 1 and "delimiter-free" in err


def test_ltg_input_without_delimiters_names_the_file(tmp_path, capsys):
    # A one-binder document read as ltg: the error names the file, as
    # every other input error does.
    path = write(tmp_path, "p.tg", "sig 1\nroot b\nb lam v\nv 0 b\n")
    message = f"error: {path}: prefix inference needs a signature with delimiters\n"
    for argv in (["translate", "--from", "ltg", "--to", "tg"], ["validate", "--class", "ltg"]):
        code, out, err = run(capsys, *argv, path)
        assert (code, out, err) == (1, "", message)


def test_invalid_annotation_errors_list_the_violations(tmp_path, capsys):
    # The error message carries the violations, not the report's verdict.
    path = write(tmp_path, "s.tg", "sig 1\nroot r\nr lam c\nc 0 r\nscope r = { r }\n")
    code, out, err = run(capsys, "translate", "--from", "hotg", "--to", "aphotg", path)
    message = f"error: {path}: invalid scope function: scope0 at c; scope1 at c, r, r\n"
    assert (code, out, err) == (1, "", message)
    path = write(tmp_path, "p.tg", "sig 1\nroot r\nr lam c\nc 0 r\nprefix r = c\nprefix c = r\n")
    code, out, err = run(capsys, "translate", "--from", "aphotg", "--to", "hotg", path)
    message = (
        f"error: {path}: invalid prefix function: "
        "entry-not-abstraction at r, c; root at r; lambda at r, c; var1 at c, r\n"
    )
    assert (code, out, err) == (1, "", message)


def test_validate_without_annotation_lines_names_the_file(tmp_path, capsys):
    path = write(tmp_path, "g.tg", "sig 1\nroot r\nr lam c\nc 0 r\n")
    for cls, what in (("hotg", "scope"), ("aphotg", "prefix")):
        code, out, err = run(capsys, "validate", "--class", cls, path)
        message = f"error: {path}: {cls} validation needs {what} lines\n"
        assert (code, out, err) == (2, "", message)


def test_hotg_round_trip_without_abstractions(tmp_path, capsys):
    # A graph without abstractions has the empty scope function, which
    # is written as no scope lines; both hotg readers take that document.
    text = "sig 1 2\nroot a\na @ a a\n"
    path = write(tmp_path, "g.tg", text)
    code, ho_text, _ = run(capsys, "translate", "--from", "ltg", "--to", "hotg", path)
    assert code == 0 and "scope" not in ho_text
    ho_path = write(tmp_path, "ho.tg", ho_text)
    code, back, err = run(capsys, "translate", "--from", "hotg", "--to", "ltg", ho_path)
    assert (code, err) == (0, "")
    assert parse_graph(back).graph == parse_graph(text).graph
    code, out, err = run(capsys, "validate", "--class", "hotg", ho_path)
    assert (code, out, err) == (0, "pass\n", "")
    code, out, _ = run(capsys, "validate", "--class", "hotg", "--json", ho_path)
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_hotg_input_with_abstractions_needs_scope_lines(tmp_path, capsys):
    path = write(tmp_path, "g.tg", "sig 1\nroot r\nr lam c\nc 0 r\n")
    code, out, err = run(capsys, "translate", "--from", "hotg", "--to", "ltg", path)
    assert (code, out, err) == (2, "", f"error: {path}: hotg input needs scope lines\n")


def test_translate_j1(tmp_path, capsys):
    doc = (
        "sig 1\nroot b1\nb1 lam b2\nb2 lam v\nv 0 b1\n"
        "prefix b2 = b1\nprefix v = b1\n"
    )
    path = write(tmp_path, "g.tg", doc)
    code, out, _ = run(capsys, "translate", "--from", "aphotg", "--to", "ltg", "--j", "1", path)
    assert code == 0 and "sig 1 1" in out and " S " in out


def test_translate_j_applies_to_term_and_ltg_sources(tmp_path, capsys):
    term = write(tmp_path, "t.lam", r"\x. \y. x")
    code, out, _ = run(capsys, "translate", "--from", "term", "--to", "ltg", "--j", "1", term)
    assert code == 0 and out.startswith("sig 1 1\n")
    ltg = write(tmp_path, "g.tg", out)
    code, again, _ = run(capsys, "translate", "--from", "ltg", "--to", "ltg", "--j", "1", ltg)
    assert (code, again) == (0, out)
    code, out2, _ = run(capsys, "translate", "--from", "ltg", "--to", "ltg", "--j", "2", ltg)
    assert code == 0 and out2.startswith("sig 1 2\n")
    code, direct, _ = run(capsys, "translate", "--from", "term", "--to", "ltg", term)
    assert isomorphic(parse_graph(out2).graph, parse_graph(direct).graph) is not None


# Terms nested far deeper than Python's default recursion limit.  No
# stage takes a Python frame per term level, so each command runs in
# process, under pytest's own frames, and must exit 0.
DEPTH = 10**4
TOWER = 2000
DEPTH_FLOORS = {
    # The abstraction, the applications and one shared occurrence.
    "spine": ("\\q. " + " ".join(["q"] * (DEPTH + 1)), DEPTH + 2),
    "right_nest": ("\\x. " + "x (" * DEPTH + "x" + ")" * DEPTH, DEPTH + 2),
    # Every binding is dead: only \x. x remains.
    "letrecs_in_body_position": ("letrec a = \\x. x in " * DEPTH + "a", 2),
    # The abstractions, the applications, the occurrences, and one
    # delimiter per application, on its function edge, popping the
    # binder that only its argument uses.
    "tower": (
        "".join(f"\\x{i}. " for i in range(TOWER)) + " ".join(f"x{i}" for i in range(TOWER)),
        4 * TOWER - 2,
    ),
}


def test_deep_input_gives_no_traceback(tmp_path, capsys):
    assert sys.getrecursionlimit() <= 1000, "the floors mean nothing above the default limit"
    path = write(tmp_path, "spine.lam", DEPTH_FLOORS["spine"][0])
    commands = [["maxshare", path], ["equiv", path, path]]
    commands += [["translate", "--from", "term", "--to", c, path] for c in ("tg", "hotg", "aphotg", "ltg")]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_maxshare_takes_a_450_application_spine(tmp_path, capsys):
    path = write(tmp_path, "spine.lam", "\\q. " + " ".join(["q"] * 451))
    code, out, err = run(capsys, "maxshare", path)
    assert (code, err) == (0, "")
    # The abstraction, 450 applications and one shared occurrence of q.
    assert parse_graph(out).graph.vertex_count == 452


@pytest.mark.parametrize("family", DEPTH_FLOORS)
def test_maxshare_depth_floors(tmp_path, capsys, family):
    assert sys.getrecursionlimit() <= 1000, "the floors mean nothing above the default limit"
    text, vertices = DEPTH_FLOORS[family]
    code, out, err = run(capsys, "maxshare", write(tmp_path, "deep.lam", text))
    assert (code, err) == (0, "")
    assert parse_graph(out).graph.vertex_count == vertices


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_session_matches_the_cli(tmp_path, capsys, monkeypatch):
    # Replay the README's shell session: each echo writes its file, and
    # each lamgraph command must print exactly the lines that follow it.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    session = next(b for b in blocks if b.startswith("$ "))
    steps = []
    for line in session.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    monkeypatch.chdir(tmp_path)
    replayed = []
    for command, expected in steps:
        echo = re.fullmatch(r"echo '(.*)' > (\S+)", command)
        if echo:
            Path(echo.group(2)).write_text(echo.group(1) + "\n")
            continue
        argv = shlex.split(command)
        assert argv[0] == "lamgraph"
        code, out, err = run(capsys, *argv[1:])
        assert (code, out, err) == (0, "".join(f"{x}\n" for x in expected), "")
        replayed.append(argv[1])
    assert replayed == ["maxshare", "equiv"]


# Seeded CLI fuzz: mutated documents and terms from the golden corpus go
# through every document command and through equiv.  Whatever the input,
# the exit code is 0, 1 or 2 and no exception escapes ``main``.
FUZZ_DOCS = 4000
FUZZ_TERMS = 800
_DOC_SNIPPETS = [" ", "\n", "{", "}", "#", "=", "-1", "9", "é", "sig", "root", "scope",
                 "prefix", "lam", "@", "0", "S", "1", "2", "none"]
_TERM_SNIPPETS = [" ", "\\", ".", "(", ")", "=", ";", "letrec", "in", "x", "f", "é"]


def _mutate(text: str, snippets: list[str], rng) -> str:
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        op = rng.randrange(6)
        i = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(snippets + text.split()) + text[i:]
        elif op == 2 and text.split():
            old = rng.choice(text.split())
            text = text.replace(old, rng.choice(snippets + text.split()), 1)
        else:
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == 3:
                del lines[j]
            elif op == 4:
                lines.insert(j, lines[k])
            else:
                lines[j], lines[k] = lines[k], lines[j]
            text = "\n".join(lines)
    return text


def test_cli_fuzz_exits_0_1_or_2(tmp_path):
    docs, terms = [], []
    for name in ENTRIES[::3]:
        for file, text in entry(name)[0].items():
            (terms if file.endswith(".lam") else docs).append(text)
    rng = random.Random(1602)
    calls = [
        (rng.choice(_doc_argvs("g.tg")), {"g.tg": _mutate(rng.choice(docs), _DOC_SNIPPETS, rng)})
        for _ in range(FUZZ_DOCS)
    ]
    for _ in range(FUZZ_TERMS):
        t, u = rng.choice(terms), rng.choice(terms)
        files = {"t.lam": _mutate(t, _TERM_SNIPPETS, rng), "u.lam": rng.choice([t, u])}
        calls.append((["equiv", "t.lam", "u.lam"], files))
    codes = collections.Counter()
    sink = io.StringIO()
    for argv, files in calls:
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        for file, text in files.items():
            (tmp_path / file).write_text(text)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except BaseException as exc:
            pytest.fail(f"lamgraph {' '.join(argv)} raised {exc!r} on {files!r}")
        assert code in (0, 1, 2), (argv, files)
        codes[argv[0], code] += 1
        sink.seek(0)
        sink.truncate()
    # The mutations reach past the parsers, and both verdicts of equiv.
    for command in ("validate", "translate", "equiv"):
        assert codes[command, 0] and codes[command, 1] and codes[command, 2], codes
