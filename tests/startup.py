"""Start-up cost of the command-line tool, route by route.

For ``import lamgraph.cli`` alone and for each command in
``test_imports.ROUTES``, on the same fixture files, prints the median
CPU time of the import and the command (``test_imports.PROBE``) over
5 fresh interpreters:

- warm: bytecode read from a temporary ``PYTHONPYCACHEPREFIX``, which
  one run of the same command fills first;
- no bytecode: ``lamgraph`` copied without its ``__pycache__`` and run
  with ``PYTHONDONTWRITEBYTECODE``, so its modules are compiled on every
  run, while the standard library reads its installed bytecode;

then the modules outside ``lamgraph`` that the run loads.  The warm
``import lamgraph.cli`` row is the warm-import figure that start-up
changes are judged by.  For information only: it fails only where a
command does.

Usage: python3 tests/startup.py
"""

from __future__ import annotations

import ast
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from test_imports import PROBE, ROUTES, SRC, write_route_files  # noqa: E402

RUNS = 5


def probe(env: dict, cwd: Path, args: list[str]) -> tuple[int, list[str]]:
    """The CPU time, in nanoseconds, and the new modules of one probe run."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    code, modules, took = ast.literal_eval(proc.stderr.splitlines()[-1])
    if code != 0:
        raise SystemExit(f"{' '.join(args[1:])} exited with {code}:\n{proc.stderr}")
    return took, modules


def median_ms(env: dict, cwd: Path, args: list[str]) -> float:
    return statistics.median(probe(env, cwd, args)[0] for _ in range(RUNS)) / 1e6


def main() -> None:
    rows = [("import lamgraph.cli", ["lamgraph.cli"])]
    rows += [(command, ["lamgraph.cli", *command.split()]) for command, _ in ROUTES]
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = tmp / "files"
        files.mkdir()
        write_route_files(files)
        shutil.copytree(SRC / "lamgraph", tmp / "src" / "lamgraph", ignore=shutil.ignore_patterns("__pycache__"))
        warm = dict(base, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
        cold = dict(base, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        print(f"Python {platform.python_version()}; median CPU ms over {RUNS} fresh interpreters")
        print(f"{'command':<42} {'warm':>7} {'no bytecode':>12}  modules outside lamgraph")
        for label, args in rows:
            _, modules = probe(warm, files, args)  # fills the cache
            outside = " ".join(m for m in modules if m.split(".")[0] != "lamgraph")
            print(f"{label:<42} {median_ms(warm, files, args):7.1f} {median_ms(cold, files, args):12.1f}  {outside}")


if __name__ == "__main__":
    main()
