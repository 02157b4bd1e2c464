"""Measure the deepest terms ``lamgraph maxshare`` takes.

    python3 tests/depth_limits.py

For four families of deep terms, bisects the largest size for which
``python -m lamgraph.cli maxshare -`` exits 0 at Python's default
recursion limit.  Each probe is a fresh interpreter, so no probe sees
another's stack or caches.  The families, by size n:

- ``spine``: the left spine ``\\q. q q ... q`` of n applications;
- ``right_nest``: ``\\x. x (x (... x))``, n parentheses deep;
- ``letrecs_in_body_position``: ``letrec a = \\x. x in`` n times, then ``a``;
- ``tower``: n nested abstractions whose variables all occur in the
  innermost body, ``\\x0. ... \\x{n-1}. x0 ... x{n-1}``.

A search stops at the family's cap, 10^4 levels (2000 for the tower,
whose words grow quadratically); a family that passes its cap prints
``>=`` the cap.  Any refusal other than ``error: input nested too
deeply`` stops the run.  Prints one line per family.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FAMILIES = {
    "spine": (lambda n: "\\q. " + " ".join(["q"] * (n + 1)), 10_000),
    "right_nest": (lambda n: "\\x. " + "x (" * n + "x" + ")" * n, 10_000),
    "letrecs_in_body_position": (lambda n: "letrec a = \\x. x in " * n + "a", 10_000),
    "tower": (
        lambda n: "".join(f"\\x{i}. " for i in range(n)) + " ".join(f"x{i}" for i in range(n)),
        2_000,
    ),
}


def takes(text: str) -> bool:
    """Whether a fresh ``lamgraph maxshare`` translates ``text``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "lamgraph.cli", "maxshare", "-"],
        input=text, capture_output=True, text=True, env=env, timeout=300,
    )
    if proc.returncode == 0:
        return True
    if proc.returncode == 2 and proc.stderr == "error: input nested too deeply\n":
        return False
    raise SystemExit(f"unexpected refusal (exit {proc.returncode}):\n{proc.stderr}")


def limit(make, cap: int) -> tuple[int, bool]:
    """The largest n up to ``cap`` that ``make(n)`` passes at, found by
    doubling from 256 and then bisecting, and whether ``cap`` passed."""
    lo, hi = 0, None  # lo passes; hi, once known, fails
    n = 256
    while hi is None:
        n = min(n, cap)
        if takes(make(n)):
            lo = n
            if n == cap:
                return cap, True
            n *= 2
        else:
            hi = n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if takes(make(mid)):
            lo = mid
        else:
            hi = mid
    return lo, False


def main() -> None:
    print(f"Python {sys.version.split()[0]}, recursion limit {sys.getrecursionlimit()}")
    for family, (make, cap) in FAMILIES.items():
        n, capped = limit(make, cap)
        print(f"{family:26s} {'>=' if capped else '  '}{n}")


if __name__ == "__main__":
    main()
