"""Record the CLI output digests that ``test_cli_golden.py`` checks.

    PYTHONPATH=src python3 tests/record_cli_golden.py

The digests fix the byte-identical CLI output of the commit they were
recorded on.  Record them again only when that output is meant to change.
Every row that differs from the file being replaced is printed, with the
streams whose digest changed and the exit code before and after, and
then the total.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Re-run the CLI golden corpus and rewrite cli_golden.json."
    )
    parser.parse_args(argv)
    # Imported only now, so that --help does not load the corpus.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from test_cli_golden import ENTRIES, GOLDEN, dump, entry, row_change, run_entry

    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {}
    changed = total = 0
    for name in ENTRIES:
        files, argvs = entry(name)
        with tempfile.TemporaryDirectory() as workdir:
            golden[name] = run_entry(files, argvs, Path(workdir))
        before = old.get(name, [])
        for i, (argv, row) in enumerate(zip(argvs, golden[name])):
            prev = before[i] if i < len(before) else None
            if row != prev:
                changed += 1
                print(f"{name}: lamgraph {' '.join(argv)}: {row_change(prev, row)}")
        total += len(argvs)
    GOLDEN.write_text(dump(golden))
    print(f"{changed} of {total} rows changed")


if __name__ == "__main__":
    main()
