"""Record the CLI output digests that ``test_cli_golden.py`` checks.

    PYTHONPATH=src python3 tests/record_cli_golden.py

The digests fix the byte-identical CLI output of the commit they were
recorded on.  Record them again only when that output is meant to change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli_golden import ENTRIES, GOLDEN, dump, entry, run_entry  # noqa: E402


def main() -> None:
    golden = {}
    for name in ENTRIES:
        with tempfile.TemporaryDirectory() as workdir:
            golden[name] = run_entry(*entry(name), Path(workdir))
    GOLDEN.write_text(dump(golden))


if __name__ == "__main__":
    main()
