"""Record the output digests of the ``maxshare`` random-term pool.

    PYTHONPATH=src python3 bench/record_reference.py

The digests fix the byte-identical ``maxshare`` output of the commit
they were recorded on as the reference for the pool's random terms.
Record them again only when that output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lamgraph  # noqa: E402
from workloads import POOL_SIZE, POOL_TERM_SIZE, REFERENCE, MaxShare, Op, digest, pool_term  # noqa: E402


def main() -> None:
    digests = []
    for i in range(POOL_SIZE):
        op = Op(i, "random", POOL_TERM_SIZE, (pool_term(i),), None)
        digests.append(digest(MaxShare.run(lamgraph, op)))
    REFERENCE.write_text(json.dumps({"maxshare_pool": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
