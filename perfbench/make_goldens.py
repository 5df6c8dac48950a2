"""Record the campaign-le7 goldens from the program as it is now.

    python3 perfbench/make_goldens.py

Runs every campaign-le7 job on data/graphs_le7.g6 in corpus order and
writes goldens/campaign_le7.json: the exit code and a digest of the answer
fields of each job. Rerun it only when an answer is meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from workloads import GOLDENS_PATH, LE7_JOBS  # noqa: E402


def main() -> None:
    from holelab import cli

    inputs.read_le7()  # checks the corpus digest
    goldens = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "out.json")
        for name, head, tail in LE7_JOBS:
            code = cli.main(["--json-out", out] + head + [inputs.LE7_PATH] + tail)
            with open(out, encoding="ascii") as fh:
                payload = json.load(fh)
            goldens[name] = {
                "exit": code,
                "answers": oracle.answers_digest(oracle.answer_fields(head[0], payload)),
            }
            print(name, code, goldens[name]["answers"][:16])
    os.makedirs(os.path.dirname(GOLDENS_PATH), exist_ok=True)
    with open(GOLDENS_PATH, "w", encoding="ascii") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
