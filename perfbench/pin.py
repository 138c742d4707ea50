"""Rewrite `pinned.json`: the exit code and answer digest of every base input
in its own presentation, as the program at the current commit computes them.

    python3 perfbench/pin.py

Run it only when a change is meant to alter answers; the benchmark checks
every presentation of a base against this table.  Ammann-Beenker's rank row
(1, 5, 9) is pinned here as a regression value, not as a golden one: no
published table confirms it.
"""

from __future__ import annotations

import json
import sys

import inputs as gen
import run


def main() -> int:
    patcoh = run.load_program()
    run.WORK.mkdir(exist_ok=True)
    table = {}
    for inp in gen.base_inputs():
        path = run.WORK / f"pin-{inp.id}.json"
        path.write_text(inp.text)
        code, doc, err = run.run_cli(patcoh, path, inp.max_classes)
        path.unlink()
        if err:
            print(f"{inp.id}: {err}", file=sys.stderr)
            return 1
        table[inp.id] = {"exit": code, "answer": run.answer_digest(doc),
                         "status": doc["status"], "H": doc.get("H")}
        print(f"{inp.id:20s} exit {code}  {doc['status']:22s} H {doc.get('H')}")
    run.PINNED.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
