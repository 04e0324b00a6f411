#!/usr/bin/env python3
"""Regenerate the stored g-invariant sets that the games checks use.

    python3 perfbench/regen_sets.py

Runs `errdiff min-gset` on the shipped sset3 and ssprime scenes and keeps
the vertices of each result in perfbench/data/<scene>.gset.json.  The
benchmark never trusts these files: before a game trace is checked against
one, its g-invariance is checked exactly by perfbench/exact.py.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from errdiff.cli import main as errdiff_main

    for stem in ("sset3", "ssprime"):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            code = errdiff_main(["min-gset", "--scene", str(ROOT / "scenes" / f"{stem}.json"),
                                 "--out", tmp])
            if code != 0:
                return code
            result = json.loads((Path(tmp) / f"{stem}.gset.json").read_text())
        stored = {"scene": f"scenes/{stem}.json", "collection": stem,
                  "command": "errdiff min-gset", "iterations": result["iterations"],
                  "vertices": result["vertices"]}
        target = HERE / "data" / f"{stem}.gset.json"
        target.parent.mkdir(exist_ok=True)
        target.write_text(json.dumps(stored, indent=1) + "\n")
        print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
