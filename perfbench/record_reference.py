"""Record perfbench/reference.json from the fourcirc library.

Usage: PYTHONPATH=src python3 perfbench/record_reference.py

The reference holds the values the benchmark cannot derive on its own at
run time: self-dual pair counts where gcd(n, q) != 1 (no product formula),
the `search --top 5` rankings, and the membership sweep maxima.  run.py
re-checks the search rankings' distances against perfbench/oracle.py and
the pair counts against its own exhaustive sweep.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from fourcirc import Field, membership_sweep, self_dual_pairs
from fourcirc.cli import main as cli_main


def main() -> None:
    ref: dict = {"pair_count": {}, "search_top": {}, "membership_sweep_max_nonconstant": {}}
    for p, k, n in [(3, 1, 6), (2, 1, 10), (2, 2, 4)]:
        ref["pair_count"][f"{p}^{k},{n}"] = len(self_dual_pairs(Field(p, k), n))
    for p, n in [(3, 5), (2, 7)]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli_main(["search", "--q", str(p), "--n", str(n), "--top", "5", "--workers", "1"])
        ref["search_top"][f"{p}^1,{n}"] = json.loads(out.getvalue())["report"]["top"]
    sweep = membership_sweep(Field(2), 5)
    ref["membership_sweep_max_nonconstant"]["2^1,5"] = [
        list(sweep.max_nonconstant(which)) for which in ("all", "unit", "self_dual")
    ]
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
