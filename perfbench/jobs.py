"""Library-only benchmark jobs, run in a fresh process like a CLI call.

Usage: python perfbench/jobs.py '<job spec as JSON>'

Prints {"manifest": {"wall_time_s": ...}, "report": {...}} on stdout, the
same shape as a fourcirc CLI report, so the benchmark times and checks
both kinds of job alike.  Ops:

  membership_census  {"p", "k", "n", "word"}   counts for one word
  membership_sweep   {"p", "k", "n", "words"}  totals, maxima, and the
                                               counts at the given words
  crt_round_trips    {"p", "k", "n", "pairs"}  reconstruct(decompose(code))
                                               for each (a, b)
"""

from __future__ import annotations

import json
import sys
import time

from fourcirc import census, crt, polyring
from fourcirc.codes import FourCirculantCode
from fourcirc.fields import Field


def _field(spec) -> Field:
    return Field(spec["p"], spec["k"])


def membership_census(spec) -> dict:
    rep = census.membership_census(_field(spec), spec["n"], spec["word"])
    return {
        "count": rep.count,
        "unit_count": rep.unit_count,
        "self_dual_count": rep.self_dual_count,
    }


def membership_sweep(spec) -> dict:
    sw = census.membership_sweep(_field(spec), spec["n"])
    at = [sw.word_index(w) for w in spec["words"]]
    return {
        "totals": [sum(sw.counts), sum(sw.unit_counts), sum(sw.sd_counts)],
        "max_nonconstant": [list(sw.max_nonconstant(w)) for w in ("all", "unit", "self_dual")],
        "at_words": [[sw.counts[u], sw.unit_counts[u], sw.sd_counts[u]] for u in at],
    }


def crt_round_trips(spec) -> dict:
    field, n = _field(spec), spec["n"]
    ring = polyring.QuotientRing(field, n)
    out = []
    for a, b in spec["pairs"]:
        cons = crt.decompose(FourCirculantCode(ring, a, b))
        ra, rb = crt.reconstruct(field, n, cons)
        out.append({"a": list(ra), "b": list(rb), "degrees": [c.degree for c in cons]})
    return {"round_trips": out}


OPS = {
    "membership_census": membership_census,
    "membership_sweep": membership_sweep,
    "crt_round_trips": crt_round_trips,
}


def run(spec: dict) -> dict:
    """Run one job and return its {"manifest", "report"} payload."""
    op = OPS[spec["op"]]
    start = time.monotonic()
    report = op(spec)
    wall = time.monotonic() - start
    return {"manifest": {"wall_time_s": round(wall, 6)}, "report": report}


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.loads(sys.argv[1]))) + "\n")
