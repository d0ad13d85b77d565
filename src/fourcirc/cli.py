"""Command line front end.

Every JSON report has the shape {"schema", "manifest", "report"}; the
report body is deterministic for fixed arguments and caps, while the
manifest carries run metadata (wall time included).  Every job runs
sequentially in this process; --workers is accepted and recorded only.
Exit codes: 0 success, 2 validation error, 3 workload cap refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import Optional

from . import __version__
from .asympt import entropy, entropy_inverse, expurgation_bound
from .census import (
    artin_scan,
    count_hermitian,
    count_sum_of_squares,
    enumerate_self_dual,
    orbit_distances,
    self_dual_pairs,
)
from .codes import DEFAULT_CAP, CapExceeded, FourCirculantCode, check_distance_cap
from .crt import decompose_report
from .fields import Field
from .polyring import QuotientRing, factor_xn_minus_1


def default_cap() -> int:
    env = os.environ.get("FOURCIRC_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"FOURCIRC_CAP must be an integer, got {env!r}") from None
    return DEFAULT_CAP


def parse_q(text: str) -> tuple[int, int]:
    """Parse a field designation 'p' or 'p^k'."""
    parts = text.split("^")
    try:
        if len(parts) == 1:
            return int(parts[0]), 1
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ValueError(f"bad field designation {text!r}, expected p or p^k")


def parse_codes(text: str, option: str) -> list[int]:
    """Comma-separated integer coefficient codes given to option; '' is no codes."""
    try:
        return [int(c) for c in text.split(",")] if text else []
    except ValueError:
        raise ValueError(
            f"argument {option}: expected comma-separated integer coefficient codes, got {text!r}"
        ) from None


def build_field(args) -> Field:
    p, k = parse_q(args.q)
    modulus = None
    if getattr(args, "modulus", None):
        modulus = parse_codes(args.modulus, "--modulus")
    return Field(p, k, modulus)


def parse_poly(text: str, n: int, field: Field, option: str) -> tuple:
    """Ascending comma-separated coefficient codes, zero-padded to length n."""
    coeffs = parse_codes(text, option)
    if len(coeffs) > n:
        raise ValueError(f"polynomial has {len(coeffs)} coefficients but n = {n}")
    for c in coeffs:
        if not 0 <= c < field.q:
            raise ValueError(f"coefficient {c} out of range [0, {field.q})")
    return tuple(coeffs) + (0,) * (n - len(coeffs))


def _code_from_args(args) -> FourCirculantCode:
    field = build_field(args)
    ring = QuotientRing(field, args.n)
    a = parse_poly(args.a, args.n, field, "--a")
    b = parse_poly(args.b, args.n, field, "--b")
    return FourCirculantCode(ring, a, b)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (report_body, schema, meta)

def cmd_factor(args):
    field = build_field(args)
    fact = factor_xn_minus_1(field, args.n)
    body = {
        "q": field.q,
        "n": args.n,
        "alpha": fact.alpha,
        "self_reciprocal": [list(g) for g in fact.self_reciprocal],
        "pairs": [[list(h), list(hs)] for h, hs in fact.pairs],
        "cosets": [list(c) for c in fact.cosets],
    }
    return body, "fourcirc/factor/v1", {"field": field}


def cmd_check(args):
    code = _code_from_args(args)
    body = {
        "q": code.field.q,
        "n": code.n,
        "a": list(code.a),
        "b": list(code.b),
        "self_dual": code.is_self_dual_poly(),
        "lcd": code.is_lcd(),
        "criterion_residue": list(code.criterion_residue()),
    }
    return body, "fourcirc/check/v1", {"field": code.field}


def cmd_distance(args):
    code = _code_from_args(args)
    d, witness = code.min_distance(cap=args.cap)
    body = {
        "q": code.field.q,
        "n": code.n,
        "a": list(code.a),
        "b": list(code.b),
        "d": d,
        "witness_message": {
            "c": list(witness.blocks[0]),
            "d": list(witness.blocks[1]),
        },
        "witness_weight": witness.weight,
    }
    return body, "fourcirc/distance/v1", {"field": code.field}


def cmd_crt(args):
    code = _code_from_args(args)
    body = {
        "q": code.field.q,
        "n": code.n,
        "a": list(code.a),
        "b": list(code.b),
        "constituents": decompose_report(code),
    }
    return body, "fourcirc/crt/v1", {"field": code.field}


def cmd_enumerate(args):
    field = build_field(args)
    report = enumerate_self_dual(field, args.n, with_distances=args.distances, cap=args.cap)
    body = {
        "q": report.q,
        "n": report.n,
        "pair_count": report.pair_count,
        "formula_count": report.formula_count,
        "distinct_code_count": report.distinct_code_count,
        "pairs": [[list(a), list(b)] for a, b in report.pairs],
    }
    meta = {"field": field}
    if args.distances:
        body["pair_distances"] = report.pair_distances
        body["distance_histogram"] = [[d, c] for d, c in report.per_code_distances.items()]
        meta["counters"] = {"self_dual_pairs": report.pair_count, "codes_scanned": report.orbit_count}
    return body, "fourcirc/enumerate/v2", meta


def cmd_counts(args):
    field = build_field(args)
    if args.lemma == "4.1":
        brute, formula = count_sum_of_squares(field)
    else:
        brute, formula = count_hermitian(field)
    body = {"lemma": args.lemma, "q": field.q, "brute_force": brute, "formula": formula}
    return body, "fourcirc/counts/v1", {"field": field}


def cmd_artin(args):
    report = artin_scan(args.q_int, args.limit)
    body = {
        "q": report.q,
        "limit": report.limit,
        "primes": list(report.primes),
        "candidates": report.candidates,
        "density": report.density,
        "note": report.note,
    }
    return body, "fourcirc/artin/v1", {"field": None}


def cmd_search(args):
    field = build_field(args)
    ring = QuotientRing(field, args.n)
    check_distance_cap(ring.size, args.cap)  # refuse before the sweep, not after it
    idx_pairs = self_dual_pairs(field, args.n, cap=args.cap)
    dists, orbits = orbit_distances(field, args.n, idx_pairs, cap=args.cap)
    print(f"search: {len(idx_pairs)} self-dual codes in {orbits} orbits, one distance scan per orbit",
          file=sys.stderr)
    ranked = sorted(
        zip(idx_pairs, dists),
        key=lambda item: (-item[1], ring.element(item[0][0]), ring.element(item[0][1])),
    )
    top = ranked[: args.top]
    body = {
        "q": field.q,
        "n": args.n,
        "total_self_dual": len(idx_pairs),
        "top": [
            {
                "a": list(ring.element(ai)),
                "b": list(ring.element(bi)),
                "distance": d,
            }
            for (ai, bi), d in top
        ],
    }
    counters = {"self_dual_pairs": len(idx_pairs), "codes_scanned": orbits}
    return body, "fourcirc/search/v1", {"field": field, "counters": counters}


def cmd_bound(args):
    field = build_field(args)
    rep = expurgation_bound(field, args.n)
    body = {
        "q": rep.q,
        "n": rep.n,
        "total_self_dual": rep.total_self_dual,
        "bad_bounds": [[d, v] for d, v in rep.bad_bounds],
        "guaranteed_distance": rep.guaranteed_distance,
        "delta_star": rep.delta_star,
        "entropy_at_guarantee": rep.entropy_at_guarantee,
        "notes": rep.notes,
    }
    return body, "fourcirc/bound/v1", {"field": field}


def cmd_entropy(args):
    p, k = parse_q(args.q)
    q = p**k
    if args.inverse:
        if args.y is None:
            raise ValueError("--inverse needs --y")
        body = {"q": q, "y": args.y, "t": entropy_inverse(q, args.y)}
    else:
        if args.t is None:
            raise ValueError("entropy needs --t (or --inverse with --y)")
        body = {"q": q, "t": args.t, "entropy": entropy(q, args.t)}
    return body, "fourcirc/entropy/v1", {"field": None}


# ---------------------------------------------------------------------------
# output

def _csv_text(body: dict, command: str) -> str:
    """Rows (a, b, distance) of an enumerate or a search report."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["a", "b", "distance"])
    if command == "enumerate":
        dists = body.get("pair_distances")
        rows = [(a, b, dists[i] if dists else "") for i, (a, b) in enumerate(body["pairs"])]
    else:
        rows = [(r["a"], r["b"], r["distance"]) for r in body["top"]]
    for a, b, d in rows:
        writer.writerow([",".join(map(str, a)), ",".join(map(str, b)), d])
    return out.getvalue()


def _text_lines(value, indent: str = "") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{indent}{k}:")
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_flat(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{indent}-")
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}- {_flat(v)}")
    else:
        lines.append(f"{indent}{_flat(value)}")
    return lines


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v) -> str:
    if isinstance(v, list):
        return ",".join(str(x) for x in v)
    return str(v)


def render(payload: dict, fmt: str, command: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text(payload["report"], command)
    if fmt == "text":
        return "\n".join(_text_lines(payload["report"])) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# parser plumbing

def _add_output(sub, *, csv=False):
    formats = ["json", "text", "csv"] if csv else ["json", "text"]
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--output", help="also write the report to this path")


def _add_common(sub, *, n=False, poly=False, cap=False, workers=False, csv=False):
    sub.add_argument("--q", required=True, help="field order, p or p^k")
    sub.add_argument("--modulus", help="field modulus coefficients c0,c1,...,ck (base-p digits)")
    if n:
        sub.add_argument("--n", type=int, required=True, help="ring length")
    if poly:
        sub.add_argument("--a", required=True, help="coefficients of a, ascending, comma-separated")
        sub.add_argument("--b", required=True, help="coefficients of b, ascending, comma-separated")
    if cap:
        sub.add_argument("--cap", type=int, default=None, help="workload cap override")
    if workers:
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            help="accepted for compatibility and recorded in the manifest; runs are sequential",
        )
    _add_output(sub, csv=csv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourcirc",
        description="Self-dual four circulant codes: construction, checks, enumeration, bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("factor", help="factor x^n - 1 over F_q")
    _add_common(s, n=True)
    s.set_defaults(func=cmd_factor)

    s = subs.add_parser("check", help="self-duality and complementary-dual tests")
    _add_common(s, n=True, poly=True)
    s.set_defaults(func=cmd_check)

    s = subs.add_parser("distance", help="exact minimum distance")
    _add_common(s, n=True, poly=True, cap=True, workers=True)
    s.set_defaults(func=cmd_distance)

    s = subs.add_parser("crt", help="constituent decomposition")
    _add_common(s, n=True, poly=True)
    s.set_defaults(func=cmd_crt)

    s = subs.add_parser("enumerate", help="enumerate all self-dual pairs")
    _add_common(s, n=True, cap=True, workers=True, csv=True)
    s.add_argument("--distances", action="store_true", help="attach per-code distances")
    s.set_defaults(func=cmd_enumerate)

    s = subs.add_parser("counts", help="solution counts behind the enumeration")
    s.add_argument("--lemma", choices=["4.1", "4.2"], required=True,
                   help="4.1: pairs with x^2+y^2=-1 in F_q; 4.2: norm-form pairs in F_{q^2}")
    _add_common(s)
    s.set_defaults(func=cmd_counts)

    s = subs.add_parser("artin", help="scan primes where q is a primitive root")
    s.add_argument("--q", dest="q_int", type=int, required=True)
    s.add_argument("--limit", type=int, required=True)
    _add_output(s)
    s.set_defaults(func=cmd_artin)

    s = subs.add_parser("search", help="rank self-dual codes by minimum distance")
    _add_common(s, n=True, cap=True, workers=True, csv=True)
    s.add_argument("--top", type=int, default=10)
    s.set_defaults(func=cmd_search)

    s = subs.add_parser("bound", help="finite-length expurgation bound")
    _add_common(s, n=True)
    s.set_defaults(func=cmd_bound)

    s = subs.add_parser("entropy", help="q-ary entropy and its inverse")
    s.add_argument("--q", required=True, help="field order, p or p^k")
    s.add_argument("--t", type=float)
    s.add_argument("--inverse", action="store_true")
    s.add_argument("--y", type=float)
    _add_output(s)
    s.set_defaults(func=cmd_entropy)

    return parser


def _output_problem(path: str) -> Optional[str]:
    """Why the report could not be written to path, or None if it can."""
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"directory {parent!r} does not exist"
    if not os.access(parent, os.W_OK):
        return f"directory {parent!r} is not writable"
    return None


def _manifest(args, argv, meta, wall: float) -> dict:
    field: Optional[Field] = meta.get("field")
    manifest = {
        "argv": list(argv),
        "version": __version__,
        "q": f"{field.p}^{field.k}" if field else None,
        "modulus": list(field.modulus) if field and field.modulus else None,
        "cap": getattr(args, "cap", None),
        "workers": getattr(args, "workers", None),
        "wall_time_s": round(wall, 6),
    }
    if "counters" in meta:  # work counts of search and enumerate --distances
        manifest["counters"] = meta["counters"]
    return manifest


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    if getattr(args, "top", 0) < 0:
        parser.error(f"argument --top: must be at least 0, got {args.top}")
    if args.output:
        problem = _output_problem(args.output)
        if problem:
            parser.error(f"argument --output: {problem}")
    try:
        if hasattr(args, "cap"):
            args.cap = args.cap if args.cap is not None else default_cap()
        start = time.monotonic()
        body, schema, meta = args.func(args)
        wall = time.monotonic() - start
    except CapExceeded as exc:
        print(f"fourcirc: workload cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"fourcirc: {exc}", file=sys.stderr)
        return 2
    payload = {
        "schema": schema,
        "manifest": _manifest(args, argv, meta, wall),
        "report": body,
    }
    text = render(payload, args.format, args.command)
    sys.stdout.write(text)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"fourcirc: cannot write --output: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
