"""Command line front end.

Every JSON report has the shape {"schema", "manifest", "report"}; the
report body is deterministic for fixed arguments and caps, while the
manifest carries run metadata (wall time included).  Every job runs
sequentially in this process; --workers is accepted and recorded only.
Exit codes: 0 success, 2 validation error, 3 workload cap refusal or a
failed allocation.

This module imports numpy and the fields, polyring and codes layers.  A
subcommand that needs more declares its layers where it is registered
(census, crt or asympt); main loads them once the subcommand is known and
before the timer starts, so wall_time_s never counts module loading, and
a handler's own import of its layer is a lookup in sys.modules.

render writes a report in chunks to stdout and to --output, whose file
is opened before the first chunk.  An enumerate report keeps its pairs as
the sweep's (N, 2) index array into the ring's coefficient rows
(PairRows), and each format writes them CHUNK_PAIRS pairs at a time from
strings built once per row; the JSON is byte for byte json.dumps(...,
indent=2) of the nested coefficient lists, which are never built.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import __version__
from .codes import DEFAULT_CAP, CapExceeded, FourCirculantCode, check_distance_cap
from .fields import Field
from .polyring import QuotientRing, factor_xn_minus_1


def default_cap() -> int:
    env = os.environ.get("FOURCIRC_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"FOURCIRC_CAP must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"FOURCIRC_CAP must be at least 0, got {cap}")
    return cap


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
        "self_reciprocal": [list(g) for g in fact.self_reciprocal],
        "pairs": [[list(h), list(hs)] for h, hs in fact.pairs],
        "cosets": [list(c) for c in fact.cosets],
    }
    return body, "fourcirc/factor/v2", {"field": field}


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
    counters: dict = {}
    d, witness = code.min_distance(cap=args.cap, counters=counters)
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
    return body, "fourcirc/distance/v1", {"field": code.field, "counters": counters}


def cmd_crt(args):
    from .crt import decompose_report

    code = _code_from_args(args)
    body = {
        "q": code.field.q,
        "n": code.n,
        "a": list(code.a),
        "b": list(code.b),
        "constituents": decompose_report(code),
    }
    return body, "fourcirc/crt/v2", {"field": code.field}


def cmd_enumerate(args):
    from .census import enumerate_self_dual

    field = build_field(args)
    report = enumerate_self_dual(field, args.n, with_distances=args.distances, cap=args.cap)
    body = {
        "q": report.q,
        "n": report.n,
        "pair_count": report.pair_count,
        "formula_count": report.formula_count,
        "distinct_code_count": report.distinct_code_count,
        "pairs": PairRows(report.pairs, QuotientRing(field, args.n).tables().coeffs),
    }
    meta = {"field": field}
    if args.distances:
        body["pair_distances"] = report.pair_distances
        body["distance_histogram"] = [[d, c] for d, c in report.per_code_distances.items()]
        meta["counters"] = {
            "self_dual_pairs": report.pair_count,
            "codes_scanned": report.orbit_count,
            "messages_enumerated": report.messages_enumerated,
        }
    return body, "fourcirc/enumerate/v2", meta


def cmd_counts(args):
    from .census import count_hermitian, count_sum_of_squares

    field = build_field(args)
    if args.lemma == "4.1":
        brute, formula = count_sum_of_squares(field)
    else:
        brute, formula = count_hermitian(field)
    body = {"lemma": args.lemma, "q": field.q, "brute_force": brute, "formula": formula}
    return body, "fourcirc/counts/v1", {"field": field}


def cmd_artin(args):
    from .census import artin_scan

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
    from .census import orbit_distances, self_dual_pairs

    field = build_field(args)
    ring = QuotientRing(field, args.n)
    check_distance_cap(ring, args.cap)  # refuse before the sweep, not after it
    pairs = self_dual_pairs(field, args.n, cap=args.cap)
    work: dict = {}
    dists, orbits = orbit_distances(field, args.n, pairs, cap=args.cap, counters=work)
    print(f"search: {len(pairs)} self-dual codes in {orbits} orbits, one distance scan per orbit",
          file=sys.stderr)
    coeffs = ring.tables().coeffs
    top = min(args.top, len(dists))  # only pairs as far as the top-th largest distance can rank
    ranked = np.flatnonzero(dists >= np.partition(dists, -top)[-top]) if top else np.arange(0)
    # coefficient lists compare as their coefficients read as base-q digits, c0 leading
    ab = (coeffs @ field.q ** np.arange(args.n)[::-1])[pairs[ranked]]
    order = ranked[np.lexsort((ab[:, 1], ab[:, 0], -dists[ranked]))][: args.top]
    body = {
        "q": field.q,
        "n": args.n,
        "total_self_dual": len(pairs),
        "top": [
            {"a": a, "b": b, "distance": d}
            for d, (a, b) in zip(dists[order].tolist(), coeffs[pairs[order]].tolist())
        ],
    }
    counters = {"self_dual_pairs": len(pairs), "codes_scanned": orbits, **work}
    return body, "fourcirc/search/v1", {"field": field, "counters": counters}


def cmd_bound(args):
    from .asympt import expurgation_bound

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
    from .asympt import entropy, entropy_inverse

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

CHUNK_PAIRS = 4096  # pairs rendered per write


class PairRows(NamedTuple):
    """A pair list as index pairs into coefficient rows: pair i is
    (rows[index[i, 0]], rows[index[i, 1]]), rendered as two coefficient lists."""

    index: np.ndarray  # (N, 2)
    rows: np.ndarray  # (Q, n) coefficient rows of the ring elements


def _pair_chunks(pairs: PairRows, row_text, lead: str, trail: str, ends=None) -> Iterator[str]:
    """The pairs as text, CHUNK_PAIRS at a time.

    Pair i = (a, b) is lead.format(row_text(a)) + trail.format(row_text(b)),
    then ends[i] when ends is given.  Both strings are built once for each
    row that the pairs use, so a pair costs two lookups.
    """
    used = np.zeros(len(pairs.rows), dtype=bool)
    used[pairs.index] = True
    texts = [row_text(r) for r in pairs.rows[used].tolist()]
    first = np.empty(len(pairs.rows), dtype=object)
    second = np.empty(len(pairs.rows), dtype=object)
    first[used] = [lead.format(t) for t in texts]
    second[used] = [trail.format(t) for t in texts]
    for lo in range(0, len(pairs.index), CHUNK_PAIRS):
        part = pairs.index[lo : lo + CHUNK_PAIRS]
        tokens = np.empty((len(part), 2 if ends is None else 3), dtype=object)
        tokens[:, 0] = first[part[:, 0]]
        tokens[:, 1] = second[part[:, 1]]
        if ends is not None:
            tokens[:, 2] = ends[lo : lo + CHUNK_PAIRS]
        yield "".join(tokens.ravel().tolist())


def _csv_cell(row) -> str:
    """A coefficient list as one CSV field, quoted when it holds a comma,
    as the csv module's minimal quoting does."""
    text = ",".join(map(str, row))
    return f'"{text}"' if "," in text else text


def _csv_chunks(body: dict, command: str) -> Iterator[str]:
    """Rows (a, b, distance) of an enumerate or a search report."""
    yield "a,b,distance\n"
    if command == "search":
        yield "".join(f"{_csv_cell(r['a'])},{_csv_cell(r['b'])},{r['distance']}\n" for r in body["top"])
        return
    dists = body.get("pair_distances")
    if dists is None:
        yield from _pair_chunks(body["pairs"], _csv_cell, "{},", "{},\n")
    else:
        yield from _pair_chunks(body["pairs"], _csv_cell, "{},", "{},", [f"{d}\n" for d in dists])


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


def render(payload: dict, fmt: str, command: str, write: Callable[[str], object]) -> None:
    """Write payload in fmt to write, in chunks.

    An enumerate report's pairs are PairRows.  The report is rendered
    with an empty pair list, which json.dumps and the text lines spell as
    one known marker, and the pairs are written in its place from strings
    built once per row, CHUNK_PAIRS pairs per chunk, so the whole text
    never exists at once.
    """
    if fmt == "csv":
        for chunk in _csv_chunks(payload["report"], command):
            write(chunk)
        return
    pairs = None
    if command == "enumerate":
        pairs = payload["report"]["pairs"]
        payload = {**payload, "report": {**payload["report"], "pairs": []}}
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
        marker = '"pairs": []'  # the one key "pairs"; a quote inside a string is escaped
    elif fmt == "text":
        text = "\n".join(_text_lines(payload["report"])) + "\n"
        marker = "\npairs: \n"  # pairs is never the first key
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if pairs is None or not len(pairs.index):
        write(text)
        return
    head, _, tail = text.partition(marker)
    if fmt == "json":  # items one level below the key, rows two, coefficients three
        key_pad = head[head.rfind("\n") + 1 :]
        pad = key_pad + "  "
        inner = f",\n{pad}    "

        def row_text(row) -> str:
            return f"{pad}  [\n{pad}    {inner.join(map(str, row))}\n{pad}  ]"

        write(head + '"pairs": [')
        for i, chunk in enumerate(_pair_chunks(pairs, row_text, f",\n{pad}[\n{{}},\n", f"{{}}\n{pad}]")):
            write(chunk[1:] if i == 0 else chunk)  # no comma before the first item
        write(f"\n{key_pad}]{tail}")
    else:
        write(head + "\npairs:\n")
        for chunk in _pair_chunks(pairs, _flat, "  -\n    - {}\n", "    - {}\n"):
            write(chunk)
        write(tail)


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


def _command(subs, name: str, help: str, func, layers: tuple = ()) -> argparse.ArgumentParser:
    """Register subcommand name, run by the handler func.

    layers names the modules beyond fields, polyring and codes that func
    imports; main loads them before the timer starts.
    """
    s = subs.add_parser(name, help=help)
    s.set_defaults(func=func, layers=layers)
    return s


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourcirc",
        description="Self-dual four circulant codes: construction, checks, enumeration, bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = _command(subs, "factor", "factor x^n - 1 over F_q", cmd_factor)
    _add_common(s, n=True)

    s = _command(subs, "check", "self-duality and complementary-dual tests", cmd_check)
    _add_common(s, n=True, poly=True)

    s = _command(subs, "distance", "exact minimum distance", cmd_distance)
    _add_common(s, n=True, poly=True, cap=True, workers=True)

    s = _command(subs, "crt", "constituent decomposition", cmd_crt, layers=("crt",))
    _add_common(s, n=True, poly=True)

    s = _command(subs, "enumerate", "enumerate all self-dual pairs", cmd_enumerate, layers=("census",))
    _add_common(s, n=True, cap=True, workers=True, csv=True)
    s.add_argument("--distances", action="store_true", help="attach per-code distances")

    s = _command(subs, "counts", "solution counts behind the enumeration", cmd_counts, layers=("census",))
    s.add_argument("--lemma", choices=["4.1", "4.2"], required=True,
                   help="4.1: pairs with x^2+y^2=-1 in F_q; 4.2: norm-form pairs in F_{q^2}")
    _add_common(s)

    s = _command(subs, "artin", "scan primes where q is a primitive root", cmd_artin, layers=("census",))
    s.add_argument("--q", dest="q_int", type=int, required=True)
    s.add_argument("--limit", type=int, required=True)
    _add_output(s)

    s = _command(subs, "search", "rank self-dual codes by minimum distance", cmd_search, layers=("census",))
    _add_common(s, n=True, cap=True, workers=True, csv=True)
    s.add_argument("--top", type=int, default=10)

    s = _command(subs, "bound", "finite-length expurgation bound", cmd_bound, layers=("asympt",))
    _add_common(s, n=True)

    s = _command(subs, "entropy", "q-ary entropy and its inverse", cmd_entropy, layers=("asympt",))
    s.add_argument("--q", required=True, help="field order, p or p^k")
    s.add_argument("--t", type=float)
    s.add_argument("--inverse", action="store_true")
    s.add_argument("--y", type=float)
    _add_output(s)

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
    if "counters" in meta:  # work counts of distance, search and enumerate --distances
        manifest["counters"] = meta["counters"]
    return manifest


def _to_stdout(chunk: str) -> None:
    """Write chunk to stdout.  A reader that stops early (| head) closes
    the pipe; the rest of the report then goes to os.devnull, with no
    traceback, and a --output copy is still written in full."""
    try:
        sys.stdout.write(chunk)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    With argv None, main is the process entry (python -m fourcirc, or the
    fourcirc console script) and reads sys.argv.  It then moves the import
    heap into gc's permanent generation (gc.freeze()), at once and again
    once the command's layers are loaded, so no later collection, the one
    at interpreter exit included, walks the objects that numpy and
    fourcirc made at import.  A call with argv, from library code or
    tests, never freezes.
    """
    entry = argv is None
    if entry:
        argv = sys.argv[1:]
        gc.freeze()  # --version and usage errors exit inside parse_args
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, least in (("workers", 1), ("cap", 0), ("top", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            parser.error(f"argument --{name}: must be at least {least}, got {value}")
    if args.output:
        problem = _output_problem(args.output)
        if problem:
            parser.error(f"argument --output: {problem}")
    for layer in args.layers:
        importlib.import_module(f".{layer}", __package__)
    if entry:
        gc.freeze()  # the layers just loaded
    try:
        if hasattr(args, "cap"):
            args.cap = args.cap if args.cap is not None else default_cap()
        start = time.monotonic()
        body, schema, meta = args.func(args)
        wall = time.monotonic() - start
    except CapExceeded as exc:
        print(f"fourcirc: workload cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"fourcirc: out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"fourcirc: {exc}", file=sys.stderr)
        return 2
    payload = {
        "schema": schema,
        "manifest": _manifest(args, argv, meta, wall),
        "report": body,
    }
    if not args.output:
        render(payload, args.format, args.command, _to_stdout)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as handle:  # before the first chunk

            def tee(chunk: str) -> None:
                _to_stdout(chunk)
                handle.write(chunk)

            render(payload, args.format, args.command, tee)
    except OSError as exc:
        print(f"fourcirc: cannot write --output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
