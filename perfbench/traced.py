"""Run one benchmark job with fourcirc's layers wrapped in timing spans.

Usage: python perfbench/traced.py TRACE_PATH '<job as JSON>'

The job is {"id": ..., "cli": [argv...]} for a fourcirc command line, or
{"id": ..., "lib": spec} for a perfbench/jobs.py spec.  The job's stdout is
exactly what the untraced job prints; the trace is written to TRACE_PATH
when the job ends.

Each entry of SPANS records one span per call: name, start, end, parent
span and self time, under the job id at the head of the trace file.  The
hot leaf methods in LEAVES record only a call count and cumulative self
time.  Self time is a frame's duration minus the time of
the frames it encloses, spans and leaves alike.  A function is rebound in
every fourcirc namespace that imports it (fourcirc.cli.self_dual_pairs as
well as fourcirc.census.self_dual_pairs), so no call escapes its span.

Work done inside multiprocessing pool children is not recorded: a forked
child inherits the wrappers, but its records are never written.
"""

from __future__ import annotations

import json
import sys
import time

import fourcirc  # loads every layer but the CLI
import fourcirc.cli
import jobs

# (module, attribute path, span name, counter hook)
SPANS = [
    ("polyring", "RingTables.__init__", "polyring.tables", "table_entries"),
    ("polyring", "factor_xn_minus_1", "polyring.factor", None),
    ("codes", "FourCirculantCode.min_distance", "codes.min_distance", None),
    ("census", "self_dual_pairs", "census.self_dual_pairs", "pairs_found"),
    ("census", "distinct_code_count", "census.distinct_code_count", None),
    ("census", "code_distances", "census.code_distances", "codes_ranked"),
    ("census", "enumerate_self_dual", "census.enumerate", None),
    ("census", "membership_census", "census.membership_census", None),
    ("census", "membership_sweep", "census.membership_sweep", None),
    ("census", "count_sum_of_squares", "census.counts", None),
    ("census", "count_hermitian", "census.counts", None),
    ("crt", "decompose", "crt.decompose", None),
    ("crt", "reconstruct", "crt.reconstruct", None),
    ("cli", "main", "cli.main", None),
    ("cli", "render", "cli.render", None),
]

# (module, attribute path, leaf name)
LEAVES = [
    ("fields", "Field.add", "fields.add"),
    ("fields", "Field.mul", "fields.mul"),
    ("fields", "Field.neg", "fields.neg"),
    ("fields", "Field.pow", "fields.pow"),
    ("fields", "Field.inv", "fields.inv"),
    ("fields", "Field.__init__", "fields.construct"),
    ("fields", "Embedding.__init__", "fields.construct"),
    ("polyring", "QuotientRing.mul", "polyring.ring_mul"),
    ("codes", "FourCirculantCode.encode", "codes.encode"),
]


def _count_hook(kind: str, args, result) -> int:
    if kind == "table_entries":  # mul and add tables of the ring
        return 2 * args[1].size ** 2
    if kind == "pairs_found":
        return len(result)
    if kind == "codes_ranked":
        return len(args[2])
    raise ValueError(kind)


class Tracer:
    """In-memory spans and leaf aggregates for one job."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []  # [name, start, end, parent, self_s]
        self.leaves: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters: dict[str, int] = {}
        # one entry per open frame: time spent in frames it encloses
        self._inner = [0.0]
        self._open_spans = [-1]

    def span(self, name: str, fn, hook):
        clock, inner, open_spans, spans = time.perf_counter, self._inner, self._open_spans, self.spans
        counters = self.counters

        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [name, 0.0, 0.0, open_spans[-1], 0.0]
            spans.append(record)
            open_spans.append(sid)
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                enclosed = inner.pop()
                open_spans.pop()
                inner[-1] += end - start
                record[1], record[2], record[4] = start, end, end - start - enclosed
            if hook:
                counters[hook] = counters.get(hook, 0) + _count_hook(hook, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        clock, inner = time.perf_counter, self._inner
        agg = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                enclosed = inner.pop()
                inner[-1] += took
                agg[0] += 1
                agg[1] += took - enclosed

        return wrapper

    def dump(self) -> dict:
        return {
            "job": self.job_id,
            "spans": self.spans,
            "leaves": self.leaves,
            "counters": self.counters,
        }


def _namespaces() -> list:
    mods = [m for name, m in sys.modules.items() if name == "fourcirc" or name.startswith("fourcirc.")]
    return mods + [jobs]


def _rebind(mod_name: str, path: str, wrap) -> None:
    """Replace fourcirc.<mod_name>.<path> by wrap(original) under every name."""
    home = getattr(fourcirc, mod_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    orig = getattr(owner, attr)
    wrapped = wrap(orig)
    if owner_name:  # a method: every importer shares the class object
        setattr(owner, attr, wrapped)
        return
    rebound = 0
    for ns in _namespaces():
        for key, value in list(vars(ns).items()):
            if value is orig:
                setattr(ns, key, wrapped)
                rebound += 1
    if not rebound:
        raise RuntimeError(f"fourcirc.{mod_name}.{path} is bound under no name")


def install(tracer: Tracer) -> None:
    """Wrap every SPANS and LEAVES entry."""
    for mod_name, path, name, hook in SPANS:
        _rebind(mod_name, path, lambda fn: tracer.span(name, fn, hook))
    for mod_name, path, name in LEAVES:
        _rebind(mod_name, path, lambda fn: tracer.leaf(name, fn))


def main(argv: list[str]) -> int:
    trace_path, job = argv[0], json.loads(argv[1])
    tracer = Tracer(job["id"])
    install(tracer)
    if "cli" in job:
        code = fourcirc.cli.main(job["cli"])
    else:
        run = tracer.span("job", jobs.run, None)
        sys.stdout.write(json.dumps(run(job["lib"])) + "\n")
        code = 0
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
