"""fourcirc benchmark: fixed-seed workloads of real fourcirc jobs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,distance,extension} \
        --seed N --seconds S --trace {0,1}

Closed loop with one client: the jobs of a workload run one after another,
each in a fresh child process, as a user pays for them (cold caches, lazily
built ring tables).  CLI jobs run as `python -m fourcirc ...` with
--workers given explicitly; library-only jobs run through perfbench/jobs.py.
Passes over the job list repeat while at least half of another pass fits
in --seconds (at least one pass runs).

With --trace 0 the last stdout line carries the end-to-end metrics:
  wall_s       sum over jobs of the median job wall time, spawn to exit
  compute_s    sum over jobs of the median in-process wall_time_s
  setup_s      median wall time of `python -m fourcirc --version`
  peak_rss_mb  median over passes of the largest job peak RSS (wait4)
The failure ratio (failed / attempted jobs) is printed on the line before.

With --trace 1, untraced and traced passes alternate, and the last line
carries the per-layer metrics of perfbench/traced.py (self times summed
over the jobs, medians over traced passes; counts must repeat exactly)
plus trace.overhead_s.

Every job's output is checked against perfbench/oracle.py, which does not
use the library, and against perfbench/reference.json, recorded from the
library where no closed form applies.  The seed picks the self-dual codes
of the distance jobs, the membership words and the CRT inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle as O

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())
COVERAGE = json.loads((BENCH / "coverage.json").read_text())

JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # no pass starts if it would likely end after this
SETUP_SAMPLES = 7


@dataclass
class Job:
    """One child process: a fourcirc argv (cli) or a jobs.py spec (lib)."""

    id: str
    check: Callable[[dict], list]  # report -> problems, empty when right
    cli: Optional[list] = None
    lib: Optional[dict] = None


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    compute: Optional[float] = None
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# oracle-side set-up, untimed


class Points:
    """Oracle rings and self-dual pair lists, built once per (p, k, n)."""

    def __init__(self):
        self._rings: dict = {}
        self._pairs: dict = {}

    def ring(self, p, k, n) -> O.Ring:
        if (p, k, n) not in self._rings:
            self._rings[p, k, n] = O.Ring(O.GF(p, k), n)
        return self._rings[p, k, n]

    def pairs(self, p, k, n) -> list:
        key = (p, k, n)
        if key not in self._pairs:
            pairs = O.self_dual_pairs(self.ring(p, k, n))
            want = expected_pair_count(p, k, n)
            if len(pairs) != want:
                raise AssertionError(f"oracle sweep at {key} finds {len(pairs)} pairs, expected {want}")
            self._pairs[key] = pairs
        return self._pairs[key]


def expected_pair_count(p, k, n) -> int:
    if math.gcd(n, p) == 1:
        return O.self_dual_count(p, k, n)
    return REFERENCE["pair_count"][ref_key(p, k, n)]


def ref_key(p, k, n) -> str:
    return f"{p}^{k},{n}"


def check_product_formula() -> None:
    """Check the per-factor product against known exhaustive pair counts."""
    known = {(2, 3): 12, (2, 5): 120, (5, 3): 480, (3, 5): 2880, (2, 7): 1008, (7, 3): 2688, (2, 9): 6048}
    for (q, n), want in known.items():
        got = O.self_dual_count(q, 1, n)
        if got != want:
            raise AssertionError(f"product count at ({q},{n}) is {got}, expected {want}")


def q_arg(p, k) -> str:
    return str(p) if k == 1 else f"{p}^{k}"


def poly_arg(u) -> str:
    return ",".join(map(str, u))


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right


def check_enumerate(points, p, k, n):
    ring = points.ring(p, k, n)
    want = sorted([list(ring.element(a)), list(ring.element(b))] for a, b in points.pairs(p, k, n))

    def check(report):
        problems = []
        if report["pair_count"] != len(want):
            problems.append(f"pair_count {report['pair_count']} != {len(want)}")
        if sorted(report["pairs"]) != want:
            problems.append("the set of self-dual pairs differs from the oracle sweep")
        return problems

    return check


def check_distance(ring, a, b):
    d = O.min_distance(ring, a, b)
    return lambda report: [] if report["d"] == d else [f"d = {report['d']}, oracle says {d}"]


def check_search(points, p, n, top):
    ring = points.ring(p, 1, n)
    total = len(points.pairs(p, 1, n))
    ref = REFERENCE["search_top"][ref_key(p, 1, n)][:top]
    for row in ref:
        if O.min_distance(ring, row["a"], row["b"]) != row["distance"]:
            raise AssertionError(f"reference search top at ({p},{n}) disagrees with the oracle")

    def check(report):
        problems = []
        if report["total_self_dual"] != total:
            problems.append(f"total_self_dual {report['total_self_dual']} != {total}")
        if report["top"] != ref:
            problems.append("top codes differ from the reference")
        return problems

    return check


def membership_expect(points, p, n, word):
    """(count, unit_count, self_dual_count) for one word, by linear algebra."""
    ring = points.ring(p, 1, n)
    sd = set(points.pairs(p, 1, n))
    sols = O.containing_pairs(ring, word)
    unit = [O.is_unit(ring, ring.element(i)) for i in range(ring.size)] if sols else []
    return [
        len(sols),
        sum(1 for a, b in sols if unit[a] and unit[b]),
        sum(1 for s in sols if s in sd),
    ]


def seeded_codeword(points, rng, p, k, n):
    ring = points.ring(p, k, n)
    ai, bi = rng.choice(points.pairs(p, k, n))
    c = ring.element(rng.randrange(ring.size))
    d = ring.element(rng.randrange(ring.size))
    return list(O.encode(ring, ring.element(ai), ring.element(bi), c, d))


def check_membership_census(points, p, n, word):
    want = membership_expect(points, p, n, word)

    def check(report):
        got = [report["count"], report["unit_count"], report["self_dual_count"]]
        return [] if got == want else [f"membership counts {got} != {want}"]

    return check


def check_membership_sweep(points, p, n, words):
    ring = points.ring(p, 1, n)
    Q = ring.size
    units = sum(O.is_unit(ring, ring.element(i)) for i in range(Q))
    totals = [Q**4, units * units * Q * Q, len(points.pairs(p, 1, n)) * Q * Q]
    at_words = [membership_expect(points, p, n, w) for w in words]
    maxima = REFERENCE["membership_sweep_max_nonconstant"][ref_key(p, 1, n)]

    def check(report):
        problems = []
        if report["totals"] != totals:
            problems.append(f"sweep totals {report['totals']} != {totals}")
        if report["at_words"] != at_words:
            problems.append(f"sweep counts at words {report['at_words']} != {at_words}")
        if report["max_nonconstant"] != maxima:
            problems.append(f"sweep maxima {report['max_nonconstant']} != {maxima}")
        return problems

    return check


def check_crt(p, k, n, pairs):
    degrees = sorted(len(c) for c in O.cyclotomic_cosets(p**k, n))

    def check(report):
        problems = []
        for i, ((a, b), got) in enumerate(zip(pairs, report["round_trips"])):
            if [got["a"], got["b"]] != [a, b]:
                problems.append(f"round trip #{i} does not return its input")
            if sorted(got["degrees"]) != degrees:
                problems.append(f"constituent degrees {got['degrees']} != {degrees}")
        if len(report["round_trips"]) != len(pairs):
            problems.append("missing round trips")
        return problems[:3]

    return check


def check_hermitian(q):
    want = (q + 1) * (q * q - q)

    def check(report):
        got = [report["brute_force"], report["formula"]]
        return [] if got == [want, want] else [f"lemma 4.2 counts {got} != {want}"]

    return check


# ---------------------------------------------------------------------------
# workloads


def enumerate_job(points, p, k, n):
    return Job(
        f"enumerate {q_arg(p, k)},{n}",
        cli=["enumerate", "--q", q_arg(p, k), "--n", str(n), "--workers", "1"],
        check=check_enumerate(points, p, k, n),
    )


def distance_job(points, rng, p, k, n, workers, tag):
    ring = points.ring(p, k, n)
    ai, bi = rng.choice(points.pairs(p, k, n))
    a, b = ring.element(ai), ring.element(bi)
    return Job(
        f"distance {q_arg(p, k)},{n} #{tag}",
        cli=["distance", "--q", q_arg(p, k), "--n", str(n), "--a", poly_arg(a), "--b", poly_arg(b),
             "--workers", str(workers)],
        check=check_distance(ring, a, b),
    )


def sweep_jobs(points, rng):
    """Pair sweep, distinct-code count and membership on prime fields."""
    jobs = [enumerate_job(points, p, 1, n) for p, n in [(3, 5), (3, 6), (7, 3), (2, 9)]]
    for i in range(2):
        word = seeded_codeword(points, rng, 3, 1, 5)
        jobs.append(Job(
            f"membership_census 3,5 #{i}",
            lib={"op": "membership_census", "p": 3, "k": 1, "n": 5, "word": word},
            check=check_membership_census(points, 3, 5, word),
        ))
    words = [seeded_codeword(points, rng, 2, 1, 5) for _ in range(2)]
    words += [[rng.randrange(2) for _ in range(20)] for _ in range(2)]
    jobs.append(Job(
        "membership_sweep 2,5",
        lib={"op": "membership_sweep", "p": 2, "k": 1, "n": 5, "words": words},
        check=check_membership_sweep(points, 2, 5, words),
    ))
    return jobs


def distance_jobs(points, rng):
    """Distance scans and search ranking on prime fields, with worker pools."""
    jobs = [distance_job(points, rng, 2, 1, 10, 2, i) for i in range(2)]
    jobs.append(distance_job(points, rng, 3, 1, 6, 2, 0))
    for p, n in [(3, 5), (2, 7)]:
        jobs.append(Job(
            f"search {p},{n}",
            cli=["search", "--q", str(p), "--n", str(n), "--top", "5", "--workers", "2"],
            check=check_search(points, p, n, 5),
        ))
    return jobs


def extension_jobs(points, rng):
    """Extension-field arithmetic, extension ring tables and CRT round trips."""
    jobs = [distance_job(points, rng, 2, 2, 4, 1, 0), enumerate_job(points, 2, 2, 4)]
    jobs.append(Job(
        "counts 4.2 2^5",
        cli=["counts", "--lemma", "4.2", "--q", "2^5"],
        check=check_hermitian(32),
    ))
    for p, k, n, count in [(2, 2, 5, 100), (2, 1, 23, 50), (2, 1, 89, 10)]:
        q = p**k
        pairs = [[[rng.randrange(q) for _ in range(n)] for _ in range(2)] for _ in range(count)]
        jobs.append(Job(
            f"crt {q_arg(p, k)},{n} x{count}",
            lib={"op": "crt_round_trips", "p": p, "k": k, "n": n, "pairs": pairs},
            check=check_crt(p, k, n, pairs),
        ))
    return jobs


WORKLOADS = {"sweep": sweep_jobs, "distance": distance_jobs, "extension": extension_jobs}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD_ENV = child_env()


def command(job: Job, trace_path: Optional[Path]) -> list:
    spec = {"id": job.id, "cli": job.cli} if job.cli is not None else {"id": job.id, "lib": job.lib}
    if trace_path is not None:
        return [sys.executable, str(BENCH / "traced.py"), str(trace_path), json.dumps(spec)]
    if job.cli is not None:
        return [sys.executable, "-m", "fourcirc", *job.cli]
    return [sys.executable, str(BENCH / "jobs.py"), json.dumps(job.lib)]


def run_child(cmd: list, out_path: Path, timeout: float) -> tuple:
    """Run cmd to completion; returns (wall_s, peak_rss_mb, exit_code, stderr)."""
    killed = []

    def kill():
        killed.append(True)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
                                env=CHILD_ENV, start_new_session=True)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    if killed:
        stderr = f"timed out after {timeout:.0f} s\n" + stderr
    return wall, usage.ru_maxrss / 1024.0, code, stderr


def run_job(job: Job, work: Path, timeout: float, trace_path: Optional[Path]) -> Outcome:
    out_path = work / "job.out"
    wall, rss, code, stderr = run_child(command(job, trace_path), out_path, timeout)
    outcome = Outcome(wall=wall, rss_mb=rss)
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        outcome.problems.append(f"exit code {code}: {tail[0]}")
        return outcome
    try:
        payload = json.loads(out_path.read_text())
        outcome.compute = float(payload["manifest"]["wall_time_s"])
        outcome.problems.extend(job.check(payload["report"]))
    except (ValueError, KeyError, TypeError) as exc:
        outcome.problems.append(f"unreadable output: {exc!r}")
    return outcome


def measure_setup(work: Path) -> list:
    cmd = [sys.executable, "-m", "fourcirc", "--version"]
    run_child(cmd, work / "setup.out", JOB_TIMEOUT_S)  # warm the bytecode cache
    walls = []
    for _ in range(SETUP_SAMPLES):
        wall, _, code, stderr = run_child(cmd, work / "setup.out", JOB_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"fourcirc --version failed: {stderr.strip()}")
        walls.append(wall)
    return walls


# ---------------------------------------------------------------------------
# passes and metrics


class Runner:
    def __init__(self, jobs: list, work: Path, deadline: float):
        self.jobs, self.work, self.deadline = jobs, work, deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run_pass(self, traced: bool) -> tuple:
        """One pass over the job list: (outcomes, traces or None)."""
        outcomes, traces = [], [] if traced else None
        for i, job in enumerate(self.jobs):
            trace_path = self.work / f"trace{i}.json" if traced else None
            timeout = max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
            outcome = run_job(job, self.work, timeout, trace_path)
            self.attempted += 1
            if outcome.problems:
                self.failed += 1
                self.problems.append(f"{job.id}: {'; '.join(outcome.problems)}")
            elif traced:
                traces.append(json.loads(trace_path.read_text()))
            outcomes.append(outcome)
        return outcomes, traces


def job_median_sum(passes: list, attr: str) -> float:
    """Sum over jobs of each job's median over passes."""
    total = 0.0
    for per_job in zip(*passes):
        values = [getattr(o, attr) for o in per_job if getattr(o, attr) is not None]
        if values:
            total += statistics.median(values)
    return total


SPAN_SECONDS = {
    "polyring.tables_s": ["polyring.tables"],
    "polyring.ring_mul_s": ["polyring.ring_mul"],
    "polyring.factor_s": ["polyring.factor"],
    "fields.op_s": ["fields.add", "fields.mul", "fields.neg", "fields.pow", "fields.inv"],
    "fields.construct_s": ["fields.construct"],
    "codes.min_distance_s": ["codes.min_distance"],
    "census.self_dual_pairs_s": ["census.self_dual_pairs"],
    "census.distinct_code_count_s": ["census.distinct_code_count"],
    "census.code_distances_s": ["census.code_distances"],
    "census.membership_census_s": ["census.membership_census"],
    "census.membership_sweep_s": ["census.membership_sweep"],
    "census.counts_s": ["census.counts"],
    "census.enumerate_s": ["census.enumerate"],
    "crt.decompose_s": ["crt.decompose"],
    "crt.reconstruct_s": ["crt.reconstruct"],
    "cli.render_s": ["cli.render"],
    "cli.main_self_s": ["cli.main"],
}

CALL_COUNTS = {
    "fields.mul_calls": "fields.mul",
    "fields.add_calls": "fields.add",
    "polyring.tables_built": "polyring.tables",
    "polyring.ring_mul_calls": "polyring.ring_mul",
    "codes.min_distance_calls": "codes.min_distance",
    "codes.encode_calls": "codes.encode",
    "crt.round_trips": "crt.reconstruct",
}

COUNTERS = {
    "polyring.table_entries": "table_entries",
    "census.pairs_found": "pairs_found",
    "census.codes_ranked": "codes_ranked",
}


def layer_totals(traces: list) -> tuple:
    """Self seconds and call counts per frame name, summed over a pass's jobs."""
    seconds, calls, counters = {}, {}, {}
    for tr in traces:
        for name, _start, _end, _parent, self_s in tr["spans"]:
            seconds[name] = seconds.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        for name, (count, self_s) in tr["leaves"].items():
            seconds[name] = seconds.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + count
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return seconds, calls, counters


def per_layer_metrics(traced_passes: list, workload: str) -> tuple:
    """Per-layer metrics and the problems found in the traces themselves."""
    totals = [layer_totals(traces) for traces in traced_passes]
    counts = [
        {**{m: c.get(n, 0) for m, n in CALL_COUNTS.items()}, **{m: k.get(n, 0) for m, n in COUNTERS.items()}}
        for _, c, k in totals
    ]
    problems = []
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between passes of one seed")
    # a layer that must work on this workload but records nothing was not patched
    idle = [name for name in COVERAGE["expected_calls"][workload] if not totals[0][1].get(name)]
    if idle:
        problems.append(f"trace recorded no calls to {', '.join(idle)}")
    metrics = {}
    for metric, names in SPAN_SECONDS.items():
        value = statistics.median(sum(s.get(n, 0.0) for n in names) for s, _, _ in totals)
        metrics[metric] = {"value": value, "unit": "s"}
    for metric, value in counts[0].items():
        metrics[metric] = {"value": value, "unit": "count"}
    return metrics, problems


def host_line() -> str:
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} machine={platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "fourcirc" / "__init__.py").is_file():
        print(f"perfbench: no fourcirc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    check_product_formula()
    points = Points()
    jobs = WORKLOADS[args.workload](points, random.Random(args.seed))
    print(host_line())
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass, "
          f"oracle set-up {time.monotonic() - started:.2f} s", flush=True)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        setup = measure_setup(work)
        runner = Runner(jobs, work, started + RUN_BUDGET_S + 20)
        plain, traced, traces = [], [], []
        measure_start = time.monotonic()
        while True:
            plain.append(runner.run_pass(traced=False)[0])
            if args.trace:
                outcomes, pass_traces = runner.run_pass(traced=True)
                traced.append(outcomes)
                traces.append(pass_traces)
            # start another pass only if at least half of it fits
            now = time.monotonic()
            per_pass = (now - measure_start) / len(plain)
            if now + per_pass / 2 - measure_start > args.seconds or now + per_pass - started > RUN_BUDGET_S:
                break

    problems = runner.problems
    if args.trace:
        metrics, trace_problems = per_layer_metrics(traces, args.workload)
        problems = problems + trace_problems
        overhead = job_median_sum(traced, "wall") - job_median_sum(plain, "wall")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        note = COVERAGE["parent_only"].get(args.workload)
        if note:
            print(f"parent-only: {', '.join(note['layers'])} figures exclude pool children. {note['why']}")
    else:
        metrics = {
            "wall_s": {"value": job_median_sum(plain, "wall"), "unit": "s"},
            "compute_s": {"value": job_median_sum(plain, "compute"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(max(o.rss_mb for o in p) for p in plain), "unit": "MB"},
        }
    for line in problems[:20]:
        print(f"FAIL {line}")
    print(f"{len(plain)} pass(es), {runner.attempted} jobs attempted, {runner.failed} failed; "
          f"fail_ratio {runner.failed / runner.attempted:.4f} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
