import io
import json
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fourcirc import census, cli
from fourcirc.census import enumerate_self_dual, self_dual_count_formula
from fourcirc.fields import Field
from fourcirc.polyring import QuotientRing

from helpers import ROOT, child_env
from oracles import all_pairs_distances, code_orbits_fixed_point, nested_render

CLI = [sys.executable, "-m", "fourcirc"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300, env=child_env()
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def run_json(*args):
    proc = run_cli(*args)
    payload = json.loads(proc.stdout)
    assert set(payload) == {"schema", "manifest", "report"}
    return payload


def test_check_snapshot():
    payload = run_json("check", "--q", "2", "--n", "3", "--a", "0,1,0", "--b", "0,0,0")
    rep = payload["report"]
    assert rep["self_dual"] is True
    assert rep["lcd"] is False
    assert rep["criterion_residue"] == [0, 0, 0]
    assert payload["schema"] == "fourcirc/check/v1"


def test_enumerate_snapshot():
    payload = run_json("enumerate", "--q", "2", "--n", "3")
    assert payload["schema"] == "fourcirc/enumerate/v2"
    rep = payload["report"]
    assert rep["pair_count"] == 12
    assert rep["formula_count"] == 12
    assert rep["distinct_code_count"] == 12
    assert len(rep["pairs"]) == 12


def test_factor_snapshot():
    payload = run_json("factor", "--q", "3", "--n", "7")
    assert payload["schema"] == "fourcirc/factor/v2"
    rep = payload["report"]
    degrees = sorted(len(f) - 1 for f in rep["self_reciprocal"]) + [
        len(h) - 1 for pair in rep["pairs"] for h in pair
    ]
    assert degrees == [1, 6]
    assert list(rep) == ["q", "n", "self_reciprocal", "pairs", "cosets"]
    assert rep["cosets"] == [[0], [1, 2, 3, 4, 5, 6]]
    assert rep["self_reciprocal"] == [[2, 1], [1, 1, 1, 1, 1, 1, 1]]


def test_counts_snapshots():
    rep = run_json("counts", "--lemma", "4.1", "--q", "7")["report"]
    assert (rep["brute_force"], rep["formula"]) == (8, 8)
    rep = run_json("counts", "--lemma", "4.2", "--q", "3")["report"]
    assert (rep["brute_force"], rep["formula"]) == (24, 24)
    rep = run_json("counts", "--lemma", "4.2", "--q", "2^2")["report"]
    assert (rep["brute_force"], rep["formula"]) == (60, 60)


def test_artin_snapshot():
    rep = run_json("artin", "--q", "2", "--limit", "30")["report"]
    assert rep["primes"] == [3, 5, 11, 13, 19, 29]


def test_artin_long_scan():
    rep = run_json("artin", "--q", "2", "--limit", "1000")["report"]
    assert rep["primes"][:6] == [3, 5, 11, 13, 19, 29]
    # the empirical density hovers near 0.37 for q = 2
    assert 0.3 < rep["density"] < 0.45
    assert all(n <= 1000 for n in rep["primes"])


def test_distance_snapshot():
    rep = run_json("distance", "--q", "2", "--n", "3", "--a", "0,1,0", "--b", "0,0,0")["report"]
    assert rep["d"] == 2
    assert rep["witness_weight"] == 2


def test_distance_above_1024_elements():
    # Q = 2048; the default cap admits every n up to 13 and refuses 14
    rep = run_json(
        "distance", "--q", "2", "--n", "11", "--a", "1,0,1", "--b", "1,1,0,0,1,0,1,0,1,1,1"
    )["report"]
    assert (rep["d"], rep["witness_weight"]) == (8, 8)
    proc = run_cli("distance", "--q", "2", "--n", "14", "--a", "1", "--b", "0", expect=3)
    assert "cap" in proc.stderr


def test_distance_past_int64_residue_indices():
    # q^n = 2^65 has no int64 residue index; message (0, 1) gives the
    # weight-4 word (0, 1, -b', a'), which test_codes proves least
    args = ("distance", "--q", "2", "--n", "65", "--a", "1", "--b", "0,1,1", "--cap", str(10**80))
    rep = json.loads(run_cli(*args).stdout)["report"]
    assert (rep["d"], rep["witness_weight"]) == (4, 4)
    assert rep["witness_message"] == {"c": [0] * 65, "d": [1] + [0] * 64}


@pytest.mark.parametrize(
    "args, module",
    [
        (["distance", "--q", "2", "--n", "3", "--a", "0,1,0", "--b", "0,0,0"], "codes"),
        (["search", "--q", "2", "--n", "3"], "census"),
    ],
)
def test_failed_allocation_exits_3(args, module, monkeypatch, capsys):
    # numpy raises MemoryError (_ArrayMemoryError) when an array cannot be
    # allocated; main reports it on one line, with no traceback
    def engine(*call, **options):
        raise MemoryError("Unable to allocate 16.2 GiB for an array")

    monkeypatch.setattr(f"fourcirc.{module}.least_weight_messages", engine)
    assert cli.main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == "fourcirc: out of memory: Unable to allocate 16.2 GiB for an array\n"


def test_crt_snapshot():
    payload = run_json("crt", "--q", "2", "--n", "3", "--a", "0,1,0", "--b", "0,0,0")
    assert payload["schema"] == "fourcirc/crt/v2"
    rep = payload["report"]
    kinds = [c["kind"] for c in rep["constituents"]]
    assert kinds == ["self_reciprocal", "self_reciprocal"]
    assert all(c["hermitian_self_dual"] for c in rep["constituents"])
    assert rep["constituents"][1]["degree"] == 2
    assert rep["constituents"][1]["a_image"] == [0, 1]  # x mod x^2 + x + 1


def test_bound_snapshot():
    rep = run_json("bound", "--q", "2", "--n", "13")["report"]
    assert rep["total_self_dual"] == 524160
    assert rep["bad_bounds"][0] == [1, 425984]
    assert rep["guaranteed_distance"] == 2


def test_entropy_snapshots():
    rep = run_json("entropy", "--q", "2", "--t", "0.25")["report"]
    assert 0 < rep["entropy"] < 1
    rep = run_json("entropy", "--q", "2", "--inverse", "--y", "0.125")["report"]
    assert abs(rep["t"] - 0.0171286) < 1e-5


def test_search_ordering():
    proc = run_cli("search", "--q", "2", "--n", "3", "--top", "5")
    rep = json.loads(proc.stdout)["report"]
    rows = rep["top"]
    assert len(rows) == 5
    keys = [(-r["distance"], r["a"], r["b"]) for r in rows]
    assert keys == sorted(keys)
    assert rep["total_self_dual"] == 12


def test_enumerate_csv():
    proc = run_cli("enumerate", "--q", "2", "--n", "3", "--format", "csv", "--distances")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "a,b,distance"
    assert len(lines) == 13


def test_csv_only_on_table_commands():
    # argparse refuses csv before any work starts: exit 2, usage, no traceback
    for args in [
        ("factor", "--q", "2", "--n", "3"),
        ("artin", "--q", "2", "--limit", "30"),
        ("entropy", "--q", "2", "--t", "0.25"),
    ]:
        proc = run_cli(*args, "--format", "csv", expect=2)
        assert "invalid choice" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_export_to_file(tmp_path):
    for fmt in ("json", "text", "csv"):
        out = tmp_path / f"report.{fmt}"
        proc = run_cli("enumerate", "--q", "2", "--n", "3", "--format", fmt, "--output", str(out))
        assert out.read_bytes() == proc.stdout.encode("utf-8"), fmt
        assert proc.stdout.endswith("\n"), fmt
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert payload["report"]["pair_count"] == 12


def test_output_refused_when_unwritable(tmp_path):
    missing = tmp_path / "missing" / "report.json"
    for path in (missing, tmp_path):
        proc = run_cli("factor", "--q", "2", "--n", "3", "--output", str(path), expect=2)
        assert "--output" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""  # refused before the job ran
    assert not missing.parent.exists()


def test_workers_must_be_positive():
    for value in ("0", "-3"):
        proc = run_cli("enumerate", "--q", "2", "--n", "3", "--workers", value, expect=2)
        assert "--workers" in proc.stderr
        assert "Traceback" not in proc.stderr
    manifest = run_json("enumerate", "--q", "2", "--n", "3")["manifest"]
    assert manifest["workers"] is None
    manifest = run_json("enumerate", "--q", "2", "--n", "3", "--workers", "3")["manifest"]
    assert manifest["workers"] == 3


def test_top_must_be_nonnegative():
    for value in ("-1", "-2"):
        proc = run_cli("search", "--q", "2", "--n", "3", "--top", value, expect=2)
        assert "--top" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert run_json("search", "--q", "2", "--n", "3", "--top", "0")["report"]["top"] == []


def test_cap_must_be_nonnegative():
    # a validation error that names the argument, not a cap refusal (exit 3)
    argv = ("distance", "--q", "2", "--n", "3", "--a", "1", "--b", "0")
    proc = run_cli(*argv, "--cap", "-1", expect=2)
    assert "--cap" in proc.stderr and "Traceback" not in proc.stderr
    proc = subprocess.run(CLI + list(argv), capture_output=True, text=True, timeout=300,
                          env=child_env(FOURCIRC_CAP="-1"))
    assert proc.returncode == 2, proc.stderr
    assert "FOURCIRC_CAP" in proc.stderr and "Traceback" not in proc.stderr
    assert "cap is 0" in run_cli(*argv, "--cap", "0", expect=3).stderr  # 0 refuses every job


def test_json_round_trip():
    proc = run_cli("check", "--q", "2", "--n", "3", "--a", "0,1,0", "--b", "0,0,0")
    payload = json.loads(proc.stdout)
    assert json.loads(json.dumps(payload)) == payload


def test_exit_code_validation():
    proc = run_cli("enumerate", "--q", "4", "--n", "3", expect=2)
    assert "prime" in proc.stderr
    run_cli("check", "--q", "2", "--n", "3", "--a", "0,9,0", "--b", "0", expect=2)
    # a code that is not an integer names its option and the expected form
    for option, args in [
        ("--a", ("check", "--q", "2", "--n", "3", "--a", "x", "--b", "0")),
        ("--b", ("check", "--q", "2", "--n", "3", "--a", "0", "--b", "1,,0")),
        ("--modulus", ("factor", "--q", "2^2", "--n", "3", "--modulus", "1,y,1")),
    ]:
        proc = run_cli(*args, expect=2)
        assert f"argument {option}: expected comma-separated integer coefficient codes" in proc.stderr
        assert "Traceback" not in proc.stderr
    run_cli("factor", "--q", "2", "--n", "4", expect=2)  # gcd(n, q) != 1
    # lengths below 1 are refused before any factoring work
    for q, n in [("2", "0"), ("2", "-1"), ("3", "-2")]:
        proc = run_cli("factor", "--q", q, "--n", n, expect=2)
        assert "ring length must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_exit_code_cap():
    proc = run_cli("enumerate", "--q", "3", "--n", "13", expect=3)
    assert "cap" in proc.stderr
    # the pair sweep fits the cap here, the per-code distance scans do not
    proc = run_cli("search", "--q", "2", "--n", "15", expect=3)
    assert "distance scans" in proc.stderr


@pytest.mark.parametrize(
    "args, code, need",
    [
        (["distance", "--q", "2", "--n", "100000", "--a", "1", "--b", "0"], 3, "2^200000 codeword"),
        (["enumerate", "--q", "2", "--n", "100000"], 3, "2^200000 pairs"),
    ],
)
def test_refusals_write_huge_sizes_as_powers(args, code, need):
    # q^(2n) has 60,206 digits here, past Python's int-to-str limit of 4300
    proc = run_cli(*args, expect=code)
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 300, proc.stderr
    assert need in proc.stderr


def test_factor_and_crt_charge_refuses_huge_lengths_at_once():
    # the charge on factoring x^n - 1 refuses before any work, in one line:
    # from the listed cosets up to n = 8191, where n^2 <= 2^26, and above
    # that from n^2 alone, as there is at least one factor; the
    # splitting-field path refused (2, 19) to (3, 17) with exit 2
    for args, charge in [(["factor", "--q", "2", "--n", "8191"], "about 45596694786 "),
                         (["factor", "--q", "2", "--n", "8209"], "at least 67387681 "),
                         (["factor", "--q", "2", "--n", "1000003"], "at least 1000006000009 "),
                         (["crt", "--q", "2", "--n", "1000003", "--a", "1", "--b", "0,1"], "at least"),
                         (["factor", "--q", "3", "--n", "10000019"], "at least")]:
        start = time.perf_counter()
        proc = run_cli(*args, expect=3)
        assert time.perf_counter() - start < 1, args
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and f"takes {charge}" in proc.stderr, proc.stderr
        assert "field operations, cap is 67108864" in proc.stderr, proc.stderr
    for q, n in [("2", "19"), ("2", "29"), ("3", "17")]:
        run_cli("factor", "--q", q, "--n", n)
        run_cli("crt", "--q", q, "--n", n, "--a", "1,1,0,1", "--b", "0,1")
    # large primes cost no p^2: x^2 - 1 = (x + 1)(x - 1) over F_65521
    body = run_json("factor", "--q", "65521", "--n", "2")["report"]
    assert body["self_reciprocal"] == [[1, 1], [65520, 1]]


def test_crt_at_the_largest_artin_length_inside_its_charge():
    # 2 generates (Z/1907)^*, so x^1907 - 1 = (x - 1) * (a factor of degree
    # 1906): the largest such length crt's charge admits runs in seconds,
    # maps and Hermitian tests included; the next one, 1931, is refused
    a = ",".join("1" if i % 3 else "0" for i in range(1907))
    start = time.perf_counter()
    body = run_json("crt", "--q", "2", "--n", "1907", "--a", a, "--b", "0,1")["report"]
    assert time.perf_counter() - start < 30
    assert [con["degree"] for con in body["constituents"]] == [1, 1906]
    assert all(con["hermitian_self_dual"] is not None for con in body["constituents"])
    start = time.perf_counter()
    proc = run_cli("crt", "--q", "2", "--n", "1931", "--a", "1", "--b", "0,1", expect=3)
    assert time.perf_counter() - start < 1
    assert proc.stderr.count("\n") == 1 and "the CRT of R(1931, F_2) takes about" in proc.stderr, proc.stderr


ABOVE_127 = [
    ["factor", "--n", "2"],
    ["factor", "--n", "5"],
    ["check", "--n", "2", "--a", "1,100", "--b", "5,120"],
    ["distance", "--n", "1", "--a", "3", "--b", "100"],
    ["crt", "--n", "2", "--a", "1,100", "--b", "5,120"],
    ["crt", "--n", "5", "--a", "1,2,3,4,5", "--b", "100,0,7,9,120"],
    ["enumerate", "--n", "1"],
    ["search", "--n", "1"],
    ["counts", "--lemma", "4.1"],
    ["counts", "--lemma", "4.2"],
    ["bound", "--n", "3"],
]


@pytest.mark.parametrize("q", ["131", "257"])
def test_exit_contract_above_127(q):
    # F_p digits above 127: every command succeeds or refuses, never crashes
    for args in ABOVE_127:
        argv = args[:1] + ["--q", q] + args[1:]
        proc = subprocess.run(CLI + argv, capture_output=True, text=True, timeout=300, env=child_env())
        assert proc.returncode in (0, 2, 3), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


def test_length_one_counts_above_127():
    # 131 = 3 mod 4, so 1 + a^2 + b^2 = 0 has 131 + 1 solutions (Lemma 4.1)
    assert run_json("enumerate", "--q", "131", "--n", "1")["report"]["pair_count"] == 132
    assert run_json("search", "--q", "131", "--n", "1")["report"]["total_self_dual"] == 132


def test_search_cap_counts_orbits():
    # (2, 10) has 72 orbits of equivalent codes at 2^20 evaluations each:
    # about 7.5e7 units, above the default cap of 2^26
    proc = run_cli("search", "--q", "2", "--n", "10", expect=3)
    assert "72 orbits" in proc.stderr
    proc = run_cli("search", "--q", "2", "--n", "10", "--top", "1", "--cap", "134217728")
    assert "30720 self-dual codes in 72 orbits" in proc.stderr
    rep = json.loads(proc.stdout)["report"]
    assert rep["total_self_dual"] == 30720
    assert rep["top"][0]["distance"] == 8


def test_work_counters_in_manifest():
    # messages_enumerated: the distance engine's message levels on both
    # halves, against 7 * 3^10 and 6 * 2^14 for one kernel scan per orbit
    for q, n, pairs, orbits, messages in [("3", "5", 2880, 7, 2440), ("2", "7", 1008, 6, 1806)]:
        for args in (("search", "--top", "1"), ("enumerate", "--distances")):
            manifest = run_json(args[0], "--q", q, "--n", n, *args[1:])["manifest"]
            assert manifest["counters"] == {
                "self_dual_pairs": pairs,
                "codes_scanned": orbits,
                "messages_enumerated": messages,
            }
    assert "counters" not in run_json("enumerate", "--q", "2", "--n", "3")["manifest"]


def test_distance_counts_its_messages():
    # a self-dual code: levels 1 and 2 of 2 * 3 digits on both halves; a pair
    # whose a*a' + b*b' is not a unit, d = 2: levels 1 and 2 on the left half
    sd = run_json("distance", "--q", "2", "--n", "3", "--a", "1,1,0", "--b", "1,1,1")
    assert sd["report"]["d"] == 4
    assert sd["manifest"]["counters"] == {"messages_enumerated": 2 * (6 + 15)}
    left = run_json("distance", "--q", "2", "--n", "3", "--a", "1,1,1", "--b", "0,0,0")
    assert left["report"]["d"] == 2
    assert left["manifest"]["counters"] == {"messages_enumerated": 6 + 15}


ORBIT_POINTS = (
    [("2", n) for n in range(1, 9)]
    + [("3", n) for n in range(1, 6)]
    + [("2^2", n) for n in range(1, 5)]
    + [("5", n) for n in (2, 3)]
)


def _cli_output(capsys, *args):
    assert cli.main(list(args)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("q, n", ORBIT_POINTS)
def test_orbit_reports_equal_all_pairs_reports(q, n, capsys):
    # search and enumerate --distances scan one code per orbit; their reports
    # must equal, byte for byte, the reports built from one scan per pair
    field = Field(*cli.parse_q(q))
    ring = QuotientRing(field, n)
    pairs, dists = all_pairs_distances(field, n)
    rows = [
        {"a": list(ring.element(ai)), "b": list(ring.element(bi)), "distance": d}
        for (ai, bi), d in zip(pairs, dists)
    ]
    search = {
        "q": field.q,
        "n": n,
        "total_self_dual": len(pairs),
        "top": sorted(rows, key=lambda r: (-r["distance"], r["a"], r["b"])),
    }
    enum = {
        "q": field.q,
        "n": n,
        "pair_count": len(pairs),
        "formula_count": self_dual_count_formula(field, n),
        "distinct_code_count": len(pairs),
        "pairs": [[r["a"], r["b"]] for r in rows],
        "pair_distances": dists,
        "distance_histogram": [list(item) for item in sorted(Counter(dists).items())],
    }
    for command, body, extra in [
        ("search", search, ["--top", str(len(pairs))]),
        ("enumerate", enum, ["--distances"]),
    ]:
        for fmt in ("json", "text", "csv"):
            out = _cli_output(capsys, command, "--q", q, "--n", str(n), *extra, "--format", fmt)
            if fmt == "json":
                got, want = json.dumps(json.loads(out)["report"], indent=2), json.dumps(body, indent=2)
            else:
                got, want = out, nested_render({"report": body}, fmt, command)
            assert got == want, (command, fmt)


@pytest.mark.parametrize("q, n", [("2", 7), ("3", 5)])
def test_search_top_equals_the_full_ranking(q, n, capsys):
    # search ranks only the pairs as far as the top-th largest distance; its
    # rows must be the first rows of the full ranking, for cuts inside a run
    # of equal distances, --top 0 and --top above the number of pairs
    field = Field(*cli.parse_q(q))
    ring = QuotientRing(field, n)
    pairs, dists = all_pairs_distances(field, n)
    ranking = sorted(
        ({"a": list(ring.element(ai)), "b": list(ring.element(bi)), "distance": d}
         for (ai, bi), d in zip(pairs, dists)),
        key=lambda r: (-r["distance"], r["a"], r["b"]),
    )
    tops = [0, 1, 2, 5, 40, len(pairs) - 1, len(pairs), len(pairs) + 7]
    assert any(0 < t < len(pairs) and ranking[t - 1]["distance"] == ranking[t]["distance"] for t in tops)
    for top in tops:
        out = _cli_output(capsys, "search", "--q", q, "--n", str(n), "--top", str(top))
        assert json.loads(out)["report"]["top"] == ranking[:top], top


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--q", "3", "--n", "5", "--top", "10"],
        ["search", "--q", "2", "--n", "9", "--top", "20"],
        ["enumerate", "--q", "2", "--n", "7", "--distances"],
    ],
)
def test_reports_equal_with_fixed_point_orbit_labels(args, capsys, monkeypatch):
    # the closed-form orbit labels against the fixed-point iteration: text
    # and csv output byte for byte, json apart from the manifest's wall time
    outputs, oracle_calls = {}, []

    def oracle(*call):
        oracle_calls.append(call)
        return code_orbits_fixed_point(*call)

    for labeler in (census.code_orbits, oracle):
        monkeypatch.setattr(census, "code_orbits", labeler)
        for fmt in ("json", "text", "csv"):
            outputs.setdefault(fmt, []).append(_cli_output(capsys, *args, "--format", fmt))
    assert len(oracle_calls) == 3
    assert len(set(outputs["text"])) == len(set(outputs["csv"])) == 1
    payloads = [json.loads(out) for out in outputs["json"]]
    for payload in payloads:
        payload["manifest"].pop("wall_time_s")
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("q, n", [("2", 3), ("3", 5), ("2^2", 4), ("7", 3)])
def test_enumerate_writer_matches_nested_render(q, n, capsys, tmp_path):
    # the streamed pair writer against whole-text rendering of nested lists
    field = Field(*cli.parse_q(q))
    ring = QuotientRing(field, n)
    pairs = enumerate_self_dual(field, n).pairs.tolist()
    nested = [[list(ring.element(a)), list(ring.element(b))] for a, b in pairs]
    for extra in ([], ["--distances"]):
        payload = json.loads(_cli_output(capsys, "enumerate", "--q", q, "--n", str(n), *extra))
        assert payload["report"]["pair_count"] == len(nested)
        payload["report"]["pairs"] = nested
        for fmt in ("json", "text", "csv"):
            out = tmp_path / f"report.{fmt}"
            args = ["enumerate", "--q", q, "--n", str(n), *extra, "--format", fmt, "--output", str(out)]
            got = _cli_output(capsys, *args)
            if fmt == "json":  # only the manifest's wall time differs between runs
                payload["manifest"] = json.loads(got)["manifest"]
            assert got == nested_render(payload, fmt, "enumerate"), (extra, fmt)
            assert out.read_text(encoding="utf-8") == got, (extra, fmt)


def test_writer_on_no_pairs():
    ring = QuotientRing(Field(3), 2)
    body = {"q": 3, "n": 2, "pair_count": 0, "pairs": cli.PairRows(np.empty((0, 2), np.int64),
                                                                   ring.tables().coeffs)}
    nested = {**body, "pairs": []}
    for fmt in ("json", "text", "csv"):
        buf = io.StringIO()
        cli.render({"schema": "s", "report": body}, fmt, "enumerate", buf.write)
        assert buf.getvalue() == nested_render({"schema": "s", "report": nested}, fmt, "enumerate")
        if fmt == "json":
            assert '"pairs": []' in buf.getvalue()


class _Sink:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, chunk):
        self.size += len(chunk)


def test_enumerate_streams_in_bounded_memory(monkeypatch):
    # the (2, 11) report is 22.4 MB of JSON; a writer that holds the whole
    # text or nested pair lists at once peaks above half of it
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert cli.main(["enumerate", "--q", "2", "--n", "11"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 22_000_000
    assert peak < sink.size / 2, (peak, sink.size)


def test_output_open_failure_exits_2(monkeypatch, tmp_path, capsys):
    # the directory checked at parse time is gone when the file is opened
    monkeypatch.setattr(cli, "_output_problem", lambda path: None)
    target = tmp_path / "gone" / "report.json"
    assert cli.main(["enumerate", "--q", "2", "--n", "3", "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert "cannot write --output" in err
    assert out == ""  # the file is opened before the first chunk
    assert not target.exists()


def test_reader_closing_stdout_early(tmp_path):
    # | head: the reader goes away after a few bytes of a 22.4 MB report
    out = tmp_path / "report.json"
    for extra in ([], ["--output", str(out)]):
        with subprocess.Popen(CLI + ["enumerate", "--q", "2", "--n", "11", *extra],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
            assert proc.stdout.read(100).startswith(b"{")
            proc.stdout.close()
            code = proc.wait(timeout=300)  # stderr holds a traceback at most
            err = proc.stderr.read().decode()
        assert code == 0, err
        assert "Traceback" not in err
    assert json.loads(out.read_text(encoding="utf-8"))["report"]["pair_count"] == 65472


def test_cap_env_override():
    proc = subprocess.run(
        CLI + ["enumerate", "--q", "2", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(FOURCIRC_CAP="10"),
    )
    assert proc.returncode == 3, proc.stderr
    assert "cap" in proc.stderr


def run_traced(tmp_path, cli=None, lib=None):
    """Run one job under perfbench/traced.py, a CLI argv or a
    perfbench/jobs.py spec; return its stdout and trace."""
    trace = tmp_path / "trace.json"
    job = {"id": "t", "cli": cli} if lib is None else {"id": "t", "lib": lib}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), json.dumps(job)],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), json.loads(trace.read_text())


def test_tracer_runs(tmp_path):
    # perfbench/traced.py wraps fourcirc functions and methods by name
    # (Field.add, Embedding.__init__, QuotientRing.mul, RingTables.__init__,
    # ...), so renaming one fails here as well as in the traced benchmark
    payload, data = run_traced(tmp_path, ["crt", "--q", "2^2", "--n", "5", "--a", "1,1", "--b", "0,1"])
    assert payload["schema"] == "fourcirc/crt/v2"
    assert data["job"] == "t"
    assert data["leaves"]["fields.mul"][0] > 0


def test_search_builds_ring_tables_once(tmp_path):
    # search and enumerate --distances build one set of tables, which the
    # sweep, the orbits and the distance scans share, and scan one code per
    # orbit: the 2880 self-dual pairs at (3, 5) fall into 7 orbits of
    # equivalent codes
    for argv in (["search", "--q", "3", "--n", "5", "--top", "5"],
                 ["enumerate", "--q", "3", "--n", "5", "--distances"]):
        payload, data = run_traced(tmp_path, argv)
        counters = {"self_dual_pairs": 2880, "codes_scanned": 7, "messages_enumerated": 2440}
        assert payload["manifest"]["counters"] == counters, argv
        assert [s[0] for s in data["spans"]].count("polyring.tables") == 1, argv
        assert data["counters"]["codes_ranked"] == 7, argv


def test_traced_benchmark_hooks_see_the_distance_engine(tmp_path):
    # perfbench/traced.py times the distance workload through the spans
    # codes.min_distance and census.code_distances, which it binds by name;
    # a rename or a call path around them fails the traced benchmark's check
    a, b = "0,0,1,0,1,0,1,0,1,0", "1,1,1,1,0,0,0,0,0,1"  # self-dual at (2, 10)
    for argv, span in (
        (["distance", "--q", "2", "--n", "10", "--a", a, "--b", b], "codes.min_distance"),
        (["search", "--q", "3", "--n", "5", "--top", "5"], "census.code_distances"),
    ):
        payload, data = run_traced(tmp_path, argv)
        assert payload["report"], argv
        assert span in [s[0] for s in data["spans"]], argv


def traced_layers(tmp_path, jobs) -> set:
    """Names of the spans and leaves that record calls over the given jobs."""
    called = set()
    for job in jobs:
        _, data = run_traced(tmp_path, **job)
        called |= {span[0] for span in data["spans"]}
        called |= {name for name, (calls, _) in data["leaves"].items() if calls}
    return called


def test_traced_distance_workload_covers_expected_layers(tmp_path):
    # the distance workload's job kinds, with --workers 2 as it passes them;
    # a refactor that stops calling a layer the benchmark expects there
    # (polyring.tables, say) would make the traced benchmark report correct: false
    expected = json.loads((ROOT / "perfbench" / "coverage.json").read_text())["expected_calls"]["distance"]
    jobs = [
        {"cli": ["distance", "--q", "2", "--n", "10", "--a", "1,1,0,1", "--b", "0,1,1,0,0,1", "--workers", "2"]},
        {"cli": ["search", "--q", "3", "--n", "5", "--top", "5", "--workers", "2"]},
    ]
    assert sorted(set(expected) - traced_layers(tmp_path, jobs)) == []


def test_traced_sweep_workload_covers_expected_layers(tmp_path):
    # one job of each kind the sweep workload runs; a refactor that stops
    # calling a layer the benchmark expects there (polyring.ring_mul, say)
    # would make the traced benchmark report correct: false
    expected = json.loads((ROOT / "perfbench" / "coverage.json").read_text())["expected_calls"]["sweep"]
    # a codeword of C_{1,1} over F_3 whose message does not pin (a, b), so
    # the census builds no code of its own: 81 pairs, 27 of them self-dual
    word = [1, 1, 1, 1, 1, 1, 0, 0, 0, 2, 2, 2]
    jobs = [
        {"cli": ["enumerate", "--q", "3", "--n", "3", "--workers", "1"]},
        {"lib": {"op": "membership_census", "p": 3, "k": 1, "n": 3, "word": word}},
        {"lib": {"op": "membership_sweep", "p": 2, "k": 1, "n": 2, "words": [[1, 0, 0, 1, 1, 1, 0, 1]]}},
    ]
    assert sorted(set(expected) - traced_layers(tmp_path, jobs)) == []


def test_traced_extension_workload_covers_expected_layers(tmp_path):
    # the extension workload's job kinds: CRT round trips no longer call
    # Field.add or Field.mul per coefficient, so those leaves must still be
    # reached by the other jobs, or the traced benchmark reports correct: false
    expected = json.loads((ROOT / "perfbench" / "coverage.json").read_text())["expected_calls"]["extension"]
    jobs = [
        {"lib": {"op": "crt_round_trips", "p": 2, "k": 2, "n": 5, "pairs": [[[1, 2, 3, 0, 1], [0, 3, 3, 2, 1]]]}},
        {"lib": {"op": "crt_round_trips", "p": 2, "k": 1, "n": 23, "pairs": [[[1, 0, 1] * 7 + [1, 1], [0, 1] * 11 + [1]]]}},
        {"cli": ["counts", "--lemma", "4.2", "--q", "2^5"]},
        {"cli": ["distance", "--q", "2^2", "--n", "4", "--a", "1,2", "--b", "0,1,1", "--workers", "1"]},
        {"cli": ["enumerate", "--q", "2^2", "--n", "4", "--workers", "1"]},
    ]
    assert sorted(set(expected) - traced_layers(tmp_path, jobs)) == []


def test_extension_field_cli():
    rep = run_json("factor", "--q", "2^2", "--n", "3")["report"]
    # over F_4 the length-3 factorization splits into linear factors
    assert all(len(f) == 2 for f in rep["self_reciprocal"]) or rep["pairs"]


def test_modulus_flag():
    rep = run_json(
        "counts", "--lemma", "4.1", "--q", "3^2", "--modulus", "1,0,1"
    )["report"]
    assert (rep["brute_force"], rep["formula"]) == (8, 8)
    run_cli("counts", "--lemma", "4.1", "--q", "3^2", "--modulus", "0,0,1", expect=2)


def _body_bytes(stdout: str) -> bytes:
    return json.dumps(json.loads(stdout)["report"], sort_keys=True).encode()


def test_worker_determinism_small():
    one = run_cli("enumerate", "--q", "2", "--n", "5", "--workers", "1")
    eight = run_cli("enumerate", "--q", "2", "--n", "5", "--workers", "8")
    assert _body_bytes(one.stdout) == _body_bytes(eight.stdout)
