import json
import subprocess
import sys
from collections import Counter

import pytest

from fourcirc import cli
from fourcirc.census import self_dual_count_formula
from fourcirc.fields import Field
from fourcirc.polyring import QuotientRing

from helpers import ROOT, child_env
from oracles import all_pairs_distances

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
    rep = run_json("factor", "--q", "3", "--n", "7")["report"]
    degrees = sorted(len(f) - 1 for f in rep["self_reciprocal"]) + [
        len(h) - 1 for pair in rep["pairs"] for h in pair
    ]
    assert degrees == [1, 6]
    assert rep["alpha"] == 1
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


def test_crt_snapshot():
    rep = run_json("crt", "--q", "2", "--n", "3", "--a", "0,1,0", "--b", "0,0,0")["report"]
    kinds = [c["kind"] for c in rep["constituents"]]
    assert kinds == ["self_reciprocal", "self_reciprocal"]
    assert all(c["hermitian_self_dual"] for c in rep["constituents"])
    assert rep["constituents"][1]["field"] == "2^2"


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
    for q, n, pairs, orbits in [("3", "5", 2880, 7), ("2", "7", 1008, 6)]:
        for args in (("search", "--top", "1"), ("enumerate", "--distances")):
            manifest = run_json(args[0], "--q", q, "--n", n, *args[1:])["manifest"]
            assert manifest["counters"] == {"self_dual_pairs": pairs, "codes_scanned": orbits}
    assert "counters" not in run_json("enumerate", "--q", "2", "--n", "3")["manifest"]


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
                got, want = out, cli.render({"report": body}, fmt, command)
            assert got == want, (command, fmt)


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


def run_traced(tmp_path, cli):
    """Run one CLI job under perfbench/traced.py; return its stdout and trace."""
    trace = tmp_path / "trace.json"
    job = {"id": "t", "cli": cli}
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
    assert payload["schema"] == "fourcirc/crt/v1"
    assert data["job"] == "t"
    assert data["leaves"]["fields.mul"][0] > 0


def test_search_builds_ring_tables_once(tmp_path):
    # search builds one set of tables and scans one code per orbit: the
    # 2880 self-dual pairs at (3, 5) fall into 7 orbits of equivalent codes
    payload, data = run_traced(tmp_path, ["search", "--q", "3", "--n", "5", "--top", "5"])
    assert payload["report"]["total_self_dual"] == 2880
    assert [s[0] for s in data["spans"]].count("polyring.tables") == 1
    assert data["counters"]["codes_ranked"] == 7


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
