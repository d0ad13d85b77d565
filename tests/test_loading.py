"""What one CLI call loads: lazy package exports, each subcommand's layers
loaded before the compute timer, and the import heap frozen only when
main is the process entry."""

import gc
import importlib
import json
import subprocess
import sys

import pytest

import fourcirc
from fourcirc import cli

from helpers import child_env

DISTANCE = ["distance", "--q", "2", "--n", "5", "--a", "1,1", "--b", "0,1,1"]


def run_child(args: list, timeout: float = 300) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc


def test_distance_loads_no_census_crt_or_asympt():
    proc = run_child(["-X", "importtime", "-m", "fourcirc", *DISTANCE])
    # lines "import time: self [us] | cumulative | name", the name indented by depth
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert {"fourcirc", "fourcirc.cli", "fourcirc.codes", "fourcirc.polyring"} <= names
    assert not names & {"fourcirc.census", "fourcirc.crt", "fourcirc.asympt"}
    assert json.loads(proc.stdout)["schema"] == "fourcirc/distance/v1"


def test_package_import_loads_no_submodule():
    code = "import sys, fourcirc; print(sorted(m for m in sys.modules if m.startswith('fourcirc')))"
    assert run_child(["-c", code]).stdout.strip() == "['fourcirc']"


def test_every_export_resolves_and_is_listed():
    listed = dir(fourcirc)
    for name in fourcirc.__all__:
        value = getattr(fourcirc, name)
        home = importlib.import_module(f"fourcirc.{fourcirc._EXPORTS[name]}")
        assert value is getattr(home, name), name
        assert name in listed, name
    for module in ("asympt", "census", "cli", "codes", "crt", "fields", "polyring"):
        assert getattr(fourcirc, module) is importlib.import_module(f"fourcirc.{module}")
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        fourcirc.nonexistent


def test_star_import_gives_all():
    space: dict = {}
    exec("from fourcirc import *", space)
    assert set(fourcirc.__all__) <= set(space)


# Runs one command in a fresh process with time.monotonic replaced by a
# probe that records the loaded fourcirc modules at its first call (the
# compute timer's start) and prints them, and the modules at exit, to stderr.
TIMER_PROBE = """
import json, sys, time
from fourcirc import cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("fourcirc"))

clock, at_start = time.monotonic, []

def probe():
    if not at_start:
        at_start.append(loaded())
    return clock()

time.monotonic = probe
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "at_start": at_start[0], "at_exit": loaded()}), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, layer",
    [
        (["search", "--q", "2", "--n", "5", "--top", "2"], "fourcirc.census"),
        (["bound", "--q", "2", "--n", "5"], "fourcirc.asympt"),
        (["crt", "--q", "2", "--n", "3", "--a", "1,1", "--b", "0,1"], "fourcirc.crt"),
        (["artin", "--q", "2", "--limit", "50"], "fourcirc.census"),
    ],
)
def test_layers_load_before_the_timer(argv, layer):
    proc = run_child(["-c", TIMER_PROBE, *argv])
    seen = json.loads(proc.stderr.splitlines()[-1])
    assert seen["code"] == 0
    assert layer in seen["at_start"]
    assert seen["at_exit"] == seen["at_start"]  # nothing loaded while timed


def test_main_with_argv_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert cli.main(DISTANCE) == 0
    assert gc.get_freeze_count() == before
    assert json.loads(capsys.readouterr().out)["schema"] == "fourcirc/distance/v1"


def test_process_entry_freezes_the_import_heap():
    code = ("import gc, sys; from fourcirc import cli; "
            f"sys.argv = ['fourcirc', *{DISTANCE!r}]; "
            "assert gc.get_freeze_count() == 0; cli.main(); print(gc.get_freeze_count(), file=sys.stderr)")
    assert int(run_child(["-c", code]).stderr.split()[-1]) > 0
