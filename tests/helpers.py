"""Shared helpers for tests: starting fourcirc in a child process, and
sizing the ring tables."""

import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def child_env(**extra: str) -> dict:
    """This environment with the checkout's src first on PYTHONPATH, so a
    child process imports fourcirc from the checkout, installed or not."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def largest_table(t) -> int:
    """The most entries any array of a RingTables holds, the ones built on
    first use included."""
    arrays = []
    for value in vars(t).values():
        arrays.extend(value if isinstance(value, (tuple, list)) else [value])
    return max(a.size for a in arrays if isinstance(a, np.ndarray))
