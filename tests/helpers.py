"""Shared helpers for tests that start fourcirc in a child process."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def child_env(**extra: str) -> dict:
    """This environment with the checkout's src first on PYTHONPATH, so a
    child process imports fourcirc from the checkout, installed or not."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}
