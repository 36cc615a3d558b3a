"""Run the CLI subprocesses of the suite against the same source tree as the
tests, so a bare `python -m pytest` works from a checkout without installing."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
