"""Test session set-up: the CLI tests start ``python -m diskabc`` in
subprocesses, which see ``src`` only through ``PYTHONPATH``; ``pythonpath``
in ``pyproject.toml`` covers the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
