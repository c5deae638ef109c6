"""CLI tests run `python -m parorb` in child processes; give them this
checkout's src, as pyproject's pytest pythonpath does for the tests."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)
