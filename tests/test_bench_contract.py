"""The benchmark's tracer self-test as a unit test.

``perfbench/run.py:tracer_selftest`` runs tiny configs under the per-layer
tracer and compares exact call counts of the traced layer functions with
their analytic values.  A program change that moves one of those counts
fails here, in the unit suite, and not only when the benchmark runs.
"""

import importlib
from pathlib import Path

from starkprobe import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_selftest_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    assert run.tracer_selftest(cli) == []
