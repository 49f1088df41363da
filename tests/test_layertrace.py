"""The benchmark's tracer looks up every traced function by name when it is
built, so renaming or deleting one of them breaks every traced benchmark run.
Building one here makes that a test failure."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer()  # AttributeError when a TARGETS name is gone
    assert len(tracer._originals) == len(layertrace.TARGETS)
