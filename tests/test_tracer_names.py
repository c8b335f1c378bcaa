"""The names the benchmark's tracer wraps must exist in the library: the
tracer looks each one up with ``getattr``, so a rename or a deletion breaks
every traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    entries = tracer.TIMED + tracer.COUNTED + tracer.YIELDS
    assert entries
    missing = []
    for module_name, attr, *_ in entries:
        target = importlib.import_module(f"wplat.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
