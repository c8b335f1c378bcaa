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


def test_traced_poset_reads_answer():
    # the tracer reads len(poset), len(poset.covers), poset.leq, poset.n and
    # poset.k of each built order
    from wplat import build_poset

    P = build_poset(3, 2)
    assert (P.n, P.k, len(P)) == (3, 2, 13)
    assert len(P.covers) == sum(len(adj) for adj in P.up) == 24
    assert P.leq(P.bottom_idx, P.top_idx) and not P.leq(P.top_idx, P.bottom_idx)
