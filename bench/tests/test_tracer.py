"""Self-time arithmetic, the tracer's node tree, and a traced smoke run at the
smallest sizes."""

import itertools
import json
from pathlib import Path

import run
import tracer


def test_self_times_on_a_synthetic_span_tree():
    nodes = [
        {"id": 0, "name": "cli", "parent": -1, "calls": 1, "total_s": 10.0},
        {"id": 1, "name": "lattice.build_poset", "parent": 0, "calls": 1, "total_s": 6.0},
        {"id": 2, "name": "wpartition.validate", "parent": 1, "calls": 40, "total_s": 2.5},
        {"id": 3, "name": "lattice.admissible_covers", "parent": 1, "calls": 8, "total_s": 1.5},
        {"id": 4, "name": "wpartition.validate", "parent": 3, "calls": 8, "total_s": 0.5},
        {"id": 5, "name": "lattice.render", "parent": 0, "calls": 1, "total_s": 1.0},
    ]
    assert tracer.self_times(nodes) == [3.0, 2.0, 2.5, 1.0, 0.5, 1.0]
    metrics = tracer.request_metrics({"nodes": nodes, "counters": [
        {"node": 1, "name": "lattice.covers", "value": 7}]})
    assert metrics["cli.self_s"] == 3.0
    assert metrics["wpartition.validate.self_s"] == 3.0
    assert metrics["wpartition.validate.calls"] == 48
    assert metrics["lattice.admissible_covers.calls"] == 8
    assert metrics["lattice.render.self_s"] == 1.0
    assert metrics["lattice.covers"] == 7


def test_lbt_checks_count_only_under_enumerate_lbt():
    nodes = [
        {"id": 0, "name": "cli", "parent": -1, "calls": 1, "total_s": 4.0},
        {"id": 1, "name": "chains.enumerate_lbt", "parent": 0, "calls": 1, "total_s": 2.0},
        {"id": 2, "name": "chains.lbt_check", "parent": 1, "calls": 30, "total_s": 1.0},
        {"id": 3, "name": "chains.lbt_check", "parent": 0, "calls": 5, "total_s": 0.5},
        {"id": 4, "name": "chains.apply_chain", "parent": 3, "calls": 5, "total_s": 0.25},
    ]
    metrics = tracer.request_metrics({"nodes": nodes, "counters": []})
    assert metrics["chains.lbt_check.calls"] == 30
    assert metrics["chains.apply_chain.calls"] == 5
    assert metrics["chains.round_trips.self_s"] == 1.0 + 0.25 + 0.25


def test_tracer_nests_spans_and_folds_hot_calls():
    ticks = itertools.count()
    t = tracer.Tracer("r1", clock=lambda: float(next(ticks)))
    validate = t.timed(lambda x: t.count("lattice.covers") or x, "wpartition.validate", hot=True)
    build = t.timed(lambda n: [validate(i) for i in range(n)], "lattice.build_poset", hot=False)
    recurse = t.timed(lambda n: 0 if n == 0 else recurse(n - 1), "stirling.recurrence", hot=False)
    main = t.timed(lambda: (build(3), build(2), recurse(3)), "cli", hot=False)
    main()
    assert [(n[0], n[1], n[2]) for n in t.nodes] == [
        ("cli", -1, 1),
        ("lattice.build_poset", 0, 1), ("wpartition.validate", 1, 3),
        ("lattice.build_poset", 0, 1), ("wpartition.validate", 3, 2),
        ("stirling.recurrence", 0, 1),   # the recursion is one node
    ]
    trace = t.to_json()
    assert sum(tracer.self_times(trace["nodes"])) == trace["nodes"][0]["total_s"]
    assert {(c["node"], c["value"]) for c in trace["counters"]} == {(2, 3), (4, 2)}
    span = trace["nodes"][1]
    assert span["start_s"] is not None and span["end_s"] > span["start_s"]
    assert trace["nodes"][2]["start_s"] is None       # an aggregate node


SMOKE = [
    "verify --suite el --n 3 --k 2", "verify --suite structure --n 3 --k 2",
    "verify --suite bijections --n 3 --k 2", "trees --n 3 --k 2 --format dot",
    "mobius --method all --n 3 --k 2", "charpoly --n 3 --k 2", "hasse --n 3 --k 2",
    "chains --filter decreasing --n 3 --k 2", "count --n 3 --k 2",
    "table --kind T --n-max 6 --k 2", "table --kind t --n-max 6 --k 2",
    "series --which exp --k 2 --order 5",
]


def test_traced_smoke_run_repeats_its_counts():
    requests = [line.split() for line in SMOKE]
    runs = []
    for seed in (1, 2):
        passes = run.run_passes(requests, seed, 0, trace=True)
        assert [p.traced for p in passes] == [False, True]
        assert all(ok for p in passes for ok, _, _ in p.verdicts)
        assert run.nondeterministic(passes) == []
        metrics, unsteady = run.layer_metrics(passes)
        assert unsteady == []
        assert list(metrics) == list(tracer.LAYER_METRICS)
        runs.append(metrics)
    counts = [{m: v for m, v in r.items() if tracer.LAYER_METRICS[m] != "s"} for r in runs]
    assert counts[0] == counts[1]
    # verify bijections and trees each enumerate the |mu(3,2)| = 3 trees
    assert counts[0]["chains.trees"] == 3 * 2
    # verify bijections, mobius via chains and the chains listing each walk 3
    assert counts[0]["lattice.decreasing_chains.yielded"] == 3 * 3
    assert counts[0]["lattice.intervals"] > 0
    assert counts[0]["wpartition.validate.calls"] > 0


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS
