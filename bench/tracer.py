"""Per-layer tracing for the benchmark, applied from outside the program.

Run as ``python bench/tracer.py OUT REQUEST_ID -- <wplat arguments>``: it
imports ``wplat``, wraps the public functions of its six modules with span
and counter recorders, calls ``wplat.cli.main`` with the arguments, writes
the trace of that one request to the JSON file OUT and exits with the
request's exit code.  Standard output is the program's own, byte for byte.

A trace is a tree of nodes.  A call to a wrapped function opens a *span*
node (name, start, end, parent, request id), except for per-element hot
functions, and everything called beneath one: those calls are folded into
one *aggregate* node per (parent node, name) that keeps a call count and a
total time.  A call whose nearest traced caller has the same name (a
recursion, or two routes of one group) is not recorded apart.  Self time
of a node is its total time minus the total time of its child nodes.
Counters are attached to the node that is open when they are bumped.
Nodes and counters stay in memory until the request ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, node name, hot).  A function is wrapped wherever a
# module of the package holds it, so names imported with ``from ... import``
# are covered too.  ``Poset.leq`` is not wrapped: it runs millions of times.
TIMED = [
    ("stirling", "T_def", "stirling.T_def", False),
    ("stirling", "t_def", "stirling.t_def", False),
    ("stirling", "T_rec_split", "stirling.recurrence", False),
    ("stirling", "t_rec_split", "stirling.recurrence", False),
    ("series", "exp_k_xy", "series", False),
    ("series", "log_k_xy", "series", False),
    ("wpartition", "enumerate_all", "wpartition.enumerate_all", False),
    ("wpartition", "validate", "wpartition.validate", True),
    ("wpartition", "one_line_print", "wpartition.one_line_print", True),
    ("wpartition", "to_rooted_tree", "wpartition.round_trips", True),
    ("wpartition", "from_rooted_tree", "wpartition.round_trips", True),
    ("wpartition", "edge_set", "wpartition.round_trips", True),
    ("wpartition", "edge_set_inverse", "wpartition.round_trips", True),
    ("wpartition", "one_line_parse", "wpartition.round_trips", True),
    ("lattice", "build_poset", "lattice.build_poset", False),
    ("lattice", "admissible_covers", "lattice.admissible_covers", True),
    ("lattice", "Poset.verify_el", "lattice.verify_el", False),
    ("lattice", "structural_checks", "lattice.structural_checks", False),
    ("lattice", "paper_join", "lattice.paper_bounds", True),
    ("lattice", "paper_meet", "lattice.paper_bounds", True),
    ("lattice", "Poset.mobius_from_bottom", "lattice.mobius", False),
    ("lattice", "Poset.mobius_recursive", "lattice.mobius", False),
    ("lattice", "Poset.mobius_via_chains", "lattice.mobius", False),
    ("lattice", "mobius_closed_form", "lattice.mobius", False),
    ("lattice", "hasse_dot", "lattice.render", False),
    ("lattice", "char_poly_summation", "lattice.char_poly_summation", False),
    ("chains", "enumerate_lbt", "chains.enumerate_lbt", False),
    ("chains", "lbt_check", "chains.lbt_check", True),
    ("chains", "lbt_to_chain", "chains.round_trips", True),
    ("chains", "chain_to_lbt", "chains.round_trips", True),
    ("chains", "apply_chain", "chains.apply_chain", True),
]
# Functions only counted, never timed: their time stays in the caller.
COUNTED = [("stirling", "stirling2", "stirling.stirling2.calls")]
# Generator methods whose yielded items are counted.
YIELDS = [
    ("lattice", "Poset.maximal_chains", "lattice.maximal_chains.yielded"),
    ("lattice", "Poset.decreasing_chains", "lattice.decreasing_chains.yielded"),
]
MODULES = ("stirling", "series", "wpartition", "lattice", "chains", "cli")


class Tracer:
    """Records the node tree and counters of one request."""

    def __init__(self, request_id: str, clock=time.perf_counter):
        self.request_id = request_id
        self.clock = clock
        self.origin = clock()
        # node: [name, parent, calls, total_s, start_s, end_s]; an aggregate
        # node has start_s None
        self.nodes: list[list] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self._aggregates: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []
        self.deferred: list = []
        self.posets: dict[str, dict] = {}

    def count(self, name: str, amount: int = 1, node: int | None = None) -> None:
        if node is None:
            node = self._stack[-1] if self._stack else -1
        self.counters[(node, name)] += amount

    def timed(self, fn, name: str, hot: bool, on_result=None):
        nodes, stack, aggregates, clock = self.nodes, self._stack, self._aggregates, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and nodes[parent][0] == name:
                return fn(*args, **kwargs)
            if hot or (parent >= 0 and nodes[parent][4] is None):
                idx = aggregates.get((parent, name))
                if idx is None:
                    idx = aggregates[(parent, name)] = len(nodes)
                    nodes.append([name, parent, 0, 0.0, None, None])
            else:
                idx = len(nodes)
                nodes.append([name, parent, 0, 0.0, 0.0, 0.0])
            node = nodes[idx]
            node[2] += 1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                node[3] += end - start
                if node[4] is not None:
                    node[4], node[5] = start - self.origin, end - self.origin
            if on_result is not None:
                on_result(self, idx, args, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def yields(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(name)
                yield item

        return wrapper

    def to_json(self) -> dict:
        return {
            "request": self.request_id,
            "nodes": [{"id": i, "name": n[0], "parent": n[1], "calls": n[2],
                       "total_s": n[3], "start_s": n[4], "end_s": n[5]}
                      for i, n in enumerate(self.nodes)],
            "counters": [{"node": node, "name": name, "value": value}
                         for (node, name), value in sorted(self.counters.items())],
            "posets": self.posets,
        }


# -- results turned into counts --------------------------------------------

def _count_len(counter: str):
    def record(tracer: Tracer, node: int, args, result) -> None:
        tracer.count(counter, len(result), node)
    return record


def _poset_built(tracer: Tracer, node: int, args, poset) -> None:
    tracer.count("lattice.covers", len(poset.covers), node)
    tracer.posets[f"{poset.n},{poset.k}"] = {"elements": len(poset), "covers": len(poset.covers)}


def _el_checked(tracer: Tracer, node: int, args, result) -> None:
    # Intervals are counted after the request, outside every span.
    tracer.deferred.append((node, args[0]))


def _structure_checked(tracer: Tracer, node: int, args, checks) -> None:
    tracer.count("lattice.structure.witnesses", sum(len(c["witnesses"]) for c in checks), node)


ON_RESULT = {
    "wpartition.enumerate_all": _count_len("wpartition.elements"),
    "lattice.build_poset": _poset_built,
    "lattice.verify_el": _el_checked,
    "lattice.structural_checks": _structure_checked,
    "chains.enumerate_lbt": _count_len("chains.trees"),
}


def count_intervals(poset) -> int:
    """Pairs x <= y of the poset, by its public order query."""
    size = len(poset)
    return sum(1 for y in range(size) for x in range(size) if poset.leq(x, y))


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every module that holds it."""
    modules = [importlib.import_module(f"wplat.{m}") for m in MODULES]

    def replace(module_name: str, attr: str, make) -> None:
        home = importlib.import_module(f"wplat.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    for module_name, attr, name, hot in TIMED:
        replace(module_name, attr,
                lambda fn, name=name, hot=hot: tracer.timed(fn, name, hot, ON_RESULT.get(name)))
    for module_name, attr, name in COUNTED:
        replace(module_name, attr, lambda fn, name=name: tracer.counted(fn, name))
    for module_name, attr, name in YIELDS:
        replace(module_name, attr, lambda fn, name=name: tracer.yields(fn, name))


def run_traced(argv: list[str], request_id: str) -> tuple[int, dict]:
    """Run one CLI request under the tracer; returns (exit code, trace)."""
    import wplat.cli

    tracer = Tracer(request_id)
    install(tracer)
    main = tracer.timed(wplat.cli.main, "cli", hot=False)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    for node, poset in tracer.deferred:
        tracer.count("lattice.intervals", count_intervals(poset), node)
    return code, tracer.to_json()


# -- from a trace to layer metrics -------------------------------------------

def self_times(nodes: list[dict]) -> list[float]:
    """Self time of every node: its total minus its children's totals."""
    out = [n["total_s"] for n in nodes]
    for n in nodes:
        if n["parent"] >= 0:
            out[n["parent"]] -= n["total_s"]
    return out


def _under(nodes: list[dict], idx: int, name: str) -> bool:
    """True when node idx or one of its ancestors is named ``name``."""
    while idx >= 0:
        if nodes[idx]["name"] == name:
            return True
        idx = nodes[idx]["parent"]
    return False


# Per-layer metrics in report order, with their units.  A ``.self_s`` metric
# sums the self time of the nodes listed in SELF_NODES; a ``.calls`` metric
# the call count of the node named in CALL_NODES; other counts come from
# counters, ratios and the overhead from the run.
LAYER_METRICS = {
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "stirling.T_def.calls": "count", "stirling.T_def.self_s": "s",
    "stirling.t_def.self_s": "s", "stirling.stirling2.calls": "count",
    "stirling.recurrence.self_s": "s",
    "series.self_s": "s",
    "wpartition.enumerate_all.self_s": "s", "wpartition.elements": "count",
    "wpartition.validate.calls": "count", "wpartition.validate.self_s": "s",
    "wpartition.one_line_print.calls": "count", "wpartition.one_line_print.self_s": "s",
    "wpartition.round_trips.self_s": "s",
    "lattice.build_poset.calls": "count", "lattice.build_poset.self_s": "s",
    "lattice.covers": "count",
    "lattice.admissible_covers.calls": "count", "lattice.admissible_covers.self_s": "s",
    "lattice.verify_el.self_s": "s", "lattice.intervals": "count",
    "lattice.maximal_chains.yielded": "count", "lattice.el_chains_per_interval": "ratio",
    "lattice.structural_checks.self_s": "s", "lattice.structure.witnesses": "count",
    "lattice.paper_bounds.calls": "count", "lattice.paper_bounds.self_s": "s",
    "lattice.mobius.self_s": "s", "lattice.decreasing_chains.yielded": "count",
    "lattice.render.self_s": "s", "lattice.char_poly_summation.self_s": "s",
    "chains.enumerate_lbt.self_s": "s", "chains.trees": "count",
    "chains.lbt_check.calls": "count", "chains.lbt_accept_ratio": "ratio",
    "chains.round_trips.self_s": "s", "chains.apply_chain.calls": "count",
    "trace.overhead_s": "s",
}
SELF_NODES = {
    metric: (metric[:-len(".self_s")],) for metric in LAYER_METRICS if metric.endswith(".self_s")
}
SELF_NODES["chains.round_trips.self_s"] = ("chains.lbt_check", "chains.round_trips",
                                          "chains.apply_chain")
CALL_NODES = {
    metric: metric[:-len(".calls")] for metric in LAYER_METRICS
    if metric.endswith(".calls") and metric != "stirling.stirling2.calls"
}


def request_metrics(trace: dict) -> dict[str, float]:
    """Self times and counts of one request's trace.  ``chains.lbt_check.calls``
    counts the calls made by ``enumerate_lbt``; ``lattice.el_chains_yielded``
    (not reported itself) the chains that ``verify_el`` consumed."""
    nodes = trace["nodes"]
    out: dict[str, float] = defaultdict(int)
    self_metric = {name: metric for metric, names in SELF_NODES.items() for name in names}
    call_metric = {name: metric for metric, name in CALL_NODES.items()}
    for node, self_s in zip(nodes, self_times(nodes)):
        name = node["name"]
        if name in self_metric:
            out[self_metric[name]] += self_s
        if name == "chains.lbt_check":
            if _under(nodes, node["id"], "chains.enumerate_lbt"):
                out["chains.lbt_check.calls"] += node["calls"]
        elif name in call_metric:
            out[call_metric[name]] += node["calls"]
    for c in trace["counters"]:
        out[c["name"]] += c["value"]
        if c["name"] == "lattice.maximal_chains.yielded" and _under(nodes, c["node"], "lattice.verify_el"):
            out["lattice.el_chains_yielded"] += c["value"]
    return out


def main() -> int:
    out_path, request_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT REQUEST_ID -- <wplat arguments>")
    code, trace = run_traced(argv, request_id)
    with open(out_path, "w") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
