"""The wplat benchmark: CLI requests in fresh interpreters, checked against
references the benchmark owns.

    python3 bench/run.py --workload verify-order --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

One client runs a closed loop: it starts a request only after the previous
one has exited.  Every request is ``python -m wplat.cli ...`` in a fresh
interpreter, because the program's ``lru_cache`` tables would otherwise stay
warm across requests, which no CLI user sees.  A pass runs the workload's
fixed request list once, in an order drawn from ``--seed``.  Passes repeat
while the next one is expected to end within ``--seconds`` (at least two).

End-to-end times are in *reference seconds*.  On a shared host the speed
of one process drifts by a quarter or more over minutes, so raw times of
the same code spread as widely between runs, however long the runs.
Before every request, and after a request once for every whole
``REFERENCE_EVERY_S`` it took, so that reference runs are spread evenly
over the time requests run, the benchmark runs a fixed pure-Python program
(``reference.py``, of the kind ``REFERENCE_KINDS`` names for the workload,
so that it resembles the workload's own work) in a fresh interpreter.  It
scales the run's times by ``REFERENCE_S`` over the mean time of all the
run's reference runs (their mean CPU time for CPU times).  One reference
run is as noisy as one request, so no single one is used to scale the
request next to it.  ``REFERENCE_S`` is close to each reference program's
wall time on a quiet 2-vCPU Xeon VM, so reference seconds are close to
seconds there.  The report and the run record also give the unscaled
times.

End-to-end metrics (``--trace 0``):

- ``setup_s``: median time of a fresh interpreter that imports
  ``wplat.cli`` and calls ``build_parser()``, after one untimed warm-up
  that compiles the bytecode; one sample before every request of a pass.
- ``pass_s``: median over passes of the summed time of the pass's
  requests, each from process start to exit.  The benchmark's own answer
  checks and reference runs are not counted.
- ``pass_cpu_s``: median over passes of the requests' user + system time.
- ``peak_rss_mb``: the largest resident set of any request, from ``wait4``
  in a small launcher (``launch.py``) that forks each request, so that the
  benchmark's own memory does not leak into the figure.

The report also prints ``failed_ratio``, failed requests over attempted
ones; it is 0 on a healthy program, so it is not a gated metric.  A request
fails if it exits with a code its oracle does not allow, times out, or
prints an answer that differs from the oracle's (``oracles.py``).  The
run is correct when no request failed and every request printed the same
bytes in every pass.

With ``--trace 1`` the passes alternate between untraced and traced
(``tracer.py``) and the run prints the per-layer metrics of the traced
passes: self times are medians over traced passes, in unscaled seconds,
counts must repeat exactly, and ``trace.overhead_s`` is the traced minus
the untraced median ``pass_s``, in reference seconds.  Traced and
untraced passes must print the same bytes.

The last line of standard output is the result object; the line before it
is a JSON record of the run (interpreter, machine, source digest, seed,
requests, per-(n, k) sizes, structure statuses, stdout digests, failures).
The benchmark's own tests: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import tracer  # noqa: E402

ROOT = BENCH_DIR.parent


def _sized(command: str, sizes, *extra: str) -> list[list[str]]:
    return [[command, *extra, "--n", str(n), "--k", str(k)] for n, k in sizes]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, list[list[str]]] = {
    "verify-order": (_sized("verify", [(4, 3), (5, 2), (5, 3)], "--suite", "el")
                     + _sized("verify", [(3, 3), (4, 2), (4, 3)], "--suite", "structure")),
    "bijections": (_sized("verify", [(4, 3), (5, 2), (5, 3)], "--suite", "bijections")
                   + [["trees", "--n", "4", "--k", "3", "--format", "dot"]]),
    "build": (_sized("mobius", [(6, 2), (5, 3)], "--method", "all")
              + _sized("charpoly", [(6, 2), (5, 3)])
              + _sized("hasse", [(6, 2), (5, 3)])
              + _sized("chains", [(6, 2), (5, 3)], "--filter", "decreasing")
              + [["count", "--n", "7", "--k", "2"]]),
    "numbers": [
        ["table", "--kind", "T", "--n-max", "22", "--k", "4"],
        ["table", "--kind", "t", "--n-max", "24", "--k", "4"],
        ["table", "--kind", "T", "--n-max", "24", "--k", "2"],
        ["table", "--kind", "t", "--n-max", "24", "--k", "3"],
        ["table", "--kind", "T", "--n-max", "20", "--k", "3"],
        ["series", "--which", "exp", "--k", "4", "--order", "30"],
        ["series", "--which", "log", "--k", "4", "--order", "30"],
    ],
}

REFERENCE_KINDS = {"verify-order": "objects", "bijections": "objects", "build": "objects",
                   "numbers": "arithmetic"}
REFERENCE_CHECKSUMS = {"objects": b"1177103308991606436", "arithmetic": b"369824537946139685"}
REFERENCE_S = 0.22
REFERENCE_EVERY_S = 2.0
HARD_LIMIT_S = 150.0     # no pass starts, and no request runs, past this
REQUEST_TIMEOUT_S = 60.0
# Set by a caller, these would change what a request does or where the
# interpreter writes: the size guard, a pinned hash seed (left unpinned so
# that hash-order nondeterminism shows), bytecode caching, interactive mode.
DROPPED_ENV = ("WPLAT_GUARD", "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE",
               "PYTHONPYCACHEPREFIX", "PYTHONINSPECT")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# running one process

@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _read_until_exit(proc: subprocess.Popen, report, deadline: float
                     ) -> tuple[bytes, bytes, bytes, bool]:
    """Stdout, stderr and launcher report of ``proc``, read until every
    writer has exited; the process group is killed at ``deadline``."""
    pipes = (proc.stdout, proc.stderr, report)
    chunks: dict[int, list[bytes]] = {pipe.fileno(): [] for pipe in pipes}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in pipes:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not timed_out:
                os.killpg(proc.pid, signal.SIGKILL)
                timed_out = True
            for key, _ in sel.select(None if timed_out else remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    out, err, rep = (b"".join(chunks[pipe.fileno()]) for pipe in pipes)
    return out, err, rep, timed_out


def spawn(cmd: list[str], timeout: float) -> Outcome:
    """Run ``cmd`` through the launcher, in a process group of its own."""
    start = time.perf_counter()
    report_r, report_w = os.pipe()
    with open(report_r, "rb") as report:
        try:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(BENCH_DIR / "launch.py"), str(report_w), *cmd],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, pass_fds=(report_w,), start_new_session=True)
        finally:
            os.close(report_w)
        with proc:
            try:
                out, err, rep, timed_out = _read_until_exit(proc, report, start + timeout)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                raise   # leaving the with block reaps the launcher
    if not rep:         # killed before the command ended
        return Outcome(proc.returncode, out, err, time.perf_counter() - start, 0.0, 0.0, timed_out)
    code, wall, cpu, maxrss_kb = rep.split()
    return Outcome(int(code), out, err, float(wall), float(cpu), int(maxrss_kb) / 1024, timed_out)


SETUP_CODE = "import wplat.cli; wplat.cli.build_parser()"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def setup_run() -> Outcome:
    """A fresh interpreter that imports the CLI and builds its parser."""
    out = spawn([sys.executable, "-c", SETUP_CODE], REQUEST_TIMEOUT_S)
    if out.code != 0:
        raise BenchError(f"cannot import wplat.cli: {out.stderr.decode(errors='replace')}")
    return out


def reference_run(kind: str) -> Outcome:
    out = spawn([sys.executable, str(BENCH_DIR / "reference.py"), kind], REQUEST_TIMEOUT_S)
    if out.code != 0 or out.stdout.strip() != REFERENCE_CHECKSUMS[kind]:
        raise BenchError(f"reference program failed: {out.stderr.decode(errors='replace')}")
    return out


# ---------------------------------------------------------------------------
# passes

@dataclass
class Pass:
    traced: bool
    clock_s: float = 0.0          # elapsed, answer checks included
    argvs: list[list[str]] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    references: list[Outcome] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    verdicts: list[tuple[bool, str, dict]] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)


def reference_scales(passes: list[Pass]) -> tuple[float, float]:
    """Factors that turn the run's wall and CPU seconds into reference seconds."""
    references = [r for p in passes for r in p.references]
    return (REFERENCE_S / statistics.fmean(r.wall_s for r in references),
            REFERENCE_S / statistics.fmean(r.cpu_s for r in references))


def run_pass(requests: list[list[str]], order: list[int], traced: bool, number: int,
             trace_dir: str, hard_deadline: float, setup: bool, reference: str) -> Pass:
    result = Pass(traced)
    start = time.perf_counter()
    for i in order:
        argv = requests[i]
        cmd = [sys.executable, "-m", "wplat.cli", *argv]
        trace_path = os.path.join(trace_dir, f"p{number}r{i}.json")
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), trace_path,
                   f"p{number}r{i}", "--", *argv]
        result.references.append(reference_run(reference))
        if setup:
            result.setup_wall_s.append(setup_run().wall_s)
        timeout = min(REQUEST_TIMEOUT_S, hard_deadline - time.perf_counter())
        outcome = spawn(cmd, max(timeout, 0.0))
        verdict = oracles.check(argv, outcome.code, outcome.stdout)
        if outcome.timed_out:
            verdict = (False, f"timed out after {timeout:.0f} s", {})
        elif not verdict[0] and outcome.stderr.strip():
            last = outcome.stderr.decode(errors="replace").strip().splitlines()[-1]
            verdict = (False, f"{verdict[1]}; stderr: {last}", {})
        if traced and verdict[0]:
            try:
                with open(trace_path) as fh:
                    result.traces.append(json.load(fh))
            except (OSError, json.JSONDecodeError) as exc:
                verdict = (False, f"no trace: {exc}", {})
        result.argvs.append(argv)
        result.outcomes.append(outcome)
        if time.perf_counter() < hard_deadline:
            result.references.extend(reference_run(reference)
                                     for _ in range(int(outcome.wall_s // REFERENCE_EVERY_S)))
        result.verdicts.append(verdict)
    result.clock_s = time.perf_counter() - start
    return result


def run_passes(requests: list[list[str]], seed: int, seconds: float, trace: bool,
               setup: bool = False, reference: str = "objects") -> list[Pass]:
    """Passes until the next one would end past ``seconds``; at least two.
    With tracing, passes alternate untraced / traced.  Untraced passes
    take set-up samples when ``setup`` is set.  ``reference`` is the kind
    of reference program run before each request."""
    rng = random.Random(seed)
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    passes: list[Pass] = []
    run_dir = ROOT / ".benchrun"
    run_dir.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=run_dir) as trace_dir:
            while time.perf_counter() < hard_deadline:
                traced = trace and len(passes) % 2 == 1
                order = rng.sample(range(len(requests)), len(requests))
                passes.append(run_pass(requests, order, traced, len(passes), trace_dir,
                                       hard_deadline, setup and not traced, reference))
                if len(passes) < 2:
                    continue
                next_traced = trace and len(passes) % 2 == 1
                expected = [p.clock_s for p in passes if p.traced == next_traced][-1]
                if time.perf_counter() - start + expected > seconds:
                    break
    finally:
        try:
            run_dir.rmdir()
        except OSError:   # another run is using it
            pass
    return passes


# ---------------------------------------------------------------------------
# metrics and record

def layer_metrics(passes: list[Pass]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced passes, and the counts that did not
    repeat exactly between them."""
    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        totals: dict[str, float] = {}
        for request_trace in p.traces:
            for name, value in tracer.request_metrics(request_trace).items():
                totals[name] = totals.get(name, 0) + value
        totals["cli.output_bytes"] = sum(len(o.stdout) for o in p.outcomes)
        per_pass.append(totals)

    def counted(name: str) -> float:
        values = [t.get(name, 0) for t in per_pass]
        if len(set(values)) > 1:
            unsteady.append(f"{name}: {values}")
        return values[0]

    unsteady: list[str] = []
    out: dict[str, float] = {}
    for name, unit in tracer.LAYER_METRICS.items():
        if name in tracer.SELF_NODES:
            out[name] = statistics.median(t.get(name, 0.0) for t in per_pass)
        elif unit in ("count", "bytes"):
            out[name] = counted(name)
    out["lattice.el_chains_per_interval"] = _ratio(counted("lattice.el_chains_yielded"),
                                                   out["lattice.intervals"])
    out["chains.lbt_accept_ratio"] = _ratio(out["chains.trees"], out["chains.lbt_check.calls"])
    out["trace.overhead_s"] = reference_scales(passes)[0] * (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in passes if not p.traced))
    return {name: out[name] for name in tracer.LAYER_METRICS}, unsteady


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def stdout_digests(passes: list[Pass]) -> dict[str, list[str]]:
    """The sha256 digests each request's stdout had, over all passes."""
    digests: dict[str, set[str]] = {}
    for p in passes:
        for argv, o in zip(p.argvs, p.outcomes):
            digests.setdefault(" ".join(argv), set()).add(hashlib.sha256(o.stdout).hexdigest())
    return {request: sorted(seen) for request, seen in sorted(digests.items())}


def nondeterministic(passes: list[Pass]) -> list[str]:
    """Requests whose stdout differed between passes, traced or not."""
    return [request for request, seen in stdout_digests(passes).items() if len(seen) > 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout's git directory, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _nk(argv: list[str]) -> tuple[int, int] | None:
    if "--n" in argv and "--k" in argv:
        return int(argv[argv.index("--n") + 1]), int(argv[argv.index("--k") + 1])
    return None


def unscaled_times(passes: list[Pass]) -> dict[str, float]:
    """Medians of the raw wall and CPU times, in seconds, behind the metrics
    that are given in reference seconds, and of the reference runs."""
    untraced = [p for p in passes if not p.traced]
    setup = [s for p in untraced for s in p.setup_wall_s]
    out = {"setup_s": statistics.median(setup)} if setup else {}
    out.update({"pass_s": statistics.median(p.wall_s for p in untraced),
                "pass_cpu_s": statistics.median(p.cpu_s for p in untraced),
                "reference_s": statistics.median(r.wall_s for p in passes for r in p.references)})
    return out


def run_record(name: str, seed: int, seconds: float, trace: bool, passes: list[Pass],
               failures: list[str], unsteady: list[str]) -> dict:
    sizes = {}
    structure = {}
    for p in passes:
        for argv, (_, _, info) in zip(p.argvs, p.verdicts):
            nk = _nk(argv)
            if nk is None:
                continue
            entry = sizes.setdefault(f"{nk[0]},{nk[1]}", oracles.sizes(*nk))
            if "covers" in info:
                entry["covers"] = info["covers"]
            if "structure" in info:
                structure[f"{nk[0]},{nk[1]}"] = info["structure"]
        for request_trace in p.traces:
            for key, built in request_trace["posets"].items():
                sizes.setdefault(key, oracles.sizes(*map(int, key.split(","))))["covers"] = built["covers"]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit(), "src_sha256": source_digest(),
        "requests": [" ".join(argv) for argv in WORKLOADS[name]],
        "passes": {"untraced": sum(not p.traced for p in passes),
                   "traced": sum(p.traced for p in passes)},
        "setup_samples": sum(len(p.setup_wall_s) for p in passes),
        "reference": REFERENCE_KINDS[name], "reference_s": REFERENCE_S,
        "unscaled_s": unscaled_times(passes),
        "sizes": dict(sorted(sizes.items())), "structure": dict(sorted(structure.items())),
        "failures": failures[:20], "stdout_sha256": stdout_digests(passes),
        "nondeterministic": nondeterministic(passes),
        "unsteady_counts": unsteady,
    }


def report(name: str, seed: int, trace: bool, passes: list[Pass], metrics: dict[str, float],
           units: dict[str, str], attempted: int, failed: int) -> list[str]:
    untraced = [p for p in passes if not p.traced]
    wall, cpu = reference_scales(passes)
    samples = {"setup_s": ([s * wall for p in untraced for s in p.setup_wall_s], "interpreter starts"),
               "pass_s": ([p.wall_s * wall for p in untraced], "passes"),
               "pass_cpu_s": ([p.cpu_s * cpu for p in untraced], "passes"),
               "peak_rss_mb": ([o.rss_mb for p in untraced for o in p.outcomes], "requests")}
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"passes {len(untraced)} untraced, {len(passes) - len(untraced)} traced  "
             f"requests/pass {len(WORKLOADS[name])}  times in reference seconds",
             f"  {'metric':<36}{'value':>14}  {'unit':<6} {'min':>10} {'max':>10}  samples"]
    for metric, value in metrics.items():
        values, what = samples.get(metric, ([], ""))
        low, high = (f"{min(values):10.4f}", f"{max(values):10.4f}") if values else ("", "")
        count = f"{len(values)} {what}" if values else ""
        lines.append(f"  {metric:<36}{value:>14.6g}  {units[metric]:<6} {low:>10} {high:>10}  {count}")
    lines.append(f"  {'failed_ratio':<36}{failed / attempted:>14.6g}  {'ratio':<6} "
                 f"{'':>10} {'':>10}  {failed} of {attempted} requests")
    for metric, value in unscaled_times(passes).items():
        lines.append(f"  {'unscaled ' + metric:<36}{value:>14.6g}  {'s':<6}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict, dict]:
    """Returns the report lines, the run record and the result object."""
    setup_run()     # compiles the bytecode, so that no timed start does
    passes = run_passes(WORKLOADS[name], seed, seconds, trace, setup=not trace,
                        reference=REFERENCE_KINDS[name])
    failures = [f"{' '.join(argv)}: {detail}" for p in passes
                for argv, (ok, detail, _) in zip(p.argvs, p.verdicts) if not ok]
    attempted = sum(len(p.outcomes) for p in passes)
    untraced = [p for p in passes if not p.traced]
    unsteady: list[str] = []
    if trace:
        values, unsteady = layer_metrics(passes)
        units = tracer.LAYER_METRICS
    else:
        wall, cpu = reference_scales(passes)
        values = {"setup_s": wall * statistics.median(s for p in untraced for s in p.setup_wall_s),
                  "pass_s": wall * statistics.median(p.wall_s for p in untraced),
                  "pass_cpu_s": cpu * statistics.median(p.cpu_s for p in untraced),
                  "peak_rss_mb": max(o.rss_mb for p in untraced for o in p.outcomes)}
        units = END_TO_END_UNITS
    record = run_record(name, seed, seconds, trace, passes, failures, unsteady)
    correct = not failures and not record["nondeterministic"] and not unsteady
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}
    lines = report(name, seed, trace, passes, values, units, attempted, len(failures))
    return lines, record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running request is killed and
    # reaped and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wplat" / "cli.py").is_file():
        print(f"bench: no wplat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            lines, record, results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps({"record": record}))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
