"""Command-line front end: every computation and verification as a
reproducible command with text/JSON/CSV/DOT output.

Exit codes: 0 success, 1 a cross-route mismatch (every route comparison
raises :class:`wplat.RouteMismatch`, which :func:`main` alone reports) or a
failing ``verify`` check, 2 size guard or usage error, which includes an
--out file or a standard output that cannot be written.

Run as a process (:func:`run`), a request whose reader closes the pipe
early ends by SIGPIPE, as other Unix filters do, and a request that has its
status ends without interpreter teardown: the ``atexit`` handlers run, then
stdout and stderr are flushed, then ``os._exit`` ends the process.  In-process
callers of :func:`main` keep the interpreter's normal exit.

One table, ``_COMMANDS``, describes the subcommands: handler, help text,
formats, least --n and own options.  :func:`main` reads a plain command
line (a subcommand, then exact ``--flag value`` pairs and ``--force``)
from it with argparse's checks and gets argparse's namespace; argparse is
imported, and its parser built from the same table, only for help, usage
errors and the other forms argparse accepts (``--flag=value``, abbreviated
or repeated flags).

Each command imports the modules it runs when it runs, and ``json`` is
imported only to render JSON, so a request loads no more than it uses:
``table`` and ``series`` never load the poset code, and no plain command
line loads argparse.
"""

from __future__ import annotations

import errno
import os
import sys
from types import SimpleNamespace
from typing import Iterator

from . import GuardExceeded, RouteMismatch, _guard_limit

GUARD_EXIT = 2
FAIL_EXIT = 1
FORCED_GUARD = 10 ** 12


def _emit(args, **formats) -> None:
    """Render only the requested format and write it to --out or stdout.

    Each keyword maps a format name to a zero-argument renderer returning
    either text or an object, which is printed as indented JSON; the text
    goes out through :func:`_write`.
    """
    rendered = formats[args.format]()
    if isinstance(rendered, str):
        text = rendered
    else:
        import json
        text = json.dumps(rendered, indent=2)
    if not text.endswith("\n"):
        text += "\n"
    _write(args.out, lambda write: write(text))


def _write(out: str | None, produce) -> None:
    """Call ``produce(write)`` with the ``write`` method of the file ``out``
    or, when ``out`` is None or empty, of stdout, which is then flushed.  An
    --out file or a stdout that cannot be written, or is closed, is a usage
    error: one line on stderr, exit 2.  A reader that closed the pipe is not:
    its BrokenPipeError propagates."""
    try:
        if out:
            with open(out, "w") as fh:
                produce(fh.write)
        else:
            if sys.stdout is None:  # the process started with stdout closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            produce(sys.stdout.write)
            sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        sys.exit(_cannot_write(f"--out {out}" if out else "standard output", exc))


def _cannot_write(where: str, exc: OSError) -> int:
    print(f"wplat: cannot write {where}: {exc.strerror}", file=sys.stderr)
    return GUARD_EXIT


def _grid(rows, sep: str) -> str:
    return "\n".join(sep.join(map(str, row)) for row in rows)


# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    from . import lattice as lat
    from . import stirling as st
    from . import wpartition as wp

    n, k = args.n, args.k
    lat.check_guard(n, k, args.guard)
    counts = wp._count_by_blocks(n, k)
    rs = [args.r] if args.r is not None else sorted(counts)
    bad = [f"mismatch at r={r}: enumerated {counts.get(r, 0)}, T(n,k,r) {want}"
           for r in rs if counts.get(r, 0) != (want := st.T_def(n, k, r))]
    if bad:
        raise RouteMismatch("\n".join(bad))
    pairs = [(r, counts.get(r, 0)) for r in rs]
    total = sum(c for _, c in pairs)
    total_part = [f"total {total}"] if len(rs) > 1 else []
    _emit(args,
          text=lambda: ", ".join([f"r={r}:{c}" for r, c in pairs] + total_part),
          json=lambda: {"n": n, "k": k, "counts": {str(r): c for r, c in pairs},
                        "total": total},
          csv=lambda: _grid([("r", "count")] + pairs, ","))
    return 0


def _table_rows(kind: str, n_max: int, k: int) -> list[list[int]]:
    """Triangle rows n = 1..n_max, entries r = 1..n, by the definition and
    checked against the series and the split recurrence.  S and s are the
    transforms at k = 1, S(n, r) = T(n, 1, r) and s(n, r) = t(n, 1, r), and
    run the same routes; a mismatch names the kind and k requested."""
    from . import series as ser
    from . import stirling as st

    transform, level = {"S": ("T", 1), "s": ("t", 1)}.get(kind, (kind, k))
    expand, direct, split = {"T": (ser.exp_k_xy, st.T_def, st.T_rec_split),
                             "t": (ser.log_k_xy, st.t_def, st.t_rec_split)}[transform]
    series = expand(level, n_max)
    try:
        coefficients = series.rows_int()
    except ser.SeriesError:  # a non-integral coefficient is a mismatch below
        coefficients = series.rows()
    rows = []
    for n in range(1, n_max + 1):
        row = []
        for r in range(1, n + 1):
            v = direct(n, level, r)
            if (c := coefficients[n][r]) != v:
                raise RouteMismatch(
                    f"route mismatch for {kind}({n},{k},{r}): def {v}, series {c}")
            if (w := split(n, level, r)) != v:
                raise RouteMismatch(
                    f"route mismatch for {kind}({n},{k},{r}): def {v}, split {w}")
            row.append(v)
        rows.append(row)
    return rows


def _check_coefficients(args, levels: int, order: int) -> None:
    """The size guard of the numbers commands: refuse, before any work, a
    request whose ``levels`` series or triangles to order ``order`` hold
    more than the guard's count of coefficients, (order + 1)^2 each."""
    guard = _guard_limit(args.guard)
    if (count := levels * (order + 1) ** 2) > guard:
        raise GuardExceeded(
            f"{args.command} needs about {count} coefficients, over the guard of "
            f"{guard}; raise the guard to proceed")


def cmd_table(args) -> int:
    from . import stirling as st

    _check_coefficients(args, args.k if args.kind in ("T", "t") else 1, args.n_max)
    if args.kind == "bell":
        values = st.bell_row(args.n_max)
        lines, records = [values], enumerate(values)
        doc = {"kind": "bell", "values": values}
    else:
        lines = records = _table_rows(args.kind, args.n_max, args.k)
        doc = {"kind": args.kind, "k": args.k, "rows": lines}
    _emit(args,
          text=lambda: _grid(lines, ", "),
          json=lambda: doc,
          csv=lambda: _grid(records, ","))
    return 0


def cmd_series(args) -> int:
    from . import series as ser

    _check_coefficients(args, args.k, args.order)
    fn = ser.exp_k_xy if args.which == "exp" else ser.log_k_xy
    rows = fn(args.k, args.order).rows_int()
    _emit(args,
          text=lambda: _grid(rows, ", "),
          json=lambda: {"which": args.which, "k": args.k, "order": args.order,
                        "rows": rows},
          csv=lambda: _grid(rows, ","))
    return 0


def cmd_mobius(args) -> int:
    from . import lattice as lat

    n, k = args.n, args.k
    # the guard runs before any route: the build's, or its own for the closed form
    recursive = args.method in ("recursive", "all")  # the recursion holds interval masks
    if args.method == "closed":
        lat.check_guard(n, k, args.guard)
    else:
        poset = lat.build_poset(n, k, guard=args.guard, interval_masks=recursive)
    values = {}
    if args.method in ("closed", "all"):
        values["closed"] = lat.mobius_closed_form(n, k)
    if args.method != "closed":
        if recursive:
            values["recursive"] = poset.mobius_recursive(
                poset.bottom_idx, poset.top_idx)
        if args.method in ("chains", "all"):
            values["chains"] = poset.mobius_via_chains()
    found = dict(values)
    if args.method == "all":  # listing the decreasing chains checks the pass's count
        top = poset.top_idx
        found["listed"] = (-1) ** poset.rank[top] * sum(
            1 for _ in poset.decreasing_chains(poset.bottom_idx, top))
    if len(set(found.values())) > 1:
        raise RouteMismatch(f"mobius methods disagree: {found}")
    _emit(args, text=lambda: "\n".join(f"{m}: {v}" for m, v in sorted(values.items()))
          if args.method == "all" else str(values[args.method]))
    return 0


def _poly_str(coeffs: list[int]) -> str:
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        mono = "" if d == 0 else ("x" if d == 1 else f"x^{d}")
        mag = "" if abs(c) == 1 and d > 0 else str(abs(c))
        text = mag + mono
        if not terms:
            terms.append(("-" if c < 0 else "") + text)
        else:
            terms.append(("-" if c < 0 else "+") + text)
    return "".join(terms) if terms else "0"


def cmd_charpoly(args) -> int:
    from . import lattice as lat

    n, k = args.n, args.k
    poset = lat.build_poset(n, k, guard=args.guard)  # the guard runs before any route
    coeffs = lat.char_poly_product(n, k)
    summed = lat.char_poly_summation(n, k, poset)
    if summed != coeffs:
        raise RouteMismatch(f"characteristic polynomial routes disagree: "
                            f"summation {summed}, product {coeffs}")
    roots = lat.char_poly_roots(n, k)
    factors = "".join("x" if root == 0 else f"(x-{root})" for root in roots)
    text = f"{factors} = {_poly_str(coeffs)}"
    _emit(args,
          text=lambda: text,
          json=lambda: {"n": n, "k": k, "roots": roots, "coefficients": coeffs,
                        "display": text})
    return 0


def cmd_hasse(args) -> int:
    from . import lattice as lat

    poset = lat.build_poset(args.n, args.k, guard=args.guard)
    # hasse_dot writes the text in chunks, so it is never held whole
    _write(args.out, lambda write: lat.hasse_dot(poset, write))
    return 0


def cmd_chains(args) -> int:
    from . import lattice as lat

    poset = lat.build_poset(args.n, args.k, guard=args.guard)
    if args.filter == "all":
        lat.check_guard(args.n, args.k, args.guard, chains=poset.chain_count())
    walk = {"all": poset.maximal_chains, "rising": poset.rising_chains,
            "decreasing": poset.decreasing_chains}[args.filter]
    listing = list(walk(poset.bottom_idx, poset.top_idx))
    # each label's text, rendered once
    label_text = dict(zip(poset.labels, map(str, poset.labels))).__getitem__
    _emit(args,
          text=lambda: "\n".join([" ".join(map(label_text, c)) for c in listing]
                                 + [f"total {len(listing)}"]),
          json=lambda: {"n": args.n, "k": args.k, "filter": args.filter,
                        "count": len(listing),
                        "chains": [list(map(label_text, c)) for c in listing]})
    return 0


def _lbt_dot_lines(trees: list) -> Iterator[str]:
    """The lines of the trees' DOT text, each with its newline: one cluster
    per tree, its nodes named and listed in pre-order."""
    yield "digraph trees {\n"
    yield "  node [shape=circle];\n"
    for t_idx, tree in enumerate(trees):
        yield f"  subgraph cluster_{t_idx} {{\n"
        stack = [(tree, "")]
        count = 0
        while stack:
            node, parent_name = stack.pop()
            name = f"t{t_idx}n{count}"
            count += 1
            label = "*" if node.value is None else f"{node.value}_{node.sub}"
            yield f'  {name} [label="{label}"];\n'
            if parent_name:
                yield f"  {parent_name} -> {name};\n"
            if not node.is_leaf:
                stack += ((node.right, name), (node.left, name))
        yield "  }\n"
    yield "}\n"


def _lbt_text_lines(trees: list) -> Iterator[str]:
    """The lines of the trees' text: each tree's nested form as JSON, then
    the total."""
    import json
    for t in trees:
        yield json.dumps(t.to_nested()) + "\n"
    yield f"total {len(trees)}\n"


def _nested_json(node, pad: str) -> str:
    """``json.dumps(node.to_nested(), indent=2)`` for a tree node whose
    leaves carry integers, with every line but the first indented by
    ``pad`` more, written directly: the standard library encodes an
    indented text in pure Python.  Only the root's label is None."""
    inner = pad + "  "
    if node.is_leaf:
        return f"[\n{inner}{node.value},\n{inner}{node.sub}\n{pad}]"
    label = "null" if node.value is None else \
        f"[\n{inner}  {node.value},\n{inner}  {node.sub}\n{inner}]"
    return (f"[\n{inner}{label},\n{inner}{_nested_json(node.left, inner)},\n"
            f"{inner}{_nested_json(node.right, inner)}\n{pad}]")


def _lbt_json_lines(n: int, k: int, trees: list) -> Iterator[str]:
    """The lines of the indented JSON object {n, k, count, trees}, each tree
    its nested form, as ``json.dumps(..., indent=2)`` prints the whole."""
    yield from ("{\n", f'  "n": {n},\n', f'  "k": {k},\n', f'  "count": {len(trees)},\n',
                '  "trees": [\n')
    last = len(trees) - 1
    for i, t in enumerate(trees):
        text = f"    {_nested_json(t, '    ')}{',' if i < last else ''}\n"
        yield from text.splitlines(keepends=True)
    yield from ("  ]\n", "}\n")


def cmd_trees(args) -> int:
    from . import chains as ch
    from . import lattice as lat

    lat.check_guard(args.n, args.k, args.guard)
    trees = ch.enumerate_lbt(args.n, args.k)
    # written in chunks, so the whole text is never held
    if args.format == "json":
        lines = _lbt_json_lines(args.n, args.k, trees)
    else:
        lines = (_lbt_dot_lines if args.format == "dot" else _lbt_text_lines)(trees)
    _write(args.out, lambda write: lat._write_chunks(lines, write))
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _verify_structure(poset) -> list[dict]:
    from . import lattice as lat

    n, k = poset.n, poset.k
    checks = lat.structural_checks(poset)
    expected = k * n * (n - 1) // 2
    got = len(poset.up[poset.bottom_idx])
    checks.append({"check": "atom_count",
                   "status": "pass" if got == expected else "fail",
                   "witnesses": [] if got == expected else
                   [{"expected": expected, "got": got}]})
    return checks


def _verify_bijections(poset) -> list[dict]:
    from . import lattice as lat
    from . import wpartition as wp

    n, k = poset.n, poset.k
    # the chain-tree check runs first, so that the tree generator's memo is
    # gone before the partition round trips decode the elements
    tree_checks = [_chain_tree_check(poset)] if n >= 2 else []

    # each round trip is one pass over the elements that keeps the indices
    # of the elements it fails; the witnesses then list them in element
    # order, and within an element in the order of the routes
    to_tree, from_tree = wp.to_rooted_tree, wp.from_rooted_tree
    to_edges, from_edges = wp.edge_set, wp.edge_set_inverse
    to_name, from_name = wp.one_line_print, wp.one_line_parse
    elements = [pi for pi in poset.elements if pi is not lat.TOP]
    failed = ([i for i, pi in enumerate(elements) if from_tree(to_tree(pi)) != pi],
              [i for i, pi in enumerate(elements) if from_edges(to_edges(pi), n, k) != pi],
              [i for i, pi in enumerate(elements) if from_name(to_name(pi), n, k) != pi])
    routes = ("rooted-tree round trip", "edge-set round trip", "one-line round trip")
    bad = [{"pi": to_name(elements[i]), "issue": routes[r]}
           for i, r in sorted([(i, r) for r, found in enumerate(failed) for i in found])]
    # each inverse refuses an input that no element maps to: a tree with an
    # empty node, a name that holds every element twice, an edge outside [n]
    pi = wp.bottom(n, k)
    name = wp.one_line_print(pi)
    for issue, refuse in (
            ("rooted-tree inverse accepts an empty node",
             lambda: wp.from_rooted_tree(wp.to_rooted_tree(pi) | {frozenset()})),
            ("one-line inverse accepts a repeated element",
             lambda: wp.one_line_parse(f"{name}/{name}", n, k)),
            ("edge-set inverse accepts an edge outside [n]",
             lambda: wp.edge_set_inverse(wp.edge_set(pi) | {(n, n + 1, 1)}, n, k))):
        try:
            refuse()
        except wp.InvalidPartition:
            continue
        bad.append({"pi": name, "issue": issue})
    return [{"check": "partition_round_trips",
             "status": "pass" if not bad else "fail", "witnesses": bad}] + tree_checks


def _chain_tree_check(poset) -> dict:
    """The chain-tree round trips: each maximal decreasing chain from the
    bottom to the top is read as it is produced, mapped to its tree, read
    back and checked, and marks the generated tree it equals; neither the
    chains nor their trees are held.  Equal generated trees share one mark,
    the one of the first, so a tree the generator repeats is an image when
    any copy is."""
    from . import chains as ch
    from . import lattice as lat

    n, k = poset.n, poset.k
    trees = ch.enumerate_lbt(n, k)
    first: dict = {}  # each generated tree to the position of its first copy
    marks = [first.setdefault(tree, i) for i, tree in enumerate(trees)]
    imaged = bytearray(len(trees))
    bad, strays = [], []
    chain_count = stray_count = 0
    for labels in poset.decreasing_chains(poset.bottom_idx, poset.top_idx):
        chain_count += 1
        tree = ch.chain_to_lbt(labels, n, k)
        if ch.lbt_to_chain(tree, k) != labels:
            bad.append({"chain": [str(l) for l in labels],
                        "issue": "chain/tree round trip"})
        elif problem := ch.lbt_check(tree, n, k):
            bad.append({"chain": [str(l) for l in labels],
                        "issue": f"invalid tree: {problem}"})
        i = first.get(tree)
        if i is not None:
            imaged[i] = 1
        else:
            stray_count += 1
            if len(strays) < lat.MAX_WITNESSES:
                strays.append(tree)
    if len(trees) != chain_count:
        bad.append({"issue": "tree count != decreasing chain count",
                    "trees": len(trees), "chains": chain_count})
    unimaged = [tree for tree, i in zip(trees, marks) if not imaged[i]]
    for issue, count, missing in (("chain image not generated", stray_count, strays),
                                  ("generated tree not a chain image", len(unimaged),
                                   unimaged)):
        if count:
            bad.append({"issue": issue, "count": count,
                        "trees": [t.to_nested() for t in missing[:lat.MAX_WITNESSES]]})
    return {"check": "chain_tree_round_trips",
            "status": "pass" if not bad else "fail", "witnesses": bad}


def cmd_verify(args) -> int:
    from . import lattice as lat

    # the structure report reads both closures and the masks of the lower
    # and of the upper covers
    poset = lat.build_poset(args.n, args.k, guard=args.guard,
                            closures=2 if args.suite in ("structure", "all") else 0)
    checks: list[dict] = []
    if args.suite in ("el", "all"):
        checks.append(poset.verify_el())
    if args.suite in ("structure", "all"):
        checks += _verify_structure(poset)
    if args.suite in ("bijections", "all"):
        checks += _verify_bijections(poset)
    _emit(args, json=lambda: {"n": args.n, "k": args.k, "suite": args.suite,
                              "checks": checks})
    return FAIL_EXIT if any(c["status"] == "fail" for c in checks) else 0


# ---------------------------------------------------------------------------
# the command table, read by build_parser and by _read_plain

_REQUIRED = object()  # the default of an option that must be given
_TABLE_FORMATS = ("text", "json", "csv")

# name: (handler, help, formats, n_min, own options).  The first format is
# the default.  An option is (flag, accepts, default): ``accepts`` is an
# integer's lower bound, the tuple of choices, or None for any text.
_COMMANDS = {
    "count": (cmd_count, "per-rank element counts, two routes", _TABLE_FORMATS, 1,
              [("--r", 1, None)]),
    "table": (cmd_table, "number triangles with cross-checks", _TABLE_FORMATS, None,
              [("--kind", ("T", "t", "s", "S", "bell"), _REQUIRED),
               ("--n-max", 0, _REQUIRED), ("--k", 1, 1)]),
    "series": (cmd_series, "iterated exp/log series coefficients", _TABLE_FORMATS, None,
               [("--which", ("exp", "log"), _REQUIRED), ("--k", 1, _REQUIRED),
                ("--order", 0, _REQUIRED)]),
    "mobius": (cmd_mobius, "Möbius function of the lattice", ("text",), 1,
               [("--method", ("recursive", "chains", "closed", "all"), "all")]),
    "charpoly": (cmd_charpoly, "characteristic polynomial", ("text", "json"), 1, []),
    "hasse": (cmd_hasse, "Hasse diagram as DOT", ("dot",), 1, []),
    "chains": (cmd_chains, "maximal chains of the full interval", ("text", "json"), 1,
               [("--filter", ("all", "rising", "decreasing"), "all")]),
    "trees": (cmd_trees, "labeled binary trees", ("json", "dot", "text"), 2, []),
    "verify": (cmd_verify, "verification suites, JSON report", ("json",), 1,
               [("--suite", ("el", "structure", "bijections", "all"), "all")]),
}


def _shared_options(n_min, formats) -> list[tuple]:
    """The options a subcommand lists before --force and its own: --n at
    least ``n_min`` and --k at least 1 unless ``n_min`` is None, --format
    when there is a choice, and --out."""
    options = [] if n_min is None else [("--n", n_min, _REQUIRED), ("--k", 1, _REQUIRED)]
    if len(formats) > 1:
        options.append(("--format", formats, formats[0]))
    return options + [("--out", None, None)]


def _read_plain(argv: list[str]):
    """The namespace ``build_parser().parse_args(argv)`` returns, read from
    ``_COMMANDS`` without argparse when ``argv`` is a plain command line: a
    subcommand, then each of its options at most once, as an exact flag and
    its value or as --force.  A value may not start with "-", an integer is
    ASCII digits at least its bound, a choice is exact, and every required
    option is given.  Any other ``argv`` (help, an error, --flag=value, an
    abbreviated or repeated flag) returns None, for argparse to read."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, formats, n_min, own = _COMMANDS[argv[0]]
    options = {flag: (flag[2:].replace("-", "_"), accepts, default)
               for flag, accepts, default in _shared_options(n_min, formats) + own}
    values = {"command": argv[0], "fn": fn, "format": formats[0], "guard": None}
    values.update((dest, None if default is _REQUIRED else default)
                  for dest, _, default in options.values())
    given = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag in given:
            return None
        given.add(flag)
        if flag == "--force":
            values["guard"] = FORCED_GUARD
            continue
        if flag not in options:
            return None
        dest, accepts, _ = options[flag]
        value = next(tokens, "-")  # a missing value is argparse's to report
        if value.startswith("-"):
            return None
        if isinstance(accepts, int):
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts
                return None
            if value < accepts:
                return None
        elif accepts is not None and value not in accepts:
            return None
        values[dest] = value
    if any(default is _REQUIRED and flag not in given
           for flag, (_, _, default) in options.items()):
        return None
    return SimpleNamespace(**values)


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            import argparse
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand in ``_COMMANDS``; :func:`main`
    builds it for help, errors and any command line that ``_read_plain``
    leaves to it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            """Help for stdout goes out through :func:`_write`, so a stdout
            that cannot be written is a usage error here too."""
            if file is not None:
                return super().print_help(file)
            _write(None, lambda write: write(self.format_help()))

    parser = Parser(prog="wplat",
                    description="Exact computations on the lattice of weighted partitions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, flag, accepts, default):
        p.add_argument(flag, type=_at_least(accepts) if isinstance(accepts, int) else None,
                       choices=accepts if isinstance(accepts, tuple) else None,
                       required=default is _REQUIRED,
                       default=None if default is _REQUIRED else default,
                       help="write output to a file" if flag == "--out" else None)

    for name, (fn, text, formats, n_min, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn, format=formats[0])
        for option in _shared_options(n_min, formats):
            add(p, *option)
        p.add_argument("--force", dest="guard", action="store_const",
                       const=FORCED_GUARD, help="override the size guard")
        for option in own:
            add(p, *option)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    its exit code; argparse's usage errors and help exit by SystemExit."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv) or build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GuardExceeded as exc:
        print(str(exc), file=sys.stderr)
        return GUARD_EXIT
    except RouteMismatch as exc:
        print(str(exc), file=sys.stderr)
        return FAIL_EXIT


def run() -> None:
    """The process entry point (``wplat``, ``python -m wplat.cli``): ``main``
    on the command line, in a process whose reader may close the pipe early,
    ended as soon as the request's status is known.

    The default SIGPIPE action ends such a process as it ends other Unix
    filters, without a BrokenPipeError traceback or exit 1.  The interpreter
    has loaded _signal, while signal would first build its enums (about 1 ms
    per request).

    The status is ``main``'s return value or the integer of a SystemExit
    (argparse, :func:`_write`).  The process then runs the ``atexit``
    handlers, flushes stdout and stderr, and ends by ``os._exit``, skipping
    the teardown of every module and object the request built.
    Stdout written outside :func:`_write` (by an ``atexit`` handler) that
    cannot be flushed turns a success into exit 2.  Other exceptions
    propagate with their traceback, and in-process callers of ``main`` keep
    their own exit."""
    import _signal
    import atexit

    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    try:
        status = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        status = exc.code
    # os._exit skips the atexit handlers, and the atexit module documents no
    # call that runs them; _run_exitfuncs is CPython's own (checked on 3.11),
    # and test_cli.py fails by name if it goes away
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:  # a failed request has already said why
        if status == 0:
            status = _cannot_write("standard output", exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
