"""Reference values and output checkers for the benchmark's requests.

Nothing here imports ``wplat``: every reference is rebuilt from first
principles, so a request only passes when the program agrees with a route
that does not share its code.

- The Stirling triangles S and s come from their recurrences; the transform
  numbers are matrix powers, T = S^k and t = s^k (lower triangular, rows and
  columns indexed from 0).
- ``count`` totals are the row sums of T; the poset adds one top element
  when k >= 2 and n >= 2.
- The Möbius value of the whole lattice is the closed form
  (-1)^n prod_{j=1}^{n-1} (k j - 1), or (-1)^{n-1} (n-1)! for k = 1.
- The characteristic polynomial has coefficients w_r = k^{n-r} s(n, r).
- Decreasing maximal chains and labeled binary trees are both counted by |mu|.
- There are k n (n-1) / 2 atoms.

Each ``check_*`` function takes a request's argv, exit code and stdout and
returns ``(ok, detail, info)``: ``detail`` says what differed, ``info``
carries facts the report records (cover counts, structure statuses).
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import factorial


# ---------------------------------------------------------------------------
# reference numbers

@lru_cache(maxsize=None)
def stirling2_triangle(size: int) -> tuple[tuple[int, ...], ...]:
    """S(n, r) for 0 <= n, r <= size, by S(n,r) = S(n-1,r-1) + r S(n-1,r)."""
    rows = [[1] + [0] * size]
    for n in range(1, size + 1):
        prev = rows[-1]
        rows.append([0] + [prev[r - 1] + r * prev[r] for r in range(1, size + 1)])
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def stirling1_triangle(size: int) -> tuple[tuple[int, ...], ...]:
    """Signed s(n, r) for 0 <= n, r <= size, by
    s(n,r) = s(n-1,r-1) - (n-1) s(n-1,r)."""
    rows = [[1] + [0] * size]
    for n in range(1, size + 1):
        prev = rows[-1]
        rows.append([0] + [prev[r - 1] - (n - 1) * prev[r] for r in range(1, size + 1)])
    return tuple(map(tuple, rows))


def _mat_power(m, k: int) -> tuple[tuple[int, ...], ...]:
    size = len(m)
    out = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(k):
        out = [[sum(out[i][j] * m[j][c] for j in range(c, i + 1)) for c in range(size)]
               for i in range(size)]
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def transform_matrix(kind: str, k: int, size: int) -> tuple[tuple[int, ...], ...]:
    """T(n, k, r) (kind "T") or t(n, k, r) (kind "t") for 0 <= n, r <= size."""
    base = stirling2_triangle(size) if kind == "T" else stirling1_triangle(size)
    return _mat_power(base, k)


def T(n: int, k: int, r: int) -> int:
    return transform_matrix("T", k, n)[n][r]


def element_count(n: int, k: int) -> int:
    """Elements of the poset: every weighted partition, plus the adjoined top."""
    return sum(transform_matrix("T", k, n)[n]) + (1 if k >= 2 and n >= 2 else 0)


def mobius(n: int, k: int) -> int:
    if n == 1:
        return 1
    if k == 1:
        return (-1) ** (n - 1) * factorial(n - 1)
    prod = 1
    for j in range(1, n):
        prod *= k * j - 1
    return (-1) ** n * prod


def charpoly_coefficients(n: int, k: int) -> list[int]:
    """[w_0, ..., w_n] with w_r = k^{n-r} s(n, r)."""
    s = stirling1_triangle(n)
    return [k ** (n - r) * s[n][r] for r in range(n + 1)]


def atom_count(n: int, k: int) -> int:
    return k * n * (n - 1) // 2


def sizes(n: int, k: int) -> dict:
    """The per-(n, k) work counts the references fix."""
    mu = abs(mobius(n, k))
    return {"elements": element_count(n, k), "decreasing_chains": mu, "trees": mu,
            "atoms": atom_count(n, k)}


# ---------------------------------------------------------------------------
# output checkers

class Mismatch(Exception):
    """An answer that differs from its reference."""


def _opt(argv: list[str], name: str, default: str | None = None) -> str:
    if name in argv:
        return argv[argv.index(name) + 1]
    if default is None:
        raise Mismatch(f"request lacks {name}")
    return default


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(", ")]


def _expect(cond: bool, detail: str) -> None:
    if not cond:
        raise Mismatch(detail)


def _check_table(argv, out: str) -> dict:
    kind, n_max, k = _opt(argv, "--kind"), int(_opt(argv, "--n-max")), int(_opt(argv, "--k", "1"))
    _expect(kind in ("T", "t"), f"no reference for table kind {kind}")
    want = transform_matrix(kind, k, n_max)
    rows = [_ints(line) for line in out.splitlines()]
    _expect(len(rows) == n_max, f"{len(rows)} rows, want {n_max}")
    for n, row in enumerate(rows, start=1):
        _expect(row == list(want[n][1:n + 1]), f"row n={n} differs")
    return {}


def _check_series(argv, out: str) -> dict:
    which, k, order = _opt(argv, "--which"), int(_opt(argv, "--k")), int(_opt(argv, "--order"))
    want = transform_matrix("T" if which == "exp" else "t", k, order)
    rows = [_ints(line) for line in out.splitlines()]
    _expect(rows == [list(r) for r in want], "series rows differ from the transform matrix")
    return {}


def _check_count(argv, out: str) -> dict:
    n, k = int(_opt(argv, "--n")), int(_opt(argv, "--k"))
    row = transform_matrix("T", k, n)[n]
    want = ", ".join([f"r={r}:{row[r]}" for r in range(1, n + 1)] + [f"total {sum(row)}"])
    _expect(out.strip() == want, f"count line {out.strip()!r}, want {want!r}")
    return {}


def _check_mobius(argv, out: str) -> dict:
    n, k = int(_opt(argv, "--n")), int(_opt(argv, "--k"))
    method = _opt(argv, "--method", "all")
    mu = mobius(n, k)
    if method == "all":
        want = f"chains: {mu}\nclosed: {mu}\nrecursive: {mu}"
    else:
        want = str(mu)
    _expect(out.strip() == want, f"mobius output {out.strip()!r}, want {want!r}")
    return {}


_TERM = re.compile(r"([+-]?)(\d*)(x(?:\^(\d+))?)?")


def parse_polynomial(text: str) -> dict[int, int]:
    """Coefficients by degree of a polynomial printed as ``x^5-30x^4+...``."""
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise Mismatch(f"cannot parse polynomial {text!r}")
        sign, mag, mono, power = m.groups()
        degree = 0 if not mono else int(power or 1)
        value = int(mag) if mag else 1
        coeffs[degree] = coeffs.get(degree, 0) + (-value if sign == "-" else value)
        pos = m.end()
    return coeffs


def _check_charpoly(argv, out: str) -> dict:
    n, k = int(_opt(argv, "--n")), int(_opt(argv, "--k"))
    factors, _, poly = out.strip().partition(" = ")
    want_factors = "".join("x" if j == 0 else f"(x-{k * j})" for j in range(n))
    _expect(factors == want_factors, f"factors {factors!r}, want {want_factors!r}")
    got = parse_polynomial(poly)
    want = {r: w for r, w in enumerate(charpoly_coefficients(n, k)) if w}
    _expect(got == want, f"coefficients {got}, want {want}")
    return {}


_LABEL = re.compile(r"\((\d+),(\d+)\)_(\d+)")


def _label_key(text: str) -> tuple[int, int, int]:
    """Order key of a cover label (a,b)_l: deeper layers compare smaller."""
    m = _LABEL.fullmatch(text)
    if not m:
        raise Mismatch(f"bad cover label {text!r}")
    a, b, layer = map(int, m.groups())
    return (-layer, a, b)


def _check_chains(argv, out: str) -> dict:
    n, k = int(_opt(argv, "--n")), int(_opt(argv, "--k"))
    _expect(_opt(argv, "--filter") == "decreasing", "no reference for this chain filter")
    lines = out.strip().splitlines()
    mu = abs(mobius(n, k))
    _expect(lines[-1] == f"total {mu}", f"{lines[-1]!r}, want 'total {mu}'")
    chains = lines[:-1]
    _expect(len(chains) == mu and len(set(chains)) == mu, f"{len(set(chains))} distinct chains, want {mu}")
    length = n - 1 + (1 if k >= 2 else 0)
    for line in chains:
        keys = [_label_key(lab) for lab in line.split(" ")]
        _expect(len(keys) == length, f"chain {line!r} is not maximal")
        _expect(all(a > b for a, b in zip(keys, keys[1:])), f"chain {line!r} is not decreasing")
        if k >= 2:
            _expect(keys[-1] == (-k, 1, n), f"chain {line!r} does not end in (1,{n})_{k}")
    return {}


_DOT_NODE = re.compile(r'\s*(\w+) \[label="([^"]*)"\];')
_DOT_EDGE = re.compile(r'\s*(\w+) -> (\w+)(?: \[label="([^"]*)"\])?;')


def _check_hasse(argv, out: str) -> dict:
    n, k = int(_opt(argv, "--n")), int(_opt(argv, "--k"))
    nodes, edges, ranks = [], [], []
    for line in out.splitlines():
        if m := _DOT_NODE.fullmatch(line):
            nodes.append(m.group(1))
        elif m := _DOT_EDGE.fullmatch(line):
            edges.append((m.group(1), m.group(2), m.group(3)))
        elif line.strip().startswith("{ rank=same;"):
            ranks.append(line.strip()[len("{ rank=same;"):-1].replace(";", " ").split())
    _expect(len(nodes) == len(set(nodes)) == element_count(n, k),
            f"{len(nodes)} nodes, want {element_count(n, k)}")
    row = transform_matrix("T", k, n)[n]
    want = [row[n - r] for r in range(n)] + ([1] if k >= 2 and n >= 2 else [])
    _expect([len(g) for g in ranks] == want, f"rank sizes {[len(g) for g in ranks]}, want {want}")
    rank_of = {name: r for r, group in enumerate(ranks) for name in group}
    _expect(set(rank_of) == set(nodes), "rank groups do not partition the nodes")
    for lo, hi, label in edges:
        _expect(rank_of.get(hi, -2) == rank_of.get(lo, -9) + 1, f"edge {lo}->{hi} skips a rank")
        _label_key(label or "")
    _expect(len(set(edges)) == len(edges), "repeated cover")
    return {"covers": len(edges)}


def _check_trees(argv, out: str) -> dict:
    n, k = int(_opt(argv, "--n")), int(_opt(argv, "--k"))
    _expect(_opt(argv, "--format", "json") == "dot", "no reference for this tree format")
    trees: list[tuple[dict, list]] = []
    for line in out.splitlines():
        if line.strip().startswith("subgraph cluster_"):
            trees.append(({}, []))
        elif m := _DOT_NODE.fullmatch(line):
            trees[-1][0][m.group(1)] = m.group(2)
        elif m := _DOT_EDGE.fullmatch(line):
            trees[-1][1].append((m.group(1), m.group(2)))
    mu = abs(mobius(n, k))
    _expect(len(trees) == mu, f"{len(trees)} trees, want {mu}")
    seen = set()
    for labels, edges in trees:
        children: dict[str, list[str]] = {}
        for lo, hi in edges:
            children.setdefault(lo, []).append(hi)
        roots = set(labels) - {hi for _, hi in edges}
        _expect(len(labels) == 2 * n - 1 and len(edges) == 2 * n - 2 and len(roots) == 1
                and all(len(c) == 2 for c in children.values()),
                "tree is not a complete binary tree on n leaves")
        leaves = [labels[v] for v in labels if v not in children]
        _expect(sorted(int(lab.split("_")[0]) for lab in leaves) == list(range(1, n + 1)),
                "leaf integers are not a bijection with [n]")

        def nested(v: str):
            return (labels[v],) + tuple(nested(c) for c in children.get(v, []))

        seen.add(nested(roots.pop()))
    _expect(len(seen) == mu, "repeated tree")
    return {"trees": len(trees)}


def _verify_report(argv, out: str) -> dict[str, dict]:
    n, k, suite = int(_opt(argv, "--n")), int(_opt(argv, "--k")), _opt(argv, "--suite", "all")
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"verify output is not JSON: {exc}") from None
    _expect((report.get("n"), report.get("k"), report.get("suite")) == (n, k, suite),
            "verify report echoes other arguments")
    return {c["check"]: c for c in report["checks"]}


def _check_verify(argv, out: str) -> dict:
    suite = _opt(argv, "--suite", "all")
    checks = _verify_report(argv, out)
    if suite == "structure":
        n, k = int(_opt(argv, "--n")), int(_opt(argv, "--k"))
        atom = checks.get("atom_count", {})
        _expect(atom.get("status") == "pass", f"atom_count is {atom.get('status')}, want pass "
                f"with {atom_count(n, k)} atoms")
        # The other statuses are recorded, not gated: fixing a check that
        # passes wrongly must not read as a failed request.
        return {"structure": {name: {"status": c["status"], "witnesses": len(c["witnesses"])}
                              for name, c in checks.items()}}
    must_pass = {"el": ["el"],
                 "bijections": ["partition_round_trips", "chain_tree_round_trips"]}[suite]
    for name in must_pass:
        status = checks.get(name, {}).get("status")
        _expect(status == "pass", f"check {name} is {status}, want pass")
    return {}


CHECKERS = {
    "table": _check_table, "series": _check_series, "count": _check_count,
    "mobius": _check_mobius, "charpoly": _check_charpoly, "chains": _check_chains,
    "hasse": _check_hasse, "trees": _check_trees, "verify": _check_verify,
}


def accepted_exit_codes(argv: list[str]) -> tuple[int, ...]:
    """``verify --suite structure`` may exit 1 for a finding about the order;
    every other request must exit 0."""
    if argv[0] == "verify" and _opt(argv, "--suite", "all") == "structure":
        return (0, 1)
    return (0,)


def check(argv: list[str], returncode: int, stdout: bytes) -> tuple[bool, str, dict]:
    """Judge one request's answer against its reference."""
    if returncode not in accepted_exit_codes(argv):
        return False, f"exit code {returncode}", {}
    try:
        info = CHECKERS[argv[0]](argv, stdout.decode())
    except Mismatch as exc:
        return False, str(exc), {}
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unreadable output: {exc!r}", {}
    return True, "", info
