"""The reference programs: fixed amounts of pure-Python work that import
nothing from wplat.

    python bench/reference.py objects|arithmetic

The benchmark runs one of them in a fresh interpreter before every request
and scales the run's times by how long they took (see ``run.py``), so that
the host's speed, which drifts by a quarter or more over minutes on a
shared machine, cancels out of the reported times.  Drift does not slow all
code alike, so each workload uses the program that resembles its own work:
``objects`` builds and sorts small tuples held in sets and dictionaries,
as the lattice and chain code does, and ``arithmetic`` sums signed products
of binomials and powers, as the Stirling-number code does.  Each prints a
checksum that the benchmark checks, so a run that stopped early is noticed.
"""

import sys
from math import comb, factorial


def merge(block: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    return tuple(sorted(block[:i] + block[i + 1:j] + block[j + 1:] + (block[i] + block[j],)))


def partitions_of(block: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every multiset reachable from ``block`` by merging parts."""
    seen = {block}
    frontier = [block]
    while frontier:
        nxt = []
        for b in frontier:
            for i in range(len(b)):
                for j in range(i + 1, len(b)):
                    m = merge(b, i, j)
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
        frontier = nxt
    return seen


def objects() -> int:
    checksum = 0
    for r in range(14):
        ranked = sorted(partitions_of(tuple([1] * (18 + r % 2))), key=lambda p: (len(p), p))
        text = ",".join(f"{p!r}" for p in ranked[:400])
        checksum = (checksum * 31 + len(ranked) + sum(ranked[len(ranked) // 2]) + len(text)) % (1 << 61)
    return checksum


def triangle(size: int) -> list[list[int]]:
    """Stirling numbers of the second kind, each by the alternating sum
    S(n, r) = (1/r!) sum_i (-1)^i C(r, i) (r - i)^n."""
    return [[sum((-1) ** i * comb(r, i) * (r - i) ** n for i in range(r + 1)) // factorial(r)
             for r in range(n + 1)] for n in range(size)]


def arithmetic() -> int:
    checksum = 0
    for _ in range(7):
        checksum = (checksum * 31 + sum(triangle(62)[-1])) % (1 << 61)
    return checksum


KINDS = {"objects": objects, "arithmetic": arithmetic}

if __name__ == "__main__":
    print(KINDS[sys.argv[1]]())
