"""The benchmark's references against published values, and its checkers
against hand-written outputs."""

import json

import oracles
import pytest


def test_stirling_triangles_match_published_rows():
    assert oracles.stirling2_triangle(5)[5] == (0, 1, 15, 25, 10, 1)
    assert oracles.stirling1_triangle(5)[5] == (0, 24, -50, 35, -10, 1)


def test_transform_numbers_match_published_rows():
    assert [oracles.T(3, 2, r) for r in (1, 2, 3)] == [5, 6, 1]
    assert oracles.transform_matrix("T", 2, 4)[4][1:] == (15, 32, 12, 1)
    assert oracles.transform_matrix("t", 2, 4)[4][1:] == (-35, 40, -12, 1)
    # k = 1 is the Stirling triangle itself
    assert oracles.transform_matrix("T", 1, 6) == oracles.stirling2_triangle(6)


def test_mobius_closed_form():
    assert oracles.mobius(4, 2) == 15
    assert oracles.mobius(3, 2) == -3
    assert oracles.mobius(4, 1) == -6     # the partition lattice of [4]
    assert oracles.mobius(5, 3) == -880
    assert oracles.mobius(1, 3) == 1


def test_counts_and_characteristic_polynomial():
    assert oracles.element_count(3, 2) == 12 + 1
    assert oracles.element_count(3, 1) == 5
    assert oracles.atom_count(3, 2) == 6
    # x(x-2)(x-4) = x^3 - 6x^2 + 8x
    assert oracles.charpoly_coefficients(3, 2) == [0, 8, -6, 1]


def test_polynomial_parser():
    assert oracles.parse_polynomial("x^3-6x^2+8x") == {3: 1, 2: -6, 1: 8}
    assert oracles.parse_polynomial("-x+12") == {1: -1, 0: 12}
    with pytest.raises(oracles.Mismatch):
        oracles.parse_polynomial("x^3-?")


def _argv(text):
    return text.split()


@pytest.mark.parametrize("argv, out, ok", [
    ("count --n 3 --k 2", "r=1:5, r=2:6, r=3:1, total 12\n", True),
    ("count --n 3 --k 2", "r=1:5, r=2:7, r=3:1, total 13\n", False),
    ("mobius --method all --n 4 --k 2", "chains: 15\nclosed: 15\nrecursive: 15\n", True),
    ("mobius --method all --n 4 --k 2", "chains: 14\nclosed: 15\nrecursive: 15\n", False),
    ("charpoly --n 3 --k 2", "x(x-2)(x-4) = x^3-6x^2+8x\n", True),
    ("charpoly --n 3 --k 2", "x(x-2)(x-4) = x^3-6x^2+7x\n", False),
    ("table --kind T --n-max 3 --k 2", "1\n2, 1\n5, 6, 1\n", True),
    ("table --kind t --n-max 3 --k 2", "1\n-2, 1\n7, -6, 1\n", True),
    ("table --kind T --n-max 3 --k 2", "1\n2, 1\n5, 6, 2\n", False),
    ("series --which log --k 2 --order 2", "1, 0, 0\n0, 1, 0\n0, -2, 1\n", True),
    ("chains --filter decreasing --n 3 --k 2",
     "(1,2)_1 (2,3)_2 (1,3)_2\n(1,3)_1 (1,2)_1 (1,3)_2\n(2,3)_1 (1,2)_1 (1,3)_2\ntotal 3\n", True),
    ("chains --filter decreasing --n 3 --k 2",
     "(1,2)_1 (2,3)_2 (1,3)_2\n(1,2)_1 (2,3)_2 (1,3)_2\n(2,3)_1 (1,2)_1 (1,3)_2\ntotal 3\n", False),
    ("chains --filter decreasing --n 3 --k 2",
     "(2,3)_2 (1,2)_1 (1,3)_2\n(1,3)_1 (1,2)_1 (1,3)_2\n(2,3)_1 (1,2)_1 (1,3)_2\ntotal 3\n", False),
])
def test_text_checkers(argv, out, ok):
    assert oracles.check(_argv(argv), 0, out.encode())[0] is ok


HASSE_2_2 = """digraph hasse {
  rankdir=BT;
  node [shape=box];
  e0 [label="(12)^2"];
  e1 [label="12"];
  e2 [label="1/2"];
  e3 [label="1^"];
  { rank=same; e2; }
  { rank=same; e0; e1; }
  { rank=same; e3; }
  e0 -> e3 [label="(1,2)_2"];
  e1 -> e3 [label="(1,2)_2"];
  e2 -> e0 [label="(1,2)_2"];
  e2 -> e1 [label="(1,2)_1"];
}
"""

TREES_2_2 = """digraph trees {
  node [shape=circle];
  subgraph cluster_0 {
  t0n0 [label="*"];
  t0n1 [label="1_1"];
  t0n0 -> t0n1;
  t0n2 [label="2_1"];
  t0n0 -> t0n2;
  }
}
"""


def test_dot_checkers():
    ok, _, info = oracles.check(_argv("hasse --n 2 --k 2"), 0, HASSE_2_2.encode())
    assert ok and info == {"covers": 4}
    skipping = HASSE_2_2.replace("e2 -> e0", "e2 -> e3")
    assert not oracles.check(_argv("hasse --n 2 --k 2"), 0, skipping.encode())[0]
    ok, _, info = oracles.check(_argv("trees --n 2 --k 2 --format dot"), 0, TREES_2_2.encode())
    assert ok and info == {"trees": 1}
    bad_leaves = TREES_2_2.replace('"2_1"', '"1_1"')
    assert not oracles.check(_argv("trees --n 2 --k 2 --format dot"), 0, bad_leaves.encode())[0]


def _report(suite, checks):
    return json.dumps({"n": 3, "k": 2, "suite": suite, "checks": [
        {"check": name, "status": status, "witnesses": [{}] * count}
        for name, status, count in checks]}).encode()


def test_structure_statuses_are_recorded_not_gated():
    argv = _argv("verify --suite structure --n 3 --k 2")
    out = _report("structure", [("semimodular", "fail", 5), ("atomistic", "pass", 0),
                                ("bound_audit", "warn", 2), ("atom_count", "pass", 0)])
    ok, _, info = oracles.check(argv, 1, out)
    assert ok
    assert info["structure"]["semimodular"] == {"status": "fail", "witnesses": 5}
    broken = _report("structure", [("atom_count", "fail", 1)])
    assert not oracles.check(argv, 1, broken)[0]
    assert not oracles.check(argv, 2, out)[0]


def test_el_and_bijections_must_pass():
    el = _argv("verify --suite el --n 3 --k 2")
    assert oracles.check(el, 0, _report("el", [("el", "pass", 0)]))[0]
    assert not oracles.check(el, 1, _report("el", [("el", "fail", 1)]))[0]
    bij = _argv("verify --suite bijections --n 3 --k 2")
    good = _report("bijections", [("partition_round_trips", "pass", 0),
                                  ("chain_tree_round_trips", "pass", 0)])
    assert oracles.check(bij, 0, good)[0]
    assert not oracles.check(bij, 0, _report("bijections", [("partition_round_trips", "pass", 0)]))[0]
    assert not oracles.check(el, 0, b"not json")[0]
