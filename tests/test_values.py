"""The value types: immutable tuples whose order, equality, hash and repr
are those the library has always printed and compared."""

import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wplat
from wplat import LBT, CoverLabel, CycleDiagram, bottom, one_line_parse


def test_cover_label_order_is_the_sort_key():
    labels = [CoverLabel(a, b, l) for a in range(1, 5) for b in range(a + 1, 5)
              for l in range(1, 4)]
    for x in labels:
        for y in labels:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert op(x, y) == op(x.sort_key, y.sort_key), (op, x, y)
            assert (x == y) == (x.sort_key == y.sort_key)
    # deeper layers compare smaller, so sorting descends the layers
    assert sorted(labels)[0] == CoverLabel(1, 2, 3)
    assert max(labels) == CoverLabel(3, 4, 1)


def test_equal_values_hash_alike():
    assert hash(CoverLabel(1, 2, 3)) == hash(CoverLabel(1, 2, 3))
    assert {bottom(3, 2), one_line_parse("1/2/3", 3, 2)} == {bottom(3, 2)}


@pytest.mark.parametrize("value,field", [
    (CoverLabel(1, 2, 3), "layer"),
    (bottom(3, 2), "layers"),
    (LBT(1, 1), "left"),
    (CycleDiagram(3, frozenset({(1, 2)})), "edges"),
])
def test_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)


def test_cycle_diagram_checks_its_edges():
    with pytest.raises(ValueError, match="at most one incoming edge per point"):
        CycleDiagram(3, frozenset({(1, 3), (2, 3)}))  # two edges into 3
    with pytest.raises(ValueError, match="edges must satisfy"):
        CycleDiagram(3, frozenset({(2, 1)}))  # a decreasing edge


# input checks that must hold under ``python -O``, which strips ``assert``
CHECKS_UNDER_O = """
from wplat import CycleDiagram, diagram_to_decreasing_chain
# two edges into 1, an edge past n, and (1,2)_3 below the final (1,3)_3 step
for build in (lambda: CycleDiagram(3, frozenset({(2, 1), (3, 1)})),
              lambda: CycleDiagram(3, frozenset({(2, 3), (1, 4)})),
              lambda: diagram_to_decreasing_chain(frozenset({(1, 2)}), {(1, 2): 3}, 3, 3)):
    try:
        build()
    except ValueError as exc:
        print(exc)
    else:
        print("accepted")
"""


def test_input_checks_hold_under_optimization():
    src = str(Path(wplat.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["at most one incoming edge per point",
                                        "edges must satisfy 1 <= i < j <= 3",
                                        "labels must strictly decrease"]


@pytest.mark.parametrize("value,text", [
    (CoverLabel(1, 2, 3), "CoverLabel(alpha=1, beta=2, layer=3)"),
    (bottom(2, 2), "WeightedPartition(n=2, k=2, layers=(((1,), (2,)), ()))"),
    (one_line_parse("1(35)^2/(24)^3/6", 6, 3),
     "WeightedPartition(n=6, k=3, layers=(((1, 3, 5), (2, 4), (6,)), "
     "((2, 4), (3, 5)), ((2, 4),)))"),
    (LBT(None, None, LBT(1, 1), LBT(2, 1)),
     "LBT(value=None, sub=None, left=LBT(value=1, sub=1, left=None, right=None), "
     "right=LBT(value=2, sub=1, left=None, right=None))"),
    (CycleDiagram(3, frozenset({(1, 2)})), "CycleDiagram(n=3, edges=frozenset({(1, 2)}))"),
])
def test_repr(value, text):
    assert repr(value) == text


def test_cli_import_loads_no_dataclasses():
    src = str(Path(wplat.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = 'dataclasses' in sys.modules; import wplat.cli; "
         "print(before, 'dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    before, after = proc.stdout.split()
    assert proc.returncode == 0
    assert after == "False" or before == "True"


# what each request loads of the package and of json, fractions, decimal and
# the argparse modules, which a plain command line does not need
LOADS = """
import sys
from wplat.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(m for m in sys.modules if m.partition(".")[0] == "wplat"
                    or m in ("json", "fractions", "decimal", "argparse", "gettext", "locale")),
      file=sys.stderr)
"""
NUMBERS = {"wplat", "wplat.cli", "wplat.stirling"}
POSET = NUMBERS | {"wplat.lattice", "wplat.wpartition"}


@pytest.mark.parametrize("argv,loaded", [
    ([], {"wplat", "wplat.cli"}),
    (["table", "--kind", "T", "--n-max", "6", "--k", "2"], NUMBERS | {"wplat.series"}),
    (["table", "--kind", "s", "--n-max", "6"], NUMBERS | {"wplat.series"}),
    (["series", "--which", "log", "--k", "2", "--order", "5"],
     {"wplat", "wplat.cli", "wplat.series"}),
    (["charpoly", "--n", "3", "--k", "2"], POSET),
    (["verify", "--suite", "el", "--n", "3", "--k", "2"], POSET | {"json"}),
])
def test_request_loads_only_what_it_runs(argv, loaded):
    src = str(Path(wplat.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", LOADS, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    code, *modules = proc.stderr.splitlines()[-1].split()
    assert (proc.returncode, code) == (0, "0")
    assert set(modules) == loaded


# the names the package exported when it imported every module eagerly, and
# RouteMismatch, which the package defines beside GuardExceeded
EXPORTED = """
RouteMismatch
BivariateSeries SeriesError exp_k_xy log_k_xy series_exp series_log series_pow_y
T_def T_rec_split bell bell_row elem_sym_spec stirling1
stirling2 t_def t_rec_elem_sym t_rec_first_column t_rec_split InvalidPartition
OneLineParseError WeightedPartition bottom edge_set edge_set_inverse enumerate_all
enumerate_by_blocks enumerate_tree_shapes from_rooted_tree one_line_parse
one_line_print to_rooted_tree tree_class_size tree_shape validate TOP CoverLabel
GuardExceeded Poset admissible_covers build_poset char_poly_product char_poly_roots
char_poly_summation hasse_dot mobius_closed_form paper_join paper_meet
structural_checks LBT CycleDiagram apply_chain chain_to_lbt
diagram_to_decreasing_chain enumerate_colorings enumerate_cycle_diagrams
enumerate_lbt i_of_sigma lbt_check lbt_to_chain t_via_diagrams wt_k
""".split()


def test_package_names_resolve_lazily():
    assert sorted(wplat.__all__) == sorted(EXPORTED)
    assert set(EXPORTED) <= set(dir(wplat))
    for name in set(EXPORTED) - {"GuardExceeded", "RouteMismatch"}:
        assert getattr(wplat, name) is getattr(getattr(wplat, wplat._HOMES[name]), name)
    assert wplat.lattice.GuardExceeded is wplat.GuardExceeded
    for module in ("chains", "cli", "lattice", "series", "stirling", "wpartition"):
        assert getattr(wplat, module).__name__ == f"wplat.{module}"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wplat.no_such_name
    namespace = {}
    exec("from wplat import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    # each module's ``__all__`` names only what the module defines
    for module in ("chains", "cli", "lattice", "series", "stirling", "wpartition"):
        exec(f"from wplat.{module} import *", {})
