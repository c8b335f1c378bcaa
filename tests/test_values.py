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
    with pytest.raises(AssertionError):
        CycleDiagram(3, frozenset({(1, 3), (2, 3)}))  # two edges into 3
    with pytest.raises(AssertionError):
        CycleDiagram(3, frozenset({(2, 1)}))  # a decreasing edge


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
