"""Tests for the benchmark's reference-second scaling and reference program."""

import subprocess
import sys

import pytest
import run


def _outcome(wall_s, cpu_s):
    return run.Outcome(0, b"", b"", wall_s, cpu_s, 10.0, False)


def test_reference_scales_use_the_mean_of_all_reference_runs():
    first, second = run.Pass(False), run.Pass(True)
    first.references = [_outcome(0.5, 0.4), _outcome(0.3, 0.2)]
    second.references = [_outcome(0.4, 0.3)]
    wall, cpu = run.reference_scales([first, second])
    assert wall == pytest.approx(run.REFERENCE_S / 0.4)
    assert cpu == pytest.approx(run.REFERENCE_S / 0.3)


@pytest.mark.parametrize("kind", ["objects", "arithmetic"])
def test_reference_programs_print_their_checksums(kind):
    out = subprocess.run([sys.executable, str(run.BENCH_DIR / "reference.py"), kind],
                         capture_output=True, check=True, env={"PYTHONHASHSEED": "1"})
    assert out.stdout.strip() == run.REFERENCE_CHECKSUMS[kind]


def test_every_workload_names_a_reference_program():
    assert set(run.REFERENCE_KINDS) == set(run.WORKLOADS)
    assert set(run.REFERENCE_KINDS.values()) <= set(run.REFERENCE_CHECKSUMS)
