"""The code-line counter of ``tools/code_lines.py``, the A/B timer of ``tools/abtime.py``, the
census of ``tools/census.py``, the digests of ``tools/bitcheck.py`` and the draw set of
``tools/fuzz_domain.py``."""

import os
import subprocess
import sys

import pytest

from conftest import ROOT, load_module, riemann_batch_draws

code_lines = load_module("code_lines", ROOT / "tools" / "code_lines.py")

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 2


def area(r):
    """Function docstring.

    With a blank line inside.
    """
    text = """a string that is
    not a docstring"""
    return math.pi * r * r + len(text)
'''


def test_counts_code_lines_only():
    # import, class, size, def, the two lines of the string, return
    assert code_lines.count_code_lines(SNIPPET) == 7


def test_empty_source_has_no_code():
    assert code_lines.count_code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_abtime_prints_every_ratio():
    # One round of a tree against itself.
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "abtime.py"), str(ROOT), str(ROOT),
                          "--rounds", "1"], capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[1].split()[-3:-1] == ["wins", "B/A"]
    rows = {line.split()[0]: line.split() for line in out.splitlines()[2:]}
    assert set(rows) == {"solve", "origin", "step", "advance", "reference", "sweep", "limit",
                         "equilibrium", "solve_min"}
    assert all(float(v) > 0.0 for row in rows.values() for v in row[1:4])
    # The rounds B won, of one: 1/1 exactly where B/A is below 1 (a ratio that
    # prints as 1.0000 may go either way).
    for row in rows.values():
        assert row[4] in ("0/1", "1/1")
        if float(row[3]) != 1.0:
            assert (row[4] == "1/1") == (float(row[3]) < 1.0)


def _run_tool(name: str, *args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *args],
                          capture_output=True, text=True, env=env)


def test_code_lines_rejects_a_missing_path(tmp_path):
    out = _run_tool("code_lines.py", str(tmp_path / "missing"))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines()[-1].endswith(
        f"error: no such file or directory: {tmp_path / 'missing'}")


def test_abtime_rejects_a_missing_tree(tmp_path):
    out = _run_tool("abtime.py", str(tmp_path / "missing"), str(ROOT))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines()[-1].endswith(
        f"error: no package src/deltawave in {tmp_path / 'missing'}")


def test_bitcheck_digests_only_its_own_tree(tmp_path):
    # Another tree's package on PYTHONPATH must not be digested in place of
    # the missing one.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = _run_tool("bitcheck.py", str(tmp_path), env=env)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines()[-1] == (
        f"bitcheck.py: error: no package {tmp_path.resolve() / 'src' / 'deltawave'} to import")


CENSUS_200 = """\
structure          mismatch           fan                 draws
no-source                             star                   65
NotSolvableError   ++                 NotSolvableError       35
no-source                             fan                    26
Type3              ++                 on-side                24
Type2              ++                 on-side                14
no-source                             right-datum            13
no-source                             left-datum              9
Type1              -+                 on-side                 7
Type5              ++                 on-side                 4
no-source                             VacuumError             3
total                                                       200
"""


def test_census_table_of_200_draws():
    out = _run_tool("census.py", "--draws", "200")
    assert out.returncode == 0 and out.stdout == CENSUS_200


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_census_rejects_fewer_than_one_draw(draws):
    out = _run_tool("census.py", "--draws", draws)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines()[-1].endswith("error: --draws must be at least 1")


def test_fuzz_domain_is_the_benchmark_set():
    # The benchmark keeps its own copy of the recipe; the 2,000-draw set must
    # stay its seed-0 problems, state for state.
    workloads = load_module("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    batch = workloads.RiemannBatch(0)
    batch.build()
    assert [repr(d) for d in riemann_batch_draws(2000)] == [repr(p) for p in batch.problems]
