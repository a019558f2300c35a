"""tools/count_lines.py counts a file as itself, lists a directory's
modules before its total, and fails on a path without Python source."""

import subprocess
import sys
from pathlib import Path

import holonomy_lab

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
SRC = Path(holonomy_lab.__file__).parent


def _count(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(path)], capture_output=True,
                          text=True, timeout=60)


def test_a_directory_lists_each_module_then_the_total():
    lines = _count(SRC).stdout.splitlines()
    modules = sorted(SRC.glob("*.py"))
    assert [line.split(":")[0].strip() for line in lines[:-1]] == [p.name for p in modules]
    assert lines[-1].startswith(f"{SRC}: ")
    module_counts = [[int(w) for w in line.split() if w.isdigit()] for line in lines]
    assert [sum(column) for column in zip(*module_counts[:-1])] == module_counts[-1]


def test_a_file_counts_as_itself():
    path = SRC / "evolve.py"
    result = _count(path)
    physical = len(path.read_text().splitlines())
    assert result.returncode == 0
    assert result.stdout.startswith(f"{path}: {physical} physical lines, ")
    assert len(result.stdout.splitlines()) == 1


def test_a_path_without_python_source_fails(tmp_path):
    for path in (tmp_path / "missing", tmp_path):
        result = _count(path)
        assert result.returncode == 1
        assert "no Python source" in result.stderr
