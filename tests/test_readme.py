"""The README's library example runs, and its mode tables match cli.MODES."""

import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

from catwalk.cli import MODES

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def readme_table(first_header: str) -> tuple:
    """(header cells, body rows) of the README table whose first header cell
    is ``first_header``; every cell is stripped of backticks and spaces."""
    lines = README.splitlines()
    cells = lambda line: [c.replace("`", "").strip() for c in line.strip().strip("|").split("|")]
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("|") and cells(line)[0] == first_header)
    rows = []
    for line in lines[start + 2:]:  # past the header and its --- row
        if not line.startswith("|"):
            break
        rows.append(cells(line))
    return cells(lines[start]), rows


def names(cell: str) -> list:
    return [name.strip() for name in cell.split(",") if name.strip()]


def test_library_example_runs():
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README, re.S)
    assert block, "README has no python block under '## Library example'"
    filters = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"][
        "ini_options"]["filterwarnings"]
    args = [a for f in filters for a in ("-W", f)]
    proc = subprocess.run([sys.executable, *args, "-c", block.group(1)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_outputs_table_matches_modes():
    header, rows = readme_table("mode")
    assert header[1:] == ["default outputs", "can also write"]
    table = {mode: (names(defaults), names(extra)) for mode, defaults, extra in rows}
    assert table == {mode: (list(spec.defaults),
                            [o for o in spec.writable if o not in spec.defaults])
                     for mode, spec in MODES.items()}


def test_key_table_matches_modes():
    header, rows = readme_table("key")
    assert sorted(header[1:]) == sorted(MODES)
    listed = [key for row in rows for key in names(row[0])]
    assert len(listed) == len(set(listed)), "a key is listed twice"
    for column, mode in enumerate(header[1:], start=1):
        marks = {key: row[column] for row in rows for key in names(row[0])}
        assert set(marks.values()) <= {"x", "required", ""}, marks
        assert {k for k, m in marks.items() if m} == set(MODES[mode].keys), mode
        assert {k for k, m in marks.items() if m == "required"} == set(MODES[mode].requires), mode
