"""The repository's pytest settings keep a failing hypothesis test readable."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_given_test_prints_its_example(tmp_path):
    # A failing @given test makes hypothesis import its patching extra, which
    # imports mypy_extensions.  Turned into an error by the "error" filter,
    # that module's DeprecationWarning stops pytest with an INTERNALERROR
    # (exit 3) before the falsifying example is shown.
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "-p", "no:cacheprovider", str(tmp_path / "test_failing.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "Falsifying example" in proc.stdout
