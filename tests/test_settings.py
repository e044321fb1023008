"""The repository's pytest settings, applied to a test file of their own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALWAYS_FAILS = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # Deprecation warnings are errors under the settings, but the ones that
    # hypothesis's failure report triggers must not hide the example.
    test = tmp_path / "test_always_fails.py"
    test.write_text(ALWAYS_FAILS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(test)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
