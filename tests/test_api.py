"""The public surface: the README's library example, ``__all__`` and the
names that CHANGES.md's migration table records as removed."""

import importlib
import re
from pathlib import Path

import pytest

import cogmatrix as cgm

ROOT = Path(__file__).resolve().parents[1]


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from the
    longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def _migration_table() -> list[tuple[str, str]]:
    """(removed, surviving) dotted names, one per row of the migration table;
    a cell's name is its code up to the first parenthesis."""
    rows = re.findall(r"^\| `(cogmatrix\.[\w.]+)[^|]*\| `(cogmatrix\.[\w.]+)",
                      (ROOT / "CHANGES.md").read_text(encoding="utf-8"), re.MULTILINE)
    assert rows, "CHANGES.md has no migration table"
    return rows


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:4]] == ["baseline", "rr", "rr_fr_1step", "rr_fr_2step"]
    assert lines[4].split()[0] == "300"


def test_every_exported_name_resolves():
    assert len(set(cgm.__all__)) == len(cgm.__all__)
    for name in cgm.__all__:
        assert hasattr(cgm, name), name


@pytest.mark.parametrize("removed, surviving", _migration_table())
def test_removed_names_are_gone(removed, surviving):
    assert not _resolves(removed)
    assert not hasattr(cgm, removed.rsplit(".", 1)[1])
    assert _resolves(surviving)
