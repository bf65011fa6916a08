"""Every Python file of the project parses as Python 3.10, the oldest version
``pyproject.toml`` allows and the first leg of the CI matrix, whichever
interpreter runs the tests. The files are only read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "ci", "perfbench", "demos", "tests")
               for path in (ROOT / folder).rglob("*.py"))


def test_the_project_files_are_found():
    assert len(FILES) >= 36 and ROOT / "ci" / "checks.py" in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_file_parses_as_python_3_10(path):
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", ["try:\n    pass\nexcept* ValueError:\n    pass\n",
                                    "type X = int\n"], ids=["except-star", "type-alias"])
def test_newer_syntax_is_refused(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
