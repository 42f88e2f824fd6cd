"""The unused-import scan of scripts/check_imports.py, which CI runs over the repository."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_imports.py"
spec = importlib.util.spec_from_file_location("check_imports", SCRIPT)
check_imports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_imports)


def scan(tmp_path, text, name="module.py"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return check_imports.unused_imports(path)


def test_an_unread_import_is_reported_with_its_line(tmp_path):
    text = "import math\nimport os.path\nfrom json import dumps as write, loads\n\nprint(loads)\n"
    assert scan(tmp_path, text) == [(1, "math"), (2, "os"), (3, "write")]


def test_exports_future_imports_and_string_annotations_count_as_read(tmp_path):
    text = ('from __future__ import annotations\nfrom json import dumps, loads\n\n'
            '__all__ = ["dumps"]\n\n\ndef parse(text: "loads") -> "list":\n    return text\n')
    assert scan(tmp_path, text) == []


def test_a_package_init_re_exports_its_relative_imports(tmp_path):
    text = "from .angles import kappa\nfrom json import loads\n"
    assert scan(tmp_path, text, "__init__.py") == [(2, "loads")]
    assert scan(tmp_path, text) == [(1, "kappa"), (2, "loads")]
