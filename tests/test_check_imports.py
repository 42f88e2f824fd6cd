"""The unused-import and private-name scans of scripts/check_imports.py, which CI runs over the repository."""

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


def test_a_private_name_no_file_reads_is_reported(tmp_path):
    # read by name, through an import or as an attribute, in its own file or another, or a dunder: not reported
    (tmp_path / "a.py").write_text(
        "__version__ = '1'\n_LIMIT: int = 3\n_FIRST, _SPARE = 1, 2\n\n\n"
        "def _helper():\n    return _LIMIT + _FIRST\n\n\n"
        "def _by_attribute():\n    return 0\n\n\n"
        "def _dead():\n    _local = 1\n    return _local\n\n\n"
        "class _Unused:\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("import a\nfrom a import _helper\n\nprint(_helper(), a._by_attribute())\n",
                                   encoding="utf-8")
    files = check_imports.python_files([tmp_path])
    found = [(path.name, line, name) for path, line, name in check_imports.unread_private_names(files)]
    assert found == [("a.py", 3, "_SPARE"), ("a.py", 14, "_dead"), ("a.py", 19, "_Unused")]
    assert check_imports.main([str(tmp_path)]) == 1
    (tmp_path / "c.py").write_text("from a import _SPARE, _Unused, _dead\n\nprint(_SPARE, _Unused, _dead)\n",
                                   encoding="utf-8")
    assert check_imports.main([str(tmp_path)]) == 0


def test_a_wildcard_import_belongs_only_in_a_package_init(tmp_path):
    text = "from .angles import *\nfrom json import *\n"
    for name, found in [("__init__.py", []), ("module.py", [1, 2])]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert check_imports.wildcard_imports(path) == found
    assert check_imports.main([str(tmp_path / "module.py")]) == 1
