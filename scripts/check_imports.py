#!/usr/bin/env python3
"""List the imports a Python file never reads, and exit 1 if there is one.

Usage: python scripts/check_imports.py [PATH ...]

Each PATH is a file or a directory searched for *.py; the default is the
repository's src/, tests/ and scripts/.  A name an import binds counts as read
when it appears as a name anywhere in its file, string annotations included,
or is listed in the file's __all__.  `from __future__` imports and the
relative imports of a package's __init__.py, which re-export the package's
names, always count.  Only the standard library is used.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {e.value for e in getattr(node.value, "elts", []) if isinstance(e, ast.Constant)}
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, with those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for text in (a.value for a in annotations if isinstance(a, ast.Constant) and isinstance(a.value, str)):
            names |= {n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each name imported in the file and never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree) | exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "__future__"
                                                 or (node.level and path.name == "__init__.py")):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    found.append((node.lineno, name))
    return found


def python_files(paths) -> list[Path]:
    return sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    files = python_files([Path(a) for a in args] or [ROOT / "src", ROOT / "tests", ROOT / "scripts"])
    problems = [f"{path}:{line}: {name!r} is imported but unused"
                for path in files for line, name in unused_imports(path)]
    print("\n".join(problems) or f"no unused imports in {len(files)} files")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
