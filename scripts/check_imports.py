#!/usr/bin/env python3
"""List the imports a Python file never reads, and the private names a program never reads.

Usage: python scripts/check_imports.py [PATH ...]

Each PATH is a file or a directory searched for *.py; the default is the
repository's src/, tests/ and scripts/.  A name an import binds counts as read
when it is loaded anywhere in its file, string annotations included, or is
listed in the file's __all__.  `from __future__` imports and the relative
imports of a package's __init__.py, which re-export the package's names,
always count.  A private name (_x, not a dunder) that a module defines at its
top level counts as read when some file of the program loads it or reaches it
as an attribute; the program is src/, or the files of the PATHs when given.
Exit 1 if there is a finding.  Only the standard library is used.
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
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each private function, class or variable the module defines at its top level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    return found


def unread_private_names(files) -> list[tuple[Path, int, str]]:
    """(path, line, name) for each private top-level name that no file of the program reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in files}
    used = set()
    for tree in trees.values():
        used |= read_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [(path, line, name) for path, tree in trees.items()
            for line, name in private_definitions(tree) if name not in used]


def python_files(paths) -> list[Path]:
    return sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    files = python_files([Path(a) for a in args] or [ROOT / "src", ROOT / "tests", ROOT / "scripts"])
    problems = [f"{path}:{line}: {name!r} is imported but unused"
                for path in files for line, name in unused_imports(path)]
    problems += [f"{path}:{line}: private name {name!r} is defined but never read"
                 for path, line, name in unread_private_names(files if args else python_files([ROOT / "src"]))]
    print("\n".join(problems) or f"no unused imports in {len(files)} files, no unread private names")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
