"""Every module under ``src/repro`` is imported, directly or transitively,
from the package's entry points (``repro``, ``repro.cli``,
``repro.__main__``).  A module nothing reaches is dead code: delete it
rather than keep testing it.  Static (``ast``) walk, so lazy imports
inside functions count and nothing is executed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ENTRY_POINTS = ("repro", "repro.cli", "repro.__main__")


def _modules():
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported(name, path):
    """Dotted names ``name``'s source imports, each with its parent
    packages (importing ``a.b.c`` runs ``a`` and ``a.b`` too)."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pkg = package.split(".")
            anchor = pkg[:len(pkg) + 1 - node.level] if node.level else []
            base = ".".join(anchor + [node.module] if node.module else anchor)
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            yield from (".".join(parts[:i]) for i in range(1, len(parts) + 1))


def test_every_module_is_reachable_from_an_entry_point():
    modules = _modules()
    seen, todo = set(), list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name in modules and name not in seen:
            seen.add(name)
            todo.extend(_imported(name, modules[name]))
    assert sorted(set(modules) - seen) == []
