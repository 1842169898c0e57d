"""Dead-code checks over ``src/repro``, both static (``ast``; nothing is
executed, and lazy imports inside functions count).

* Every module is imported, directly or transitively, from the
  package's entry points (``repro``, ``repro.cli``, ``repro.__main__``).
* Every public top-level function and class is referenced by code that
  is not a test: in ``src/`` outside its own definition, ``__all__`` and
  import lines, or in ``scripts/``, ``benchmarks/`` or ``examples/``.
  A reference from inside another unreferenced definition does not
  count.  Each name in :data:`ALLOWED` is exempt, with its reason; a
  decorator exempts nothing.

A module or name that only its own tests reach is dead code: delete it
rather than keep testing it.
"""

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_POINTS = ("repro", "repro.cli", "repro.__main__")
#: Trees whose code counts as a caller, besides ``src/``.
CALLER_DIRS = ("scripts", "benchmarks", "examples")

#: Public names kept without a non-test caller.
ALLOWED = {
    "repro.core.memory.measure_dist_matrix_bytes":
        "test oracle: measured bytes of a distributed matrix",
    "repro.partition.refine.weighted_edgecut":
        "test oracle: the objective edgecut_refine minimises",
    "repro.graphs.adjacency.degrees":
        "property-test helper over every fixture graph",
    "repro.graphs.adjacency.is_symmetric":
        "property-test helper over every fixture graph",
    "repro.graphs.adjacency.permute_rows":
        "property-test helper: permutation identities",
    "repro.graphs.generators.rmat_graph": "fixture graph generator",
    "repro.graphs.generators.chung_lu_graph": "fixture graph generator",
    "repro.graphs.generators.preferential_attachment_graph":
        "fixture graph generator",
    "repro.graphs.generators.grid_graph": "fixture graph generator",
    "repro.graphs.io.save_dataset":
        "graphs/io.py: the persisted-artifact seam (ROADMAP item 16)",
    "repro.graphs.io.load_dataset_file":
        "graphs/io.py: the persisted-artifact seam (ROADMAP item 16)",
    "repro.graphs.io.save_partition":
        "graphs/io.py: the persisted-artifact seam (ROADMAP item 16)",
    "repro.graphs.io.load_partition":
        "graphs/io.py: the persisted-artifact seam (ROADMAP item 16)",
}


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


def _public_definitions(trees):
    """``{dotted name: (path, first line, last line)}`` of every public
    top-level function and class under ``src/repro``."""
    found = {}
    for module, path in _modules().items():
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                found[f"{module}.{node.name}"] = (path, node.lineno,
                                                  node.end_lineno)
    return found


def _references(trees, wanted):
    """``{identifier: [(path, line), ...]}`` for the ``wanted``
    identifiers read as a name or an attribute in non-test code."""
    refs = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            kind = node.__class__
            ident = node.id if kind is ast.Name else \
                node.attr if kind is ast.Attribute else None
            if ident in wanted:
                refs.setdefault(ident, []).append((path, node.lineno))
    return refs


@functools.lru_cache(maxsize=None)
def _unreferenced():
    paths = list((SRC / "repro").rglob("*.py"))
    for tree in CALLER_DIRS:
        paths.extend((ROOT / tree).rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    definitions = _public_definitions(trees)
    short = {name: name.rpartition(".")[2] for name in definitions}
    refs = _references(trees, set(short.values()))
    shell = "\n".join(path.read_text(encoding="utf-8")
                      for path in (ROOT / "scripts").rglob("*.sh"))

    def outside(ref, spans):
        return not any(ref[0] == path and first <= ref[1] <= last
                       for path, first, last in spans)

    # Each name's callers outside its own definition; a name whose
    # callers all sit inside dead definitions is dead too.
    callers = {name: [ref for ref in refs.get(short[name], ())
                      if outside(ref, [span])]
               for name, span in definitions.items()
               if not re.search(rf"\b{short[name]}\b", shell)}
    dead = set()
    while True:
        spans = [definitions[name] for name in dead]
        now = {name for name, refs_ in callers.items()
               if not any(outside(ref, spans) for ref in refs_)}
        if now == dead:
            return dead
        dead = now


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(_unreferenced() - set(ALLOWED)) == []


def test_allowed_names_exist_and_are_unreferenced():
    """An entry that gained a caller, or whose definition is gone, is
    stale: drop it."""
    assert sorted(set(ALLOWED) - _unreferenced()) == []
