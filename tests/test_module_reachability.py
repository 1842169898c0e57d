"""Dead-code checks over ``src/repro``, all static (``ast``; nothing is
executed, and lazy imports inside functions count).

* Every module is imported, directly or transitively, from the
  package's entry points (``repro``, ``repro.cli``, ``repro.__main__``).
* Every public top-level function and class is referenced by code that
  is not a test: in ``src/`` outside its own definition, ``__all__`` and
  import lines, or in ``scripts/``, ``benchmarks/`` or ``examples/``.
  A reference from inside another unreferenced definition does not
  count.  Each name in :data:`ALLOWED` is exempt, with its reason; a
  decorator exempts nothing.
* Every public method of a public class is read by non-test code, by
  name (an attribute or a string, as ``getattr`` wrappers use it)
  outside its own body; :data:`ALLOWED_METHODS` lists the exceptions.
* Every option is set by non-test code: each defaulted parameter of a
  public function or method, and each field of a public ``@dataclass``,
  is passed as a keyword of its name or positionally at its index in a
  call of its callee (the called ``Name.id`` / ``Attribute.attr``; a
  class call reaches ``__init__`` and the dataclass fields,
  ``super().__init__`` the bases), as a string key of a dict literal
  (the ``**spec`` idiom) or through a ``*`` / ``**`` call of its callee.
  A callee reached only through an alias (``fn = ...; fn(...)``) is not
  resolved.  :data:`ALLOWED_OPTIONS` lists the exceptions; the options
  of an :data:`ALLOWED` name or :data:`ALLOWED_METHODS` method are
  exempt with it.

A module, name, method or option that only its own tests reach is dead
code: delete it (an option becomes a constant) rather than keep testing
it.
"""

import ast
import functools
import pathlib
import re

import pytest

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


#: Public methods kept without a non-test reader.
ALLOWED_METHODS = {
    "repro.comm.events.EventLog.filtered":
        "test oracle: the events of one kind, category or rank pair",
    "repro.comm.events.EventLog.traffic_matrix":
        "test oracle: the bytes between every rank pair",
    "repro.comm.timeline.Timeline.per_rank_breakdown":
        "test oracle: each rank's time per category",
    "repro.core.dist_matrix.DistSparseMatrix.to_dense_global":
        "test oracle: the distributed matrix as one dense array",
    "repro.partition.volume_refine.VolumeState.move_deltas":
        "test oracle: the one-move deltas DeltaBatch is held to",
    "repro.comm.base.CommHandle.test":
        "nonblocking-handle contract (MPI_Test) the conformance suite "
        "checks on every backend",
    "repro.comm.timeline.Timeline.clocks":
        "test oracle: every rank's clock, compared across backends",
}

#: Options (``qualified.name(parameter)``) kept without a non-test
#: caller that sets them.
ALLOWED_OPTIONS = {
    "repro.core.trainer.train_distributed(fault_plan)":
        "test seam: the chaos suites inject faults through it",
    "repro.comm.process.ProcessPoolCommunicator.__init__(start_method)":
        "test seam: the protocol golden runs fork and spawn",
    "repro.obs.export.metrics_from_spans(tracer)":
        "test seam: a private tracer instead of the global one",
    "repro.obs.export.save_trace(tracer)":
        "test seam: a private tracer instead of the global one",
    "repro.cli.main(argv)": "test seam: the CLI tests pass argv",
    "repro.comm.machine.perlmutter_scaled(factor)":
        "test seam: the cost model's sensitivity slice scales the machine",
    "repro.partition.volume_refine.volume_refine(max_volume_weight)":
        "the reference tests drive the bottleneck weight",
    "repro.comm.threaded.ThreadedCommunicator.__init__(timeout_s)":
        "test seam: the watchdog tests shorten the timeout",
    "repro.comm.process.ProcessPoolCommunicator.__init__(timeout_s)":
        "test seam: the watchdog tests shorten the timeout",
    "repro.comm.faults.FaultPlan.kill(op_index)":
        "test seam: the chaos suites address the failing collective",
    "repro.comm.faults.FaultPlan.delay(op_index)":
        "test seam: the chaos suites address the delayed collective",
    "repro.core.costmodel.epoch_cost(element_bytes)":
        "ROADMAP item 30 (c) wires it to the config's dtype",
    "repro.core.memory.estimate_rank_memory(element_bytes)":
        "ROADMAP item 30 (c) wires it to the config's dtype",
    "repro.core.analysis.single_spmm_volume_table(element_bytes)":
        "ROADMAP item 30 (c) wires it to the config's dtype",
    "repro.core.spmm_1d.Compiled1DOblivious.__init__(grid)":
        "set by engine.compile through ``variant = get_spmm(...)``, a "
        "call result the check does not resolve",
    "repro.core.spmm_1d.Compiled1DSparsityAware.__init__(grid)":
        "set by engine.compile through ``variant = get_spmm(...)``, a "
        "call result the check does not resolve",
    "repro.core.engine.spmm(grid)":
        "the one-shot 1.5D operand the 1.5D and error tests pass",
    "repro.core.dist_gcn.DistributedGCN.forward(streams)":
        "the column-concatenated operand the weight-first inference "
        "tests hold the request-list form to",
    "repro.graphs.datasets.load_dataset(n_classes)":
        "fixture knob: the smoke legs and tests build few-class graphs",
}
#: Modules whose options are exempt: fixture generators and the
#: single-process reference model.
OPTION_EXEMPT_MODULES = ("repro.graphs.generators", "repro.graphs.features",
                         "repro.gcn")


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
def _caller_trees():
    """``{path: ast}`` of every Python file whose code counts as a
    caller: ``src/repro`` and :data:`CALLER_DIRS`."""
    paths = list((SRC / "repro").rglob("*.py"))
    for tree in CALLER_DIRS:
        paths.extend((ROOT / tree).rglob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in paths}


@functools.lru_cache(maxsize=None)
def _shell():
    return "\n".join(path.read_text(encoding="utf-8")
                     for path in (ROOT / "scripts").rglob("*.sh"))


@functools.lru_cache(maxsize=None)
def _unreferenced():
    trees = _caller_trees()
    definitions = _public_definitions(trees)
    short = {name: name.rpartition(".")[2] for name in definitions}
    refs = _references(trees, set(short.values()))
    shell = _shell()

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


def _public_classes():
    """``(module, path, class node)`` of every public top-level class."""
    for module, path in _modules().items():
        for node in _caller_trees()[path].body:
            if isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                yield module, path, node


def _functions(body):
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _unread_methods(classes, trees, shell):
    """Public methods of ``classes`` (``(module, path, class node)``)
    whose name ``trees`` read nowhere outside the method's own body."""
    methods = {f"{module}.{cls.name}.{fn.name}": (path, fn)
               for module, path, cls in classes
               for fn in _functions(cls.body)
               if not fn.name.startswith("_")}
    wanted = {fn.name for _, fn in methods.values()}
    reads = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            ident = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.value if isinstance(node, ast.Constant) else None
            if isinstance(ident, str) and ident in wanted:
                reads.setdefault(ident, []).append((path, node.lineno))
    return sorted(
        name for name, (path, fn) in methods.items()
        if not re.search(rf"\b{fn.name}\b", shell)
        and not any(ref[0] != path
                    or not fn.lineno <= ref[1] <= fn.end_lineno
                    for ref in reads.get(fn.name, ())))


def test_every_public_method_is_read_outside_the_tests():
    unread = _unread_methods(_public_classes(), _caller_trees(), _shell())
    assert sorted(set(unread) - set(ALLOWED_METHODS)) == []
    assert sorted(set(ALLOWED_METHODS) - set(unread)) == [], \
        "stale ALLOWED_METHODS entries"


def _dataclass_fields(cls):
    """Init fields of a ``@dataclass`` that have a default."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in cls.decorator_list]
    if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               for d in decorators):
        return
    index = 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)) \
                or "ClassVar" in ast.unparse(node.annotation):
            continue
        value = node.value
        if isinstance(value, ast.Call) and any(
                k.arg == "init" and isinstance(k.value, ast.Constant)
                and k.value.value is False for k in value.keywords):
            continue
        if value is not None:
            yield node.target.id, index
        index += 1


def _parameters(fn, skip):
    """``(name, positional index or None)`` of ``fn``'s defaulted
    parameters; ``skip`` leading positionals (``self``) are not
    passed by the caller."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _options():
    """``{qualified.name(option): (callee name, positional index)}``,
    without the options of an allowed name or method."""
    options = {}
    for module, path in _modules().items():
        if not module.startswith(OPTION_EXEMPT_MODULES):
            options.update(_module_options(module, _caller_trees()[path]))
    allowed = set(ALLOWED) | set(ALLOWED_METHODS)
    return {name: callee for name, callee in options.items()
            if name.rpartition("(")[0] not in allowed}


def _module_options(module, tree):
    """:func:`_options` of one module's ``tree``."""
    options = {}
    for node in tree.body:
        if node.__class__ not in (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef) \
                or node.name.startswith("_"):
            continue
        name = f"{module}.{node.name}"
        if not isinstance(node, ast.ClassDef):
            for param, index in _parameters(node, 0):
                options[f"{name}({param})"] = (node.name, index)
            continue
        for field_name, index in _dataclass_fields(node):
            options[f"{name}({field_name})"] = (node.name, index)
        for fn in _functions(node.body):
            if fn.name != "__init__" and fn.name.startswith("_"):
                continue
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            callee = node.name if fn.name == "__init__" else fn.name
            for param, index in _parameters(fn, 0 if static else 1):
                options[f"{name}.{fn.name}({param})"] = (callee, index)
    return options


#: Nodes whose body is a scope of its own for local aliases.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scopes(tree):
    """The module and each function of ``tree``, each with the nodes
    of its own body (a nested function's body is its own scope)."""
    for scope in ast.walk(tree):
        if scope is not tree and not isinstance(scope, _SCOPES):
            continue
        nodes, todo = [], list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            nodes.append(node)
            if not isinstance(node, _SCOPES):
                todo.extend(ast.iter_child_nodes(node))
        yield nodes


def _alias_targets(value):
    """The callee names a local alias's value can be: a name, an
    attribute, or either branch of a conditional (a call result is
    none)."""
    if isinstance(value, ast.IfExp):
        return _alias_targets(value.body) | _alias_targets(value.orelse)
    return {value.id} if isinstance(value, ast.Name) else \
        {value.attr} if isinstance(value, ast.Attribute) else set()


def _aliases(nodes):
    """``{local name: callee names}`` of one scope's ``fn = A`` and
    ``fn = A if cond else B`` assignments."""
    aliases = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.setdefault(target.id, set()).update(
                        _alias_targets(node.value))
    return aliases


def _callee(call, owners, aliases):
    """The names a call reaches: ``super().__init__`` inside a class
    calls its bases, ``cls(...)`` the class itself and a local alias
    every callee bound to it."""
    func = call.func
    if id(call) in owners:
        return owners[id(call)]
    if isinstance(func, ast.Name):
        return [func.id, *sorted(aliases.get(func.id, ()))]
    return [func.attr if isinstance(func, ast.Attribute) else None]


def _settings(trees):
    """What ``trees`` pass: ``(callee, keyword)`` pairs, dict-literal
    keys, ``(callee, index)`` positions and callees called with
    ``*``/``**``."""
    keywords, keys, positions, starred = set(), set(), set(), set()
    for tree in trees:
        owners = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = [getattr(b, "id", getattr(b, "attr", None))
                     for b in cls.bases]
            for call in ast.walk(cls):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if getattr(func, "id", None) == "cls":
                    owners[id(call)] = [cls.name]
                elif isinstance(func, ast.Attribute) \
                        and func.attr == "__init__" \
                        and isinstance(func.value, ast.Call) \
                        and getattr(func.value.func, "id", None) == "super":
                    owners[id(call)] = bases
        for nodes in _scopes(tree):
            aliases = _aliases(nodes)
            for node in nodes:
                if isinstance(node, ast.Dict):
                    keys.update(k.value for k in node.keys
                                    if isinstance(k, ast.Constant)
                                    and isinstance(k.value, str))
                if not isinstance(node, ast.Call):
                    continue
                for callee in _callee(node, owners, aliases):
                    for keyword in node.keywords:
                        if keyword.arg is None:
                            starred.add(callee)
                        keywords.add((callee, keyword.arg))
                    for index, arg in enumerate(node.args):
                        if isinstance(arg, ast.Starred):
                            starred.add(callee)
                            break
                        positions.add((callee, index))
    return keywords, keys, positions, starred


def _unset(options, trees):
    """The ``options`` no call in ``trees`` sets."""
    keywords, keys, positions, starred = _settings(trees)
    unset = []
    for name, (callee, index) in options.items():
        option = name.rpartition("(")[2][:-1]
        if (callee, option) not in keywords and option not in keys \
                and callee not in starred \
                and (callee, index) not in positions:
            unset.append(name)
    return sorted(unset)


def test_every_option_is_set_outside_the_tests():
    unset = _unset(_options(), _caller_trees().values())
    assert sorted(set(unset) - set(ALLOWED_OPTIONS)) == []
    assert sorted(set(ALLOWED_OPTIONS) - set(unset)) == [], \
        "stale ALLOWED_OPTIONS entries"


#: A module whose options the synthetic checks below look for: ``f(b)``,
#: ``f(c)``, ``K.__init__(x)``, ``K.m(y)`` and ``D(z)``.
_OPTION_SOURCE = """
from dataclasses import dataclass

def f(a, b=1, *, c=2): ...

class K:
    def __init__(self, x=0): ...
    def m(self, y=0): ...

@dataclass
class D:
    n: int
    z: int = 0
"""


@pytest.mark.parametrize("caller, option", [
    ("f(0, b=2)", "f(b)"),                       # a keyword
    ("f(0, 2)", "f(b)"),                         # its positional index
    ("K(5)", "K.__init__(x)"),                   # ``self`` is not passed
    ("k.m(3)", "K.m(y)"),
    ("D(1, 2)", "D(z)"),                         # a dataclass field
    ("spec = {'c': 3}", "f(c)"),                 # a ``**spec`` key
    ("f(*args)", "f(c)"),                        # a ``*`` call
    ("class L(K):\n    def __init__(self):\n        super().__init__(1)",
     "K.__init__(x)"),
], ids=["keyword", "positional", "init-positional", "method-positional",
        "dataclass-positional", "dict-key", "starred", "super-init"])
def test_option_check_sees_each_way_to_set_an_option(caller, option):
    options = _module_options("m", ast.parse(_OPTION_SOURCE))
    assert f"m.{option}" in _unset(options, [])
    assert f"m.{option}" not in _unset(options, [ast.parse(caller)])


def test_option_check_resolves_a_keyword_to_its_callee():
    # A keyword of the option's name on another callee sets nothing.
    options = _module_options("m", ast.parse(_OPTION_SOURCE))
    assert "m.f(b)" in _unset(options, [ast.parse("other(b=2)")])
    assert "m.K.m(y)" in _unset(options, [ast.parse("k.other(y=2)")])
    assert "m.D(z)" in _unset(options, [ast.parse("K(z=2)")])


def test_option_check_follows_a_local_alias():
    # ``costmodel.epoch_cost``'s shape: the callee is bound to a local
    # name, conditionally or not, and called through it.
    options = _module_options("m", ast.parse(_OPTION_SOURCE))
    aliased = ("def g(cond):\n"
               "    fn = f if cond else k.m\n"
               "    fn(0, b=2, y=2)\n"
               "    kls = K\n"
               "    kls(x=1)\n")
    unset = _unset(options, [ast.parse(aliased)])
    assert not {"m.f(b)", "m.K.m(y)", "m.K.__init__(x)"} & set(unset)
    # Without the alias the same calls set nothing of ``f``, ``K.m`` or
    # ``K``; nor does an alias bound in another function, or a call
    # result (``variant = get_spmm(...)``).
    for caller in ("def g():\n    fn(0, b=2, y=2)\n    kls(x=1)\n",
                   "def h(cond):\n    fn = f if cond else k.m\n"
                   "    kls = K\n"
                   "def g():\n    fn(0, b=2, y=2)\n    kls(x=1)\n",
                   "fn = make(f)\nfn(0, b=2)\n"):
        assert {"m.f(b)", "m.K.m(y)", "m.K.__init__(x)"} <= set(
            _unset(options, [ast.parse(caller)]))


def test_option_check_reports_options_only_their_defaults_set():
    # ``Workspace(zeroed=False)``'s shape: nothing passes the option.
    options = _module_options("m", ast.parse(_OPTION_SOURCE))
    assert _unset(options, [ast.parse("f(0)\nK()\nK().m()\nD(1)")]) == [
        "m.D(z)", "m.K.__init__(x)", "m.K.m(y)", "m.f(b)", "m.f(c)"]


def test_method_check_reports_a_method_only_its_own_body_reads():
    path = pathlib.Path("m.py")
    tree = ast.parse("class K:\n"
                     "    def used(self):\n        return 1\n"
                     "    def spare(self):\n        return self.spare\n"
                     "K().used()\n")
    classes = [("m", path, tree.body[0])]
    assert _unread_methods(classes, {path: tree}, "") == ["m.K.spare"]
    assert _unread_methods(classes, {path: tree}, "repro spare") == []
