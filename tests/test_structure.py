import ast
import builtins
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "specnet"


def test_no_private_imports_across_modules():
    """A module imports only public names from its sibling modules."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level == 1 or (node.module or "").startswith("specnet")
            for alias in node.names if sibling else ():
                if alias.name.startswith("_"):
                    offenders.append("%s:%d imports %s" % (path.name, node.lineno, alias.name))
    assert not offenders, offenders


def test_every_import_is_used():
    """Each name a module imports is read somewhere in that module."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        offenders.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not offenders, offenders


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_private_attributes_only_through_self():
    """An underscore attribute that specnet defines is read only through
    bare ``self`` or ``cls``, never through another object or module."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    offenders = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and _private(node.attr) and node.attr in defined
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                offenders.append("%s:%d reads %s" % (name, node.lineno, ast.unparse(node)))
    assert not offenders, offenders


def test_every_error_is_a_value_or_runtime_error():
    """Every exception class specnet defines derives from ValueError or
    RuntimeError, the two the CLI reports with exit 2."""
    classes = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("specnet." + path.stem)
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert classes
    offenders = [c.__qualname__ for c in classes if not issubclass(c, (ValueError, RuntimeError))]
    assert not offenders, offenders


def test_every_raise_names_a_value_runtime_or_os_error():
    """Every ``raise`` in specnet names ValueError, RuntimeError, OSError or
    a subclass of one, the errors the CLI reports with exit 2."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("specnet." + path.stem)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = ((getattr(module, exc.id, None) or getattr(builtins, exc.id, None))
                   if isinstance(exc, ast.Name) else None)
            if not (isinstance(cls, type) and issubclass(cls, (ValueError, RuntimeError, OSError))):
                offenders.append("%s:%d raises %s" % (path.name, node.lineno, ast.unparse(exc)))
    assert not offenders, offenders


def _sites(matches):
    """Each node in src/ that ``matches``, as "module:function", the
    function being the innermost one that encloses it ("<module>" at the
    top level)."""
    sites = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif matches(node):
            sites.append("%s:%s" % (module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, "<module>")
    return sites


def _call_sites(name):
    """Each call in src/ of ``name``, whether as a method or by name, as
    "module:function" (``_sites``)."""
    def matches(node):
        func = getattr(node, "func", None)
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return isinstance(node, ast.Call) and called == name

    return _sites(matches)


def test_only_soliton_bps_calls_tree_chain():
    """Wall classes are decided in the homology engine: no src/ module but
    soliton_bps calls ``tree_chain``, whether as a method or by name."""
    callers = _call_sites("tree_chain")
    assert callers and all(c.startswith("soliton_bps:") for c in callers), callers


def test_class_of_chain_caller_is_the_oracle():
    """Every class is read off a walk but where the oracle asks for the
    solve: ``class_of_chain`` is called only by ``_tree_soliton`` (the
    brute-force BPS oracle).  Every cap, wall and path has a slit word, so
    no free path or wall falls back to a solve, the letters' classes invert
    the b-strands' letter words, and no marked-point, BPS or augmentation
    value is solved anywhere else."""
    assert set(_call_sites("class_of_chain")) == {"soliton_bps:_tree_soliton"}


def test_no_function_retries_non_generic_geometry():
    """A degeneracy propagates to the caller, as the ``soliton_bps``
    docstring says: the only handlers in src/ that can catch
    NonGenericGeometry are ``homotopic_pair``'s, which draws a move again
    when its winding test meets the loop, and ``cli.main``'s, which reports
    the error and exits 2."""
    def catches(node):
        if not isinstance(node, ast.ExceptHandler):
            return False
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(t is None or getattr(t, "id", None) in
                   ("NonGenericGeometry", "RuntimeError", "Exception", "BaseException")
                   for t in types)

    assert sorted(_sites(catches)) == ["cli:main", "nonabel:homotopic_pair"]


def _span_targets():
    spans = SRC.parents[1] / "perfbench" / "spans.py"
    return next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])


def test_benchmark_span_targets_exist():
    """Every (module, attribute path) the benchmark's span recorder wraps
    still resolves in specnet."""
    targets = _span_targets()
    assert targets
    for module, path, _span in targets:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            assert hasattr(obj, attr), "%s.%s" % (module, path)
            obj = getattr(obj, attr)
        assert callable(obj), "%s.%s" % (module, path)


def _imported_modules():
    """The top-level names of the absolute imports under src/specnet."""
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported


def test_declared_dependencies_match_imports():
    """The third-party modules imported under src/specnet are exactly the
    dependencies that pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    third_party = _imported_modules() - set(sys.stdlib_module_names) - {"specnet"}
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]}
    assert third_party == declared


def test_src_imports_only_the_standard_library():
    """specnet runs on the standard library alone."""
    assert _imported_modules() <= set(sys.stdlib_module_names) | {"specnet"}


def test_cli_runs_with_numpy_blocked(capsys):
    """wkb-trace (Airy and the cubic) and bps run in a process where
    importing numpy fails, with the output they give here."""
    from specnet.cli import main

    runs = [["wkb-trace", "--curve", "w^2 - z", "--theta", "0", "--mass", "10", "--radius", "5"],
            ["wkb-trace", "--curve", "w^3 - 3*w + x", "--theta", "0.3"],
            ["bps", "five_crossing"]]
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from specnet.cli import main\n"
              "for argv in %r:\n"
              "    assert main(argv) == 0\n" % (runs,))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for argv in runs:
        assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def _referenced(tree):
    """Names a tree reads: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def test_every_definition_has_a_caller():
    """Every function, class and method defined in src/specnet (dunders
    aside) is referenced outside its own definition: in src/, in tests/ or
    as a benchmark span target."""
    tests = SRC.parents[1] / "tests"
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py"))]
    counts = {}
    for tree in trees:
        for name in _referenced(tree):
            counts[name] = counts.get(name, 0) + 1
    for _module, path, _span in _span_targets():
        for name in path.split("."):
            counts[name] = counts.get(name, 0) + 1
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                inside = sum(name == node.name for name in _referenced(node))
                if counts.get(node.name, 0) <= inside:
                    offenders.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert not offenders, offenders


def test_every_stored_attribute_is_read():
    """Every attribute that src/specnet stores, by assignment or as a
    dataclass field, is read in src/ or perfbench/; a test alone reading it
    does not count."""
    readers = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    read = {node.attr for path in readers
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored = [(node.attr, node)]
            elif isinstance(node, ast.ClassDef):
                stored = [(item.target.id, item) for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            else:
                continue
            offenders += ["%s:%d %s" % (path.name, where.lineno, name)
                          for name, where in stored if name not in read]
    assert not offenders, offenders


def test_readme_names_resolve():
    """Every backticked ``module.name`` or ``Class.attr`` in README whose
    head is ``specnet``, one of its modules or a class one of them defines
    resolves in specnet."""
    heads = {"specnet": importlib.import_module("specnet")}
    for path in sorted(SRC.glob("[!_]*.py")):
        module = heads[path.stem] = importlib.import_module("specnet." + path.stem)
        heads.update((name, obj) for name, obj in vars(module).items()
                     if isinstance(obj, type) and obj.__module__ == module.__name__)
    readme = (SRC.parents[1] / "README.md").read_text()
    checked, offenders = set(), []
    for ref in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme):
        head, *path = ref.split(".")
        if head not in heads:
            continue
        obj = heads[head]
        for attr in path:
            obj = getattr(obj, attr, None)
        checked.add(ref)
        if obj is None:
            offenders.append(ref)
    assert len(checked) >= 10 and not offenders, (sorted(checked), offenders)
