"""Each module's __all__ is its one export list, and the package re-exports exactly
those; every export and every public method of an exported class has a caller,
and so has every option of every export."""

import ast
import importlib
import inspect
import os
import re
import types

import pytest

import purestat

MODULES = ("linalg", "hamiltonians", "states", "ensembles", "dynamics", "bounds")
# the option rule also covers the runner and the registry, which the package
# does not re-export
OPTION_MODULES = MODULES + ("harness", "experiments")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# options that only the tests pass, each with the reason it stays
TEST_OPTIONS = {
    # test seams: the tests pass a mapping and a CPU count in place of
    # os.environ and os.cpu_count(), which the clamp reads otherwise
    "harness.worker_count(environ)",
    "harness.worker_count(cpus)",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_public_function_and_class_is_in_all(name):
    module = importlib.import_module(f"purestat.{name}")
    public = {attr for attr, obj in vars(module).items()
              if not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    assert public <= set(module.__all__), sorted(public - set(module.__all__))
    assert len(set(module.__all__)) == len(module.__all__)
    assert all(hasattr(module, attr) for attr in module.__all__)


def test_the_package_reexports_exactly_the_module_lists():
    listed = {attr for name in MODULES
              for attr in importlib.import_module(f"purestat.{name}").__all__}
    exported = {attr for attr, obj in vars(purestat).items()
                if not attr.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exported == listed
    assert sorted(purestat.__all__) == sorted(listed)


def _referenced_names(source) -> set[str]:
    """Every identifier that code reads: Name nodes and attribute names.
    Strings, comments, imports and definitions do not count.  source is a
    source string or a parsed node."""
    names = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _caller_sources() -> list[str]:
    """The package and demo sources, and the README's Python example."""
    paths = [os.path.join(ROOT, folder, f) for folder in ("src/purestat", "demos")
             for f in sorted(os.listdir(os.path.join(ROOT, folder))) if f.endswith(".py")]
    sources = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        sources += re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    return sources


def _public_names():
    """(qualified name, called name) of every export and of every public
    method, classmethod, staticmethod and property of an exported class."""
    for name in MODULES:
        module = importlib.import_module(f"purestat.{name}")
        for attr in module.__all__:
            yield f"{name}.{attr}", attr
            obj = getattr(module, attr)
            if inspect.isclass(obj):
                for member, value in vars(obj).items():
                    if not member.startswith("_") and isinstance(
                            value, (types.FunctionType, classmethod, staticmethod, property)):
                        yield f"{name}.{attr}.{member}", member


def test_every_export_is_called_outside_the_tests():
    """The rule is by name: a method counts as called when any caller
    source reads an attribute of that name."""
    referenced = set().union(*map(_referenced_names, _caller_sources()))
    assert sorted(q for q, called in _public_names() if called not in referenced) == []


# name -> the one top-level function of the package that may read it: the
# complex Gaussian draw and the Hermitian eigenvalue solver (eigenvectors,
# eigh, are not covered)
ONE_HOME = {"standard_normal": "ensembles.complex_normals",
            "eigvalsh": "linalg.hermitian_spectrum"}


def _readers(names, modules) -> dict[str, set]:
    """name -> every top-level statement of the package modules that reads
    it, named by its module and, for a function or class, its name."""
    readers = {name: set() for name in names}
    for module in modules:
        with open(os.path.join(ROOT, "src", "purestat", f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            where = f"{module}.{stmt.name}" if hasattr(stmt, "name") else module
            for name in readers.keys() & _referenced_names(stmt):
                readers[name].add(where)
    return readers


def test_the_gaussian_draw_and_the_eigenvalue_solver_each_have_one_home():
    package = sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "src", "purestat"))
                     if f.endswith(".py"))
    assert _readers(ONE_HOME, package) == {name: {home} for name, home in ONE_HOME.items()}


# the names that derive a random stream from the seed
STREAM_NAMES = ("stream", "SETUP_DOMAIN", "TRIAL_DOMAIN", "trial_streams", "trial_stream")


def test_the_experiments_derive_no_stream_from_the_seed():
    """The harness hands every hook its stream, the artifacts hook trial 0's."""
    assert _readers(STREAM_NAMES, ["experiments"]) == {name: set() for name in STREAM_NAMES}


def test_one_function_redraws_until_non_resonant():
    """The non-resonance certificate has one policy: the redraw reads it, and
    the time-average horizon refuses a Hamiltonian without it.  GapReport,
    which defines the field, is the only other statement that names it."""
    package = sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "src", "purestat"))
                     if f.endswith(".py"))
    assert _readers(["non_resonant"], package) == {"non_resonant": {
        "hamiltonians.GapReport", "ensembles.redraw_until_non_resonant",
        "dynamics.default_horizon"}}


def _passed_arguments(source: str) -> dict[str, list]:
    """callee name -> one (positional arguments, keyword names) per call.

    The callee is the called name or attribute.  An argument that is a bare
    name of an option (a parameter with a default) of the enclosing function
    only forwards that option when it is passed to a parameter of the same
    name, and then does not count: a positional argument is recorded as that
    name (None for any other argument), and a forwarding keyword is left out."""
    calls: dict[str, list] = {}

    def visit(node, options):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            options = {p.arg for p in positional[len(positional) - len(a.defaults):]} | {
                p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

            def option(value):
                return value.id if isinstance(value, ast.Name) and value.id in options else None
            calls.setdefault(name, []).append(
                ([option(v) for v in node.args],
                 {k.arg for k in node.keywords if k.arg and option(k.value) != k.arg}))
        for child in ast.iter_child_nodes(node):
            visit(child, options)
    visit(ast.parse(source), set())
    return calls


def _exported_callables():
    """(qualified name, called name, signature without self or cls) of every
    exported function, class constructor and public method."""
    for name in OPTION_MODULES:
        module = importlib.import_module(f"purestat.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", attr, inspect.signature(obj)
            elif inspect.isclass(obj):
                yield f"{name}.{attr}", attr, inspect.signature(obj)
                for method, fn in vars(obj).items():
                    if method.startswith("_") or not isinstance(
                            fn, (classmethod, types.FunctionType)):
                        continue
                    sig = inspect.signature(getattr(fn, "__func__", fn))
                    params = list(sig.parameters.values())[1:]
                    yield f"{name}.{attr}.{method}", method, sig.replace(parameters=params)


def test_every_option_is_passed_outside_the_tests():
    """Every parameter with a default is set, by keyword or by position, by
    at least one call outside the tests: an option no caller sets is a
    configuration that only the tests run."""
    calls: dict[str, list] = {}
    for source in _caller_sources():
        for callee, found in _passed_arguments(source).items():
            calls.setdefault(callee, []).extend(found)
    unpassed = set()
    for qualname, callee, sig in _exported_callables():
        for i, p in enumerate(sig.parameters.values()):
            if p.default is inspect.Parameter.empty:
                continue
            by_position = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            if not any(p.name in keywords
                       or (by_position and len(args) > i and args[i] != p.name)
                       for args, keywords in calls.get(callee, [])):
                unpassed.add(f"{qualname}({p.name})")
    assert sorted(unpassed - TEST_OPTIONS) == []
    assert TEST_OPTIONS <= unpassed   # an allowlisted option that a caller now sets goes
