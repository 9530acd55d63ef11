"""Static hygiene of the package, read with the standard library's ast:
no unused imports, no imports inside functions except cycle-breakers, no
module-level imports beyond a fixed standard-library set, the field of
fractions k(y) imported only where it is needed, no
module-level functions or classes and no methods that nothing calls, and no
stored attributes that nothing reads."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "planegalois")

# Imports kept on purpose although the module does not use them.
UNUSED_IMPORT_ALLOWLIST = {
    ("curves", "sylvester_det"): "bench/tests/test_bench.py pins the binding curves.sylvester_det",
}

# Imports inside functions, each breaking an import cycle: (module, imported module).
FUNCTION_IMPORT_ALLOWLIST = {
    ("fields", "parsing"): "parsing imports fields at module level (Field.parse)",
    ("polynomials", "parsing"): "parsing imports polynomials at module level (MultiPoly.__repr__ and __str__)",
}


def _modules():
    return sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _parse(path: str) -> ast.Module:
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _python_files(*dirs):
    for top in dirs:
        for base, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(".py"):
                    yield os.path.join(base, name)


def _used_names(tree: ast.Module) -> set:
    """Names loaded anywhere in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", [m for m in _modules() if m != "__init__"])
def test_no_unused_imports(module):
    """`__init__` is exempt: its imports are the package's public names."""
    tree = _parse(os.path.join(PACKAGE, f"{module}.py"))
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and (module, bound) not in UNUSED_IMPORT_ALLOWLIST:
                    unused.append(bound)
    assert unused == []


@pytest.mark.parametrize("module", _modules())
def test_no_function_level_imports(module):
    """Imports sit at the top of the module, unless they break a cycle."""
    tree = _parse(os.path.join(PACKAGE, f"{module}.py"))
    inside = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    inside.append(node.module)
                elif isinstance(node, ast.Import):
                    inside.extend(alias.name for alias in node.names)
    assert [name for name in inside if (module, name) not in FUNCTION_IMPORT_ALLOWLIST] == []


# The standard-library modules the package imports at module level.  Each
# set-up that runs without bytecode compiles every imported module, so a new
# one (or module-level work) is paid at every start of the program.
STDLIB_IMPORTS = {"argparse", "dataclasses", "fractions", "itertools", "json", "math", "random", "sys", "time", "typing"}


@pytest.mark.parametrize("module", _modules())
def test_module_level_imports_stay_within_the_standard_set(module):
    """Imports outside functions (under a top-level `if` or `try` too) are
    package modules, `__future__` or STDLIB_IMPORTS."""
    tree = _parse(os.path.join(PACKAGE, f"{module}.py"))
    in_functions = {
        id(n) for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(fn)
    }
    outside = []
    for node in ast.walk(tree):
        if id(node) in in_functions:
            continue
        if isinstance(node, ast.Import):
            outside += [a.name for a in node.names if a.name.split(".")[0] not in STDLIB_IMPORTS]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__":
            if node.module.split(".")[0] not in STDLIB_IMPORTS:
                outside.append(node.module)
    assert outside == []


# The field of fractions k(y) and its helpers, and the modules that may import
# them: galois computes over k(y), and `__init__` re-exports RatFunc.
RATFUNC_NAMES = {"RatFunc", "RatFuncField", "clear_denominators"}
RATFUNC_IMPORTERS = {"galois", "__init__"}


@pytest.mark.parametrize("module", [m for m in _modules() if m not in RATFUNC_IMPORTERS | {"polynomials"}])
def test_rational_functions_stay_in_galois(module):
    """Moebius maps over the base are polynomial (`maps`), so no other module
    imports RatFunc, RatFuncField or clear_denominators."""
    tree = _parse(os.path.join(PACKAGE, f"{module}.py"))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert imported & RATFUNC_NAMES == set()


def _attributes(load_only: bool = False) -> set:
    """Attribute names referenced anywhere in src/, tests/ or bench/ (only
    the ones read, with `load_only`)."""
    attributes = set()
    for path in _python_files("src", "tests", "bench"):
        for n in ast.walk(_parse(path)):
            if isinstance(n, ast.Attribute) and not (load_only and isinstance(n.ctx, ast.Store)):
                attributes.add(n.attr)
    return attributes


def test_every_module_level_definition_is_used_somewhere():
    """Each module-level function and class of the package is loaded, by name
    or as an attribute, somewhere in src/ (`__init__` re-exports do not
    count), tests/ or bench/."""
    loaded = set()
    for path in _python_files("src", "tests", "bench"):
        if path == os.path.join(PACKAGE, "__init__.py"):
            continue
        for n in ast.walk(_parse(path)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    unused = []
    for module in _modules():
        for node in _parse(os.path.join(PACKAGE, f"{module}.py")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in loaded:
                unused.append(f"{module}.{node.name}")
    assert unused == []


def test_every_method_is_called_somewhere():
    """Each non-dunder method of a package class is read as an attribute
    somewhere in src/, tests/ or bench/.  Only attribute references count,
    so a local variable that shares a method's name does not keep it alive."""
    attributes = _attributes()
    unreferenced = []
    for module in _modules():
        for cls in ast.walk(_parse(os.path.join(PACKAGE, f"{module}.py"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = item.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name not in attributes:
                    unreferenced.append(f"{module}.{cls.name}.{name}")
    assert unreferenced == []


def _stored_on_self(cls: ast.ClassDef):
    """Names a class stores with `self.name = ...` or, in the immutable
    classes, `object.__setattr__(self, "name", ...)`."""
    for n in ast.walk(cls):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            if isinstance(n.value, ast.Name) and n.value.id == "self":
                yield n.attr
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "__setattr__":
            target, name = (n.args + [None, None])[:2]
            if isinstance(target, ast.Name) and target.id == "self" and isinstance(name, ast.Constant):
                yield name.value


def test_every_stored_attribute_is_read_somewhere():
    """Each attribute that a package class stores on `self` is read as an
    attribute somewhere in src/, tests/ or bench/."""
    read = _attributes(load_only=True)
    unread = []
    for module in _modules():
        for cls in ast.walk(_parse(os.path.join(PACKAGE, f"{module}.py"))):
            if isinstance(cls, ast.ClassDef):
                unread.extend(f"{module}.{cls.name}.{name}" for name in _stored_on_self(cls) if name not in read)
    assert unread == []


def test_no_floating_point():
    """No module imports cmath or calls complex() or float(); the one
    exception is the degree sentinel polynomials.NEG_INF = float("-inf")."""
    found = []
    for module in _modules():
        tree = _parse(os.path.join(PACKAGE, f"{module}.py"))
        allowed = {
            id(node.value)
            for node in ast.walk(tree)
            if module == "polynomials"
            and isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["NEG_INF"]
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{module}: import {a.name}" for a in node.names if a.name == "cmath"]
            elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
                found.append(f"{module}: from cmath import")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("complex", "float"):
                if id(node) not in allowed:
                    found.append(f"{module}:{node.lineno}: {node.func.id}()")
    assert found == []
