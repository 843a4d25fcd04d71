"""Source hygiene of the qdescent package, read from its syntax trees:
imports at module level and from the standard library only, no
__import__, no dead functions, classes, methods or module-level names, no
module-level mutable container (a global registry) or per-process
function cache, no mod-m product reduced other than by the fused kernel,
no Fraction per coefficient in RatPoly's arithmetic, and Tate's algorithm
run only by the model that keeps its result and on ints, with nothing
from fractions;
pyproject.toml declares no runtime dependency and every console script it
declares resolves; every helper module of the tests is imported by a test
module; every defaulted parameter of src/ is set by some call, and no
parameter is passed the same literal by every call; every parameter is
read by its function; and every dataclass field is read."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qdescent"
TESTS = ROOT / "tests"
TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(SRC.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_no_relative_import_inside_a_function():
    found = [f"{name}:{node.lineno}"
             for name, tree in TREES.items()
             for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS)
             for node in ast.walk(fn)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not found


def test_no_dunder_import():
    found = [f"{name}:{node.lineno}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "__import__"]
    assert not found


def referenced_names(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def imported_modules(tree):
    """(line, module) of every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_one_multiply_then_reduce():
    # a product reduced by a monic modulus goes through poly.mp_mulmod, the
    # one fused kernel, never through mp_divmod_monic(mp_mul(...), ...)
    divides = ("mp_divmod_monic",)
    found = [f"{name}:{node.lineno}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in divides
             and node.args and isinstance(node.args[0], ast.Call)
             and isinstance(node.args[0].func, ast.Name)
             and node.args[0].func.id == "mp_mul"]
    assert not found


def test_ratpoly_builds_no_fraction_per_coefficient():
    # RatPoly's arithmetic runs on its integer numerators over one
    # denominator: no method but __init__ and coeffs calls Fraction, or
    # reads coeffs (one Fraction per coefficient), inside a loop or a
    # comprehension, the iterables they run over included
    [cls] = [node for node in TREES["poly.py"].body
             if isinstance(node, ast.ClassDef) and node.name == "RatPoly"]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = {f"{fn.name}:{node.lineno}"
             for fn in cls.body if isinstance(fn, FUNCTIONS)
             and fn.name not in ("__init__", "coeffs")
             for loop in ast.walk(fn) if isinstance(loop, loops)
             for node in ast.walk(loop)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Fraction"
             or isinstance(node, ast.Attribute) and node.attr == "coeffs"}
    assert not found


def test_private_names_cross_modules_only_from_an_allowlist():
    # a module's private helpers are its own; the shared kernels another
    # module of src/ may import by name are listed here
    allowed = {"_bareiss_det", "_vp_bounded"}
    found = [f"{name}:{node.lineno}:{alias.name}"
             for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names
             if alias.name.startswith("_") and alias.name not in allowed]
    assert not found


def test_only_standard_library_imports():
    allowed = sys.stdlib_module_names | {"qdescent"}
    found = [f"{name}:{line}:{module}"
             for name, tree in TREES.items()
             for line, module in imported_modules(tree)
             if module.split(".")[0] not in allowed]
    assert not found


# (file, module-level statement, names it references) over src/
STATEMENTS = [(name, stmt, referenced_names(stmt))
              for name, tree in TREES.items() for stmt in tree.body]


def used_in_src(stmt) -> bool:
    """Is the name stmt defines referenced by another statement of src/?"""
    return any(stmt.name in names for _, other, names in STATEMENTS
               if other is not stmt)


def test_every_private_function_is_referenced():
    # a module-level _name function must be referenced by code other than
    # its own body
    unused = [f"{name}:{stmt.name}" for name, stmt, _ in STATEMENTS
              if isinstance(stmt, FUNCTIONS) and stmt.name.startswith("_")
              and not stmt.name.startswith("__") and not used_in_src(stmt)]
    assert not unused


def outside_trees() -> list:
    """The syntax trees of tests/ and perfbench/."""
    paths = [*TESTS.glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    return [ast.parse(path.read_text()) for path in paths]


def names_outside_src() -> set:
    """Every name tests/ and perfbench/ reference, and every string they
    hold (they also name functions in strings)."""
    outside = set()
    for tree in outside_trees():
        outside |= referenced_names(tree)
        outside |= {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)}
    return outside


def test_every_public_definition_is_referenced():
    # a public module-level function or class must be used by other code of
    # src/, or by tests/ or perfbench/
    outside = names_outside_src()
    unused = [f"{name}:{stmt.name}" for name, stmt, _ in STATEMENTS
              if isinstance(stmt, (*FUNCTIONS, ast.ClassDef))
              and not stmt.name.startswith("_")
              and stmt.name not in outside and not used_in_src(stmt)]
    assert not unused


def test_every_public_method_is_referenced():
    # a public method (or property) of a class of src/ must be referenced by
    # code of src/ other than its own body, or by tests/ or perfbench/
    outside = names_outside_src()
    unused = []
    for name, cls, _ in STATEMENTS:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, FUNCTIONS) or fn.name.startswith("_") \
                    or fn.name in outside:
                continue
            elsewhere = [names for _, stmt, names in STATEMENTS
                         if stmt is not cls]
            elsewhere += [referenced_names(other) for other in cls.body
                          if other is not fn]
            if not any(fn.name in names for names in elsewhere):
                unused.append(f"{name}:{cls.name}.{fn.name}")
    assert not unused


def assigned_names(stmt) -> list:
    """The names a module-level assignment binds, dunder names aside."""
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)
            and not (node.id.startswith("__") and node.id.endswith("__"))]


def module_reads(tree, module: str) -> set:
    """The names tree imports by name from the qdescent module, or reads
    as an attribute of it (module.name, qdescent.module.name, or through
    an alias of the module)."""
    aliases, out = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            if source == module:
                out |= {alias.name for alias in node.names}
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == module
                        and source in ("qdescent", "")}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names
                        if alias.name == f"qdescent.{module}"
                        and alias.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id in aliases
                or isinstance(node.value, ast.Attribute)
                and node.value.attr == module):
            out.add(node.attr)
    return out


def test_every_module_level_name_is_read():
    # a name assigned at module level in src/ must be read by another
    # statement of its module, imported by name from that module, or read
    # as <module>.<name>, by src/, tests/ or perfbench/
    trees = [*TREES.values(), *outside_trees()]
    unread = []
    for name, stmt, _ in STATEMENTS:
        module = name.removesuffix(".py")
        for target in assigned_names(stmt):
            in_module = any(
                isinstance(node, ast.Name) and node.id == target
                and isinstance(node.ctx, ast.Load)
                for other in TREES[name].body if other is not stmt
                for node in ast.walk(other))
            if not in_module and not any(target in module_reads(tree, module)
                                         for tree in trees):
                unread.append(f"{name}:{target}")
    assert not unread


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    # a field of a src/ dataclass must be read as an attribute by src/,
    # tests/ or perfbench/; a class that serializes itself with asdict
    # reads every field
    reads = {node.attr for tree in [*TREES.values(), *outside_trees()]
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = [f"{name}:{cls.name}.{stmt.target.id}"
              for name, cls, names in STATEMENTS
              if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
              and "asdict" not in names
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in reads]
    assert not unread


def test_no_module_level_mutable_container():
    # state shared by every caller in the process belongs to an object the
    # caller creates: no dict, list or set at module level in src/
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)
    found = [f"{name}:{stmt.lineno}" for name, stmt, _ in STATEMENTS
             if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             and (isinstance(stmt.value, mutable)
                  or isinstance(stmt.value, ast.Call)
                  and isinstance(stmt.value.func, ast.Name)
                  and stmt.value.func.id in ("dict", "list", "set"))]
    assert not found


def test_no_function_cache_decorator():
    # functools.cache and lru_cache keep a per-process cache, a registry
    # that the rule above does not see; results belong to the object that
    # owns them (a cached_property, as WeierstrassModel.reduction keeps)
    caches = ("cache", "lru_cache")
    found = [f"{name}:{fn.lineno}:{fn.name}"
             for name, tree in TREES.items() for fn in ast.walk(tree)
             if isinstance(fn, (*FUNCTIONS, ast.ClassDef))
             for d in fn.decorator_list
             for node in [d.func if isinstance(d, ast.Call) else d]
             if isinstance(node, ast.Name) and node.id in caches
             or isinstance(node, ast.Attribute) and node.attr in caches]
    assert not found


def test_tate_imports_nothing_from_fractions():
    # Tate's algorithm answers in the integral model's integers: its change
    # of coordinates is four ints, with no second, rational, system
    assert "fractions" not in {module for _, module in
                               imported_modules(TREES["tate.py"])}


def test_tate_runs_only_in_the_model_memo():
    # each (model, prime) has one ReductionData: every caller reads
    # WeierstrassModel.reduction, the one caller of tate_algorithm
    callers = {f"{name}:{fn.name}"
               for name, tree in TREES.items() for fn in ast.walk(tree)
               if isinstance(fn, FUNCTIONS)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and "tate_algorithm" in referenced_names(node.func)}
    assert callers == {"elliptic.py:reduction"}


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"].get("dependencies", []) == []


def test_every_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_test_helper_module_is_imported():
    helpers = {path.stem for path in TESTS.glob("*.py")
               if not path.name.startswith("test_")
               and path.name != "conftest.py"}
    imported = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert not helpers - imported


def parameters():
    """(file, function, parameter, the parameter's positional index in a
    call or None when it is keyword-only, whether it has a default) of
    every named parameter of src/; an __init__ is called by its class
    name, and self or cls takes no position in a call."""
    for name, tree in TREES.items():
        owners = {fn: cls.name for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTIONS):
                continue
            called = owners[fn] if fn.name == "__init__" else fn.name
            a = fn.args
            positional = a.posonlyargs + a.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") \
                else 0
            first = len(positional) - len(a.defaults)
            for i in range(skip, len(positional)):
                yield name, called, positional[i].arg, i - skip, i >= first
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                yield name, called, arg.arg, None, default is not None


def defaulted_parameters():
    """(file, function, parameter, positional index) of every defaulted
    parameter of src/, as parameters() gives them."""
    for name, called, param, index, defaulted in parameters():
        if defaulted:
            yield name, called, param, index


def calls_by_name() -> dict:
    """{called name: [ast.Call]} over src/, tests/ and perfbench/."""
    out = {}
    for tree in [*TREES.values(), *outside_trees()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.id if isinstance(func, ast.Name) else
                          func.attr if isinstance(func, ast.Attribute)
                          else None)
                out.setdefault(called, []).append(node)
    return out


def sets(call: ast.Call, param: str, index) -> bool:
    """Does the call pass a value for the parameter, by keyword, by
    position or by unpacking?"""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return (len(call.args) > index
            or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_is_set():
    # a parameter with a default that no call in src/, tests/ or perfbench/
    # sets is an option nobody uses: make it a constant or delete it
    calls = calls_by_name()
    unset = [f"{name}:{fn}({param})"
             for name, fn, param, index in defaulted_parameters()
             if not any(sets(call, param, index)
                        for call in calls.get(fn, []))]
    assert not unset


NO_LITERAL = object()


def passed_literal(call: ast.Call, param: str, index):
    """The literal value the call passes for the parameter, or NO_LITERAL
    when it passes an expression, unpacks, or leaves it to its default."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) \
            or any(kw.arg is None for kw in call.keywords):
        return NO_LITERAL
    node = next((kw.value for kw in call.keywords if kw.arg == param), None)
    if node is None and index is not None and len(call.args) > index:
        node = call.args[index]
    if node is None:
        return NO_LITERAL
    try:
        return ast.literal_eval(node)
    except ValueError:
        return NO_LITERAL


def test_no_parameter_takes_one_literal():
    # a parameter to which every call in src/, tests/ and perfbench/ passes
    # the same literal is a constant in disguise: make it one
    calls = calls_by_name()
    fixed = []
    for name, fn, param, index, _ in parameters():
        values = [passed_literal(call, param, index)
                  for call in calls.get(fn, [])]
        if values and values[0] is not NO_LITERAL \
                and all(v is not NO_LITERAL and v == values[0]
                        and type(v) is type(values[0]) for v in values):
            fixed.append(f"{name}:{fn}({param}={values[0]!r})")
    assert not fixed


def test_every_parameter_is_read():
    # a parameter of a src/ function that its body never reads is an
    # argument every caller computes for nothing: drop it; self and cls
    # are exempt
    unread = []
    for name, tree in TREES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTIONS):
                continue
            a = fn.args
            params = [arg.arg for arg in (*a.posonlyargs, *a.args,
                                          *a.kwonlyargs, a.vararg, a.kwarg)
                      if arg is not None and arg.arg not in ("self", "cls")]
            loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)}
            unread += [f"{name}:{fn.name}({param})" for param in params
                       if param not in loaded]
    assert not unread
