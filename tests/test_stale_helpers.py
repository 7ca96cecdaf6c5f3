"""Every helper in the package is still used.

A private function or class (a name with one leading underscore, not a
dunder) that nothing in ``src/goursat`` refers to beyond its own
definition is dead code: its only callers were deleted.  A public
top-level function or class must be referred to in ``src/goursat`` or in
the tests.  A method name (dunders excepted) must be read somewhere in
the package or the tests; names such as ``render`` are shared by several
classes, so a reference cannot be told apart from another's, and this
catches only a name that nothing reads at all.

Three boundaries are kept too: only ``polynomial.py`` names ``Poly`` (the
other modules hold a monomial as an int and an exponent tuple), only
``polynomial.py`` adopts a term dict through ``Poly._wrap``, and no other
module imports ``polynomial``, which holds ``Poly`` alone.  And every
memo is bounded: no ``functools.cache``, bare ``lru_cache`` or
``lru_cache(maxsize=None)``.  And every name that the benchmark's tracer
(``bench/trace_worker.py``) patches still resolves.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import goursat

PACKAGE = Path(goursat.__file__).parent
TESTS = Path(__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(paths) -> set[str]:
    """Names read in the files, leaving out a top-level function's or
    class's references to itself."""
    used: set[str] = set()
    for path in paths:
        for statement in _parse(path).body:
            own = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_private_helper_is_referenced():
    defined: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    assert defined, "no private helpers found; is the package path right?"
    used = _used_names(PACKAGE.glob("*.py"))
    stale = sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)
    assert not stale, f"private helpers with no reference in the package: {stale}"


def test_every_public_top_level_name_is_referenced():
    defined: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    assert defined, "no public names found; is the package path right?"
    used = _used_names([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
    stale = sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)
    assert not stale, f"public names with no reference in the package or tests: {stale}"


def test_every_method_name_is_read():
    defined: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not (item.name.startswith("__") and item.name.endswith("__")):
                            defined.setdefault(item.name, f"{path.name}:{item.lineno}")
    assert defined, "no methods found; is the package path right?"
    used = _used_names([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
    stale = sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)
    assert not stale, f"method names read nowhere in the package or tests: {stale}"


def _names(path: Path):
    """Every name, attribute and import alias in the file."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_symcalc_names_no_poly():
    # Nor does any module but polynomial.py: symcalc's monomials, and the
    # terms that oracle's generic jets evaluate for cli's verify, are an
    # int and an exponent tuple.
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"symcalc.py", "oracle.py", "cli.py"} <= {p.name for p in modules}
    naming = [p.name for p in modules if p.name != "polynomial.py" and "Poly" in set(_names(p))]
    assert not naming, f"Poly named outside polynomial.py: {naming}"


def test_only_polynomial_wraps_a_term_dict():
    paths = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
    callers = sorted(
        p.name for p in paths if p.name != "polynomial.py" and "_wrap" in set(_names(p))
    )
    assert not callers, f"Poly._wrap called outside polynomial.py: {callers}"


def _imports_polynomial(path: Path) -> bool:
    """True iff the file imports the polynomial module, by any spelling:
    ``from .polynomial import ...``, ``from . import polynomial``,
    ``import goursat.polynomial`` or ``from goursat.polynomial import ...``."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.rpartition(".")[2] == "polynomial":
                return True
            if module in ("", "goursat") and "polynomial" in {a.name for a in node.names}:
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.rpartition(".")[2] == "polynomial" for a in node.names):
                return True
    return False


def test_no_module_imports_polynomial():
    # polynomial.py is Poly alone, the tests' reference algebra; the
    # monomial format and its text form live in symcalc, the chart's
    # coordinate names in codeword.
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"symcalc.py", "oracle.py", "cli.py", "polynomial.py"} <= {p.name for p in modules}
    importing = [p.name for p in modules if p.name != "polynomial.py" and _imports_polynomial(p)]
    assert not importing, f"modules that import polynomial: {importing}"


def _called(node) -> str | None:
    """The name a decorator or call refers to, as in lru_cache or
    functools.lru_cache."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _unbounded_memos(path: Path):
    """Each memo in the file with no bound: functools.cache, a bare
    lru_cache decorator or lru_cache(maxsize=None), named by the function
    it decorates, else by its line."""
    tree = _parse(path)
    owner = {
        deco: node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for deco in node.decorator_list
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node.func) == "lru_cache":
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            unbounded = any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
        elif isinstance(node, ast.ImportFrom):
            unbounded = node.module == "functools" and "cache" in {a.name for a in node.names}
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            unbounded = _called(node.value) == "functools"
        else:
            unbounded = node in owner and _called(node) == "lru_cache"
        if unbounded:
            yield owner.get(node, f"line {node.lineno}")


def test_every_memo_is_bounded():
    unbounded = [
        f"{path.name}: {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _unbounded_memos(path)
    ]
    assert not unbounded, f"memos with no bound: {unbounded}"


def test_every_traced_name_resolves():
    # trace_worker.install looks up each function it wraps on the module
    # that calls it; a renamed or removed name raises AttributeError there.
    root = TESTS.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "bench"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import trace_worker; trace_worker.install(trace_worker.Tracer())"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
