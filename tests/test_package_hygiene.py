import ast
import builtins
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shatterbound

SRC = Path(shatterbound.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(
    p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__")
)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so an invariant the library relies on must
    # raise an exception instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_self_referencing_nested_function(path):
    # a nested function that names itself holds itself through its closure
    # cell, a reference cycle that refcounting never frees, so each call of
    # its parent leaves garbage for the cyclic collector; a recursion is a
    # module-level function or a generator instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = sorted({
        f"{inner.name} (line {inner.lineno})"
        for outer in ast.walk(tree) if isinstance(outer, funcs)
        for inner in ast.walk(outer) if inner is not outer and isinstance(inner, funcs)
        if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner))
    })
    assert found == [], f"{path.name} has self-referencing nested functions {found}"


@pytest.mark.parametrize(
    "name", ["shatterbound"] + [f"shatterbound.{m}" for m in MODULES]
)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_defined_in_its_module(module):
    # only the package's __init__ re-exports: a submodule that lists an
    # imported name in __all__ is a second address for code defined elsewhere
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    relayed = [name for name in exported if name not in bound]
    assert relayed == [], f"{module}.__all__ names {relayed}, defined elsewhere"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    # no linter runs in the test suite, so this is what catches a dead import:
    # each name a top-level import binds is read in the module or exported
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = [
        f"{alias.asname or alias.name.split('.')[0]} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read | exported
    ]
    assert unused == [], f"{path.name} never uses {unused}"


def test_every_private_helper_is_used():
    # no linter runs in the test suite, so this is what catches a dead helper:
    # each module-level function whose name starts with one underscore is
    # named in some module of the package outside its own definition.
    # _log_binomial_row is kept as the reference the tests hold _ln_count to
    # (see the logarithmetic docstring)
    kept = {"_log_binomial_row"}
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))
    }
    named = [
        (stmt, {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
         | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})
        for tree in trees.values() for stmt in tree.body
    ]
    dead = sorted(
        f"{name}: {stmt.name} (line {stmt.lineno})"
        for name, tree in trees.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and stmt.name not in kept
        and not any(other is not stmt and stmt.name in ids for other, ids in named)
    )
    assert dead == [], f"private helpers that nothing uses: {dead}"


def _readme_code_names() -> list[str]:
    """The backticked names in the README's prose that look like code: an
    identifier longer than one character that is dotted, contains an
    underscore or mixes case (`shattering._ln_count`, `delta_bound`,
    `LogNum`), not a formula such as `n` or `C(n, k)`."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    ident = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
    return sorted({
        t for t in re.findall(r"`([^`\n]+)`", prose)
        if len(t) > 1 and ident.fullmatch(t)
        and ("." in t or "_" in t or t not in (t.lower(), t.upper()))
    })


def test_readme_names_resolve():
    # the README names functions and types of the package; a rename or a
    # deletion must take the README along, so each name is looked up
    modules = [importlib.import_module(f"shatterbound.{m}") for m in MODULES]
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    scopes = [builtins, shatterbound, *modules, *classes]

    def has(obj, attr):  # a dataclass field without a default is no attribute
        return hasattr(obj, attr) or attr in getattr(obj, "__annotations__", {})

    def resolves(name):
        for scope in scopes:
            obj = scope
            for part in name.split("."):
                if not has(obj, part):
                    break
                obj = getattr(obj, part, None)
            else:
                return True
        return False

    names = _readme_code_names()
    assert names, "no code names found in README.md"
    unresolved = [name for name in names if not resolves(name)]
    assert unresolved == [], f"README.md names {unresolved}"


def test_every_export_is_documented():
    # a public name the README never mentions is one a reader cannot find;
    # a library example counts as a mention
    text = README.read_text(encoding="utf-8")
    missing = [name for name in shatterbound.__all__
               if not re.search(rf"\b{name}\b", text)]
    assert missing == [], f"README.md never names {missing}"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "rational_lp.py"],
    ids=lambda p: p.name,
)
def test_only_rational_lp_reads_the_tableau_layout(path):
    # Tableau.solve hands back the Farkas multipliers, so no other module
    # needs the dictionary's rows, labels or scale to build a proof
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    layout = {"rows", "basic", "nonbasic", "d"}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in layout
    ]
    assert lines == [], f"{path.name} reads Tableau's layout at lines {lines}"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "oracle.py"],
    ids=lambda p: p.name,
)
def test_only_the_oracle_names_overflow_error(path):
    # every integer the calculator takes is at most 2^63-1, checked where it
    # enters, so no float it forms can overflow; the oracle's float sort keys
    # of huge rational coordinates are a separate matter
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "OverflowError"
    ]
    assert lines == [], f"{path.name} names OverflowError at lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_pool_imports(path):
    # every count runs in one process, so no module imports a pool, even
    # lazily inside a function
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    pools = {"concurrent", "multiprocessing"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in pools for name in names):
            lines.append(node.lineno)
    assert lines == [], f"{path.name} imports a process pool at lines {lines}"


def test_import_loads_no_process_pool():
    # no module imports a pool, so a process that imports the package and
    # its CLI loads neither module
    script = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
        "import shatterbound, shatterbound.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_readme_library_block_runs():
    # the README's API example names public functions, so it must keep
    # running when one goes, and give the values its comments state
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(block, scope)
    assert scope["solve_min_n"](0.01, 0.05, scope["spec"]) == 1026778
    assert scope["count_dichotomies"](scope["ps"]) == 32
