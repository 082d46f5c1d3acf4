"""Import layering of the package, read from the source with ``ast``.

Modules import one way, from the lower layers to the higher ones, and only
at module level: an import inside a function body hides a dependency (and
often a cycle) until the function runs.  Files are read and written by
``data`` alone, which owns every file format.  The command line imports
no more of scipy than the package needs.  Every public function and class
has a caller outside the tests; one that only tests use belongs in them.
The few that only the benchmark calls are listed, so that a new one shows.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "copsurv"
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# lowest layer first; a module may import only modules listed before it
ORDER = (
    "__init__",
    "errors",
    "copulas",
    "weibull",
    "data",
    "likelihood",
    "training",
    "datagen",
    "metrics",
    "experiments",
    "cli",
    "__main__",
)

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def package_imports(node):
    """Names of the copsurv modules that one import statement imports."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("copsurv.")]
    if node.level == 0:
        if node.module == "copsurv":
            return [alias.name for alias in node.names]
        if node.module and node.module.startswith("copsurv."):
            return [node.module.split(".")[1]]
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def imports_of(module):
    """(line, imported module, inside a function) for each package import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for name in package_imports(child):
                    found.append((child.lineno, name, in_function))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


def test_every_module_has_a_layer():
    assert sorted(ORDER) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    deferred = [f"{module}.py:{line} imports {name}"
                for line, name, in_function in imports_of(module) if in_function]
    assert not deferred


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_lower_layers(module):
    rank = ORDER.index(module)
    upward = [f"{module}.py:{line} imports {name}"
              for line, name, _ in imports_of(module)
              if name not in ORDER or ORDER.index(name) >= rank]
    assert not upward


# format modules only ``data`` may import, and file calls only it may make
FORMAT_MODULES = ("csv", "json")
FILE_CALLS = ("open", "read_text", "write_text", "read_bytes", "write_bytes")


def file_io_of(module):
    """(line, what) for each import of a format module and each file call."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"imports {alias.name}") for alias in node.names
                      if alias.name.split(".")[0] in FORMAT_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] in FORMAT_MODULES:
                found.append((node.lineno, f"imports {node.module}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append((node.lineno, f"calls {name}"))
    return found


def test_data_is_seen_doing_file_io():
    # the check below would pass vacuously if it could not see data's own I/O
    seen = {what for _, what in file_io_of("data")}
    assert {"imports csv", "imports json", "calls open"} <= seen


@pytest.mark.parametrize("module", [m for m in MODULES if m != "data"])
def test_only_data_does_file_io(module):
    found = [f"{module}.py:{line} {what}" for line, what in file_io_of(module)]
    assert not found


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats is the slowest part of scipy to import, and no module needs it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    code = "import sys, copsurv.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def referenced_names(node, strings=False):
    """Names a tree reads as variables or attributes, and with ``strings``
    its string constants too (the benchmark names what it wraps by string)."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
            found.add(child.value)
    return found


def test_every_public_definition_has_a_caller():
    # a caller is another top-level statement of the package, or the benchmark
    definitions, used = [], set()
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    definitions.append(f"{module}.{own}")
            used |= referenced_names(node) - {own}
    for path in PERFBENCH.glob("*.py"):
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    uncalled = [name for name in definitions if name.split(".")[1] not in used]
    assert not uncalled


# public names the package keeps only because perfbench/ binds them, by
# module; each goes once the benchmark binds what the package calls instead
BENCHMARK_ONLY = {
    "copulas.grad_log_partial_u1",
    "copulas.grad_log_partial_u2",
    "copulas.log_partial_u1",
    "copulas.log_partial_u2",
    "training.Adam",
    "training.tau_hat",
}


def defined_names(node):
    """The public names one top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def loaded_names(node):
    """Names a tree reads as variables or attributes; a field or local that
    shares a definition's name does not read it."""
    return {child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node)
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)}


def test_benchmark_only_definitions_are_listed():
    # a name is benchmark-only when perfbench/ reads it and every statement
    # of the package that reads it defines a benchmark-only name itself
    module_of, readers = {}, {}
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            own = defined_names(node)
            module_of.update((name, module) for name in own)
            # a statement that defines no public name is always a live reader
            owners = own or [f"{module}:{node.lineno}"]
            for name in loaded_names(node) - set(own):
                readers.setdefault(name, set()).update(owners)
    bench = set()
    for path in PERFBENCH.glob("*.py"):
        bench |= referenced_names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    only = set(module_of) & bench
    while True:
        live = {name for name in only if readers.get(name, set()) - only}
        if not live:
            break
        only -= live
    assert {f"{module_of[name]}.{name}" for name in only} == BENCHMARK_ONLY
