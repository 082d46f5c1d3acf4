"""Import layering of the package, read from the source with ``ast``.

Modules import one way, from the lower layers to the higher ones, and only
at module level: an import inside a function body hides a dependency (and
often a cycle) until the function runs.  Files are read and written by
``data`` alone, which owns every file format.  ``metrics`` scores what it
is given and draws nothing, so it sits below ``datagen``.  The command line
imports no more of scipy than the package needs: neither ``scipy.stats`` nor
``scipy.integrate``, which the tests alone use.  Training settings have one
default each, set in ``training``.  Every decoder of a JSON document
calls the one document check, ``errors.check_document``, and every config
field has an annotation ``data.Config`` knows how to check.  No module reads
another module's private name, and no handler writes onto the exception it
caught.  Every public function, class, method and
property has a caller outside the tests; one that only tests use belongs in
them.
The few that only the benchmark calls are listed, so that a new one shows.
"""
import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import copsurv.experiments  # noqa: F401 (defines the last Config subclasses)
from copsurv.data import _FIELD_SHAPES, Config

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
    "metrics",
    "datagen",
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


def private_reads(source):
    """(line, module.name) for each private name of another package module
    that ``source`` imports (``from .m import _x``) or reads (``m._x``)."""
    tree = ast.parse(source)
    aliases, found = {}, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and package_imports(node)):
            continue
        for alias in node.names:
            if node.module in (None, "copsurv"):  # from . import m [as n]
                aliases[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_"):
                found.append((node.lineno, f"{package_imports(node)[0]}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return found


def test_private_reads_are_seen():
    # the check below would pass vacuously if it missed either form
    source = "from .m import _x, y\nfrom . import m as n\nn._z, n.w, n.__doc__\n"
    assert private_reads(source) == [(1, "m._x"), (3, "m._z")]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_modules_private_name(module):
    # a name with a leading underscore belongs to its own module; another
    # module that needs it calls for a public name
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert not [f"{module}.py:{line} reads {name}" for line, name in private_reads(source)]


def caught_exception_writes(source):
    """(line, name.attribute) for each attribute that an ``except ... as name:``
    handler in ``source`` assigns on ``name``."""
    return [(node.lineno, f"{handler.name}.{node.attr}")
            for handler in ast.walk(ast.parse(source))
            if isinstance(handler, ast.ExceptHandler) and handler.name
            for node in ast.walk(handler)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == handler.name]


def test_caught_exception_writes_are_seen():
    # the check below would pass vacuously if it missed a plain or an augmented assignment
    source = ("try:\n    f()\nexcept E as exc:\n    exc.model = 1\n    exc.n += 1\n"
              "    other.x = exc.y\n    raise\n")
    assert caught_exception_writes(source) == [(4, "exc.model"), (5, "exc.n")]


@pytest.mark.parametrize("module", MODULES)
def test_no_handler_writes_onto_the_exception_it_caught(module):
    # an exception carries what its raiser knew; a catcher that knows more
    # (which model failed, say) records it itself instead of amending the exception
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert not [f"{module}.py:{line} sets {name}" for line, name in caught_exception_writes(source)]


def test_data_is_seen_doing_file_io():
    # the check below would pass vacuously if it could not see data's own I/O
    seen = {what for _, what in file_io_of("data")}
    assert {"imports csv", "imports json", "calls open"} <= seen


@pytest.mark.parametrize("module", [m for m in MODULES if m != "data"])
def test_only_data_does_file_io(module):
    found = [f"{module}.py:{line} {what}" for line, what in file_io_of(module)]
    assert not found


def decoders():
    """(module.function, whether it calls check_document) of each function
    that decodes a JSON document: ``from_dict``, ``*_from_dict`` and ``*_from_sidecar``."""
    found = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                    node.name == "from_dict" or node.name.endswith(("_from_dict", "_from_sidecar"))):
                calls = {getattr(call.func, "id", None) for call in ast.walk(node)
                         if isinstance(call, ast.Call)}
                found.append((f"{module}.{node.name}", "check_document" in calls))
    return found


def test_every_decoder_checks_its_document():
    # every JSON document is read by one rule, errors.check_document, so a
    # decoder that skips it would bring back a reader of its own
    found = decoders()
    assert {"data.from_dict", "copulas.from_dict", "weibull.from_dict", "weibull.risk_from_dict",
            "training.from_dict", "datagen.truth_from_sidecar"} <= {name for name, _ in found}
    assert not [name for name, checked in found if not checked]


def test_every_config_field_has_a_shape():
    # Config.__post_init__ checks a field by its annotation, a shape of
    # _FIELD_SHAPES or the name of a Config class, and skips any other, so an
    # annotation the table lacks, or a class where a module without ``from
    # __future__ import annotations`` keeps no text, would go unchecked
    configs = {cls.__name__: cls for cls in Config.__subclasses__()}
    assert {"TrainConfig", "SurvivalL1Config", "ExperimentConfig"} <= set(configs)
    unchecked = [f"{name}.{f.name}: {f.type!r}" for name, cls in configs.items() for f in fields(cls)
                 if f.type not in _FIELD_SHAPES and f.type not in configs]
    assert not unchecked


@pytest.mark.parametrize("subpackage", ["scipy.stats", "scipy.integrate"])
def test_cli_import_leaves_out_scipy_subpackage(subpackage):
    # scipy.stats is the slowest part of scipy to import, and scipy.integrate
    # adds about 1.6 MB to the process's peak RSS; no module needs either
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    code = f"import sys, copsurv.cli; print(sorted(m for m in sys.modules if m.startswith({subpackage!r})))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def train_config_calls(module):
    """(line, positional count, keyword names) of each ``TrainConfig(...)`` call."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [(node.lineno, len(node.args), [kw.arg for kw in node.keywords])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "TrainConfig"]


def test_train_config_defaults_are_set_in_training_alone():
    # every fit budget and patience is TrainConfig's default: outside
    # training a config is built with at most its seed
    calls = {module: train_config_calls(module) for module in MODULES if module != "training"}
    assert any(calls.values())  # the check below would pass vacuously otherwise
    found = [f"{module}.py:{line} TrainConfig({n_args} positional, {keywords})"
             for module, in_module in calls.items() for line, n_args, keywords in in_module
             if n_args or set(keywords) - {"seed"}]
    assert not found


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
    # a caller is another top-level statement of the package, or the benchmark;
    # a public method or property of a top-level class is called when the
    # package reads it as an attribute, or the benchmark reads or names it
    definitions, members, used, read = [], [], set(), set()
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    definitions.append(f"{module}.{own}")
            if isinstance(node, ast.ClassDef):
                members += [f"{module}.{own}.{child.name}" for child in node.body
                            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not child.name.startswith("_")]
            used |= referenced_names(node) - {own}
    bench = set()
    for path in PERFBENCH.glob("*.py"):
        bench |= referenced_names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    assert members  # the member check below would pass vacuously otherwise
    uncalled = [name for name in definitions if name.split(".")[1] not in used | bench]
    uncalled += [name for name in members if name.split(".")[2] not in read | bench]
    assert not uncalled


# public names the package keeps only because perfbench/ binds them, by
# module; each goes once the benchmark binds what the package calls instead
BENCHMARK_ONLY = {
    "copulas.grad_log_partial_u1",
    "copulas.grad_log_partial_u2",
    "copulas.log_partial_u1",
    "copulas.log_partial_u2",
    "likelihood.loglik_copula",
    "likelihood.marginal_loglik",
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


# the likelihood functions that may read a model's Weibull parameters:
# ``parameters`` keys them into a point, and the two benchmark-only scalar
# wrappers evaluate the models at their own point through it; every other
# function evaluates the point it is given
MODEL_PARAMETER_READERS = {"parameters", "loglik_copula", "marginal_loglik"}


def model_parameter_reads(source):
    """(function, line, attribute) for each ``.log_nu``, ``.log_rho`` or
    ``.nu`` read inside a top-level function of ``source``."""
    return [(node.name, child.lineno, child.attr)
            for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            for child in ast.walk(node)
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
            and child.attr in ("log_nu", "log_rho", "nu")]


def test_model_parameter_reads_are_seen():
    # the check below would pass vacuously if it missed a read in a nested
    # function or in ``parameters`` itself
    source = "def f(m):\n    def g():\n        return m.nu\n    m.log_nu = m.log_rho\n"
    assert sorted(model_parameter_reads(source)) == [("f", 3, "nu"), ("f", 4, "log_rho")]
    likelihood = (PACKAGE / "likelihood.py").read_text(encoding="utf-8")
    assert {attr for name, _, attr in model_parameter_reads(likelihood)
            if name == "parameters"} == {"log_nu", "log_rho"}


def test_the_likelihood_evaluates_points_not_models():
    # a function that read a model's own parameters would evaluate the model,
    # not the point it is given, and a solver would have to write each point
    # into the model first
    source = (PACKAGE / "likelihood.py").read_text(encoding="utf-8")
    assert not [f"likelihood.py:{line} {name} reads .{attr}"
                for name, line, attr in model_parameter_reads(source)
                if name not in MODEL_PARAMETER_READERS]
