"""Tooling contracts: the runtime is stdlib-only and free of floating
point, each layer imports only earlier ones, the benchmark's layer tracer
finds every entry point it wraps, and the benchmark's golden CLI
invocations reproduce their recorded exit codes and report bytes."""

import ast
import dataclasses
import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from nscheck.algebra import AMonomial, Gen, HalfInt
from nscheck.cli import run
from nscheck.modules import BasisKey

ROOT = Path(__file__).resolve().parent.parent
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SOURCES = sorted((ROOT / "src" / "nscheck").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level package of every absolute import in ``path``, at any
    depth (function-local imports included)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = [n for n in absolute_imports(path) if n not in sys.stdlib_module_names]
    assert outside == []


# the layers, each importing only earlier ones; a new module takes a place here
LAYERS = ("scalars", "algebra", "enveloping", "modules", "analysis", "cli")


def relative_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for every module that a relative import in ``path``
    names, ``from .x import ...`` or ``from . import x``, at any depth
    (function-local imports included)."""
    modules, found = {p.stem for p in SOURCES}, []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        if node.module:
            found.append((node.lineno, node.module.partition(".")[0]))
        else:  # a name that is no module, as in ``from . import __version__``, is __init__'s
            found += [(node.lineno, alias.name if alias.name in modules else "__init__")
                      for alias in node.names]
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_layer_imports_only_earlier_layers(path):
    # __init__ runs before any module of the package, so each may read it
    earlier = ("__init__",) + LAYERS[:LAYERS.index(path.stem)]
    assert [f"{line}: {name}" for line, name in relative_imports(path)
            if name not in earlier] == []


def float_uses(path: Path) -> list[str]:
    """Every float (or imaginary) literal and every ``float(...)`` call in
    ``path``, as "line: source"."""
    text = path.read_text()
    found = []
    for node in ast.walk(ast.parse(text)):
        literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float")
        if literal or call:
            found.append(f"{node.lineno}: {ast.get_source_segment(text, node)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_has_no_floating_point(path):
    # README: "There is no floating point anywhere."
    assert float_uses(path) == []


def true_divisions(path: Path) -> list[str]:
    """Every true division (``/`` or ``/=``) in ``path``, as "line: source"."""
    text = path.read_text()
    return [f"{node.lineno}: {ast.get_source_segment(text, node)}"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "scalars.py"],
                         ids=lambda p: p.name)
def test_true_division_only_in_scalars(path):
    # int / int is a float: outside scalars a quotient is written Fraction(p, q)
    assert true_divisions(path) == []


def mutant_parameters(path: Path) -> list[str]:
    """Every function parameter in ``path`` whose name starts with
    ``mutate``, as "line: function(parameter)"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.arg.startswith("mutate"):
                    found.append(f"{node.lineno}: {getattr(node, 'name', 'lambda')}({arg.arg})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_has_no_mutant_parameters(path):
    # the tests apply their mutants in-process; the library takes no switch for them
    assert mutant_parameters(path) == []


def lru_cached(path: Path) -> list[str]:
    """Every function in ``path`` decorated with ``lru_cache``, bare or
    called, as "module.function"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) == "lru_cache":
                    found.append(f"{path.stem}.{node.name}")
    return found


def test_fresh_tables_clears_every_lru_cache(fresh_tables):
    # a cache that the fixture missed would keep stale entries under a mutant
    cleared = [f"{c.__module__.rpartition('.')[2]}.{c.__name__}" for c in fresh_tables]
    assert sorted(cleared) == sorted(name for path in SOURCES for name in lru_cached(path))


def literal_table(path: Path, name: str):
    """The literal assigned to ``name`` at the top level of ``path``, read
    from the source so that nothing under perfbench/ is imported or written."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {path.name}")


def traced_names() -> list[tuple[str, str]]:
    """(layer, dotted name) for every entry of ``TRACED``."""
    table = literal_table(LAYERTRACE, "TRACED")
    return [(layer, name) for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer,dotted", traced_names(), ids=lambda x: x)
def test_traced_name_resolves(layer, dotted):
    # the tracer's own lookup: the last attribute is defined on its owner
    owner = importlib.import_module(f"nscheck.{layer}")
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert owner.__dict__.get(attr) is not None


GOLDEN = literal_table(WORKLOADS, "GOLDEN")


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_benchmark_golden_replays(capsys, command):
    # the benchmark checks the same exit code and sha256 of stdout
    code = run(command.split(" "))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[command]


@pytest.mark.parametrize("cls", [HalfInt, Gen, AMonomial, BasisKey], ids=lambda c: c.__name__)
def test_keys_hash_and_compare_in_c(cls):
    # a Python-level __eq__ or __hash__ on a key type would run on every
    # dict and set lookup of the action caches and sparse tables
    assert not dataclasses.is_dataclass(cls)
    assert cls.__hash__ is tuple.__hash__
    assert cls.__eq__ is tuple.__eq__
