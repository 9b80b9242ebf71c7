"""Tooling contracts: the runtime is stdlib-only and free of floating
point, each layer imports only earlier ones, the benchmark's layer tracer
finds every entry point it wraps, the benchmark's golden CLI invocations
reproduce their recorded exit codes and report bytes, one sweep of its
grid workload gets the answers of the classification law, every public
name of the package has a reader outside the tests, a module handle keeps
one action memo, every source parses at the declared Python floor, every
imported name is read, every mutant of a table rule runs on cleared
caches, each structure table is cached once, and the smash algebra caches
only its PBW tables and the admission of a PBW monomial."""

import ast
import dataclasses
import hashlib
import importlib
import re
import sys
import textwrap
import types
from pathlib import Path

import pytest

from nscheck.algebra import AElement, AlgebraMode, AMonomial, Gen, HalfInt, L
from nscheck.analysis import find_intertwiner, simplicity_verdict
from nscheck.cli import run
from nscheck.modules import (
    BasisKey,
    GammaModule,
    ModuleVector,
    Window,
    act,
    parse_module_descriptor,
)

ROOT = Path(__file__).resolve().parent.parent
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SOURCES = sorted((ROOT / "src" / "nscheck").glob("*.py"))
# every Python file of the repository: the package, the tests, the benchmark, the demos
ALL_SOURCES = [p for d in ("src/nscheck", "tests", "perfbench", "demos")
               for p in sorted((ROOT / d).rglob("*.py"))]


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


def wrapped_reads(source: str) -> list[int]:
    """The line of every read of ``__wrapped__`` in ``source``, as an
    attribute or as a name string (``getattr``)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if getattr(node, "attr", None) == "__wrapped__"
            or (isinstance(node, ast.Constant) and node.value == "__wrapped__")]


def test_each_structure_table_has_one_cache():
    # the table rules of algebra are plain functions, and the integer tables
    # of the structural suites its only caches: no table is cached twice,
    # and no source reads a rule past a cache
    assert sorted(lru_cached(ROOT / "src" / "nscheck" / "algebra.py")) == [
        "algebra._int_amon_act_gen", "algebra._int_bracket_basis", "algebra._int_gen_act_amon"]
    assert [f"{p.name}:{line}" for p in SOURCES for line in wrapped_reads(p.read_text())] == []
    # the probe is live: both kinds of read are found
    probe = textwrap.dedent("""
        def part(op, key):
            terms = gen_act_amon.__wrapped__(op, key)
            return getattr(bracket_basis, "__wrapped__")
    """)
    assert wrapped_reads(probe) == [3, 4]


def test_enveloping_caches_are_the_pbw_tables_and_admission():
    # enveloping caches its three PBW rewrite tables and the admission of a
    # PBW monomial, nothing else: a product is not cached per pair of keys
    # (a composite pair cache cost time and memory; see the algebra docstring)
    assert sorted(lru_cached(ROOT / "src" / "nscheck" / "enveloping.py")) == [
        "enveloping._insert_gen", "enveloping._pbw_mul", "enveloping._pbw_past_amon",
        "enveloping._validate_pbw"]


# the table rules that a mutant patches by name; the cached tables derived
# from them (the integer tables of the structural suites among them) keep a
# mutant's entries unless the caches are cleared around it
TABLE_RULES = ("bracket_basis", "gen_act_amon", "amon_act_gen", "jet_coefficient")


def uncleared_table_patches(source: str) -> list[str]:
    """Every ``setattr`` call in ``source`` that names a rule of
    ``TABLE_RULES`` (as an attribute or a dotted target) outside any function
    that requests ``fresh_tables``, as "line: function"."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            scope = scope + [(getattr(node, "name", "lambda"), "fresh_tables" in params)]
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            patched = [arg.value.rpartition(".")[2] for arg in node.args
                       if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            if (name == "setattr" and any(p in TABLE_RULES for p in patched)
                    and not any(cleared for _, cleared in scope)):
                found.append(f"{node.lineno}: {scope[-1][0] if scope else '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_table_mutants_clear_the_caches():
    # a mutant of a table rule that leaves the derived caches filled would
    # be missed by the suites, or leak into the tests after it
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert [f"{p.name}:{u}" for p in tests for u in uncleared_table_patches(p.read_text())] == []
    # the probe is live: a patch in a test without the fixture is found
    probe = textwrap.dedent("""
        def test_mutant(monkeypatch):
            monkeypatch.setattr(algebra, "bracket_basis", None)
            monkeypatch.setattr("nscheck.algebra.jet_coefficient", None)

        def test_cleared(monkeypatch, fresh_tables):
            monkeypatch.setattr(algebra, "gen_act_amon", None)
    """)
    assert uncleared_table_patches(probe) == ["3: test_mutant", "4: test_mutant"]


def public_definitions(path: Path) -> list[str]:
    """Every public top-level function and class of ``path``, and every
    public method of its top-level classes, as "name" or "Class.method"."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def names_read(paths) -> tuple[set[str], set[str]]:
    """(names, attributes) that the sources at ``paths`` read: each bare
    name, and each attribute name, also the parts of a string that is a
    dotted name, as in the benchmark's ``TRACED`` table."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    attributes.update(parts)
    return names, attributes


def test_every_public_definition_has_a_reader_outside_the_tests():
    # a name that only the tests read is API kept for the tests; the
    # re-exports of __init__ read nothing, and a method is read by name
    readers = [p for p in SOURCES if p.name != "__init__.py"]
    readers += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    names, attributes = names_read(readers)
    unread = [f"{path.stem}.{d}" for path in SOURCES for d in public_definitions(path)
              if d.rpartition(".")[2] not in attributes and ("." in d or d not in names)]
    assert unread == []


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


def load_workloads() -> types.ModuleType:
    """``perfbench/workloads.py`` as a module, run from its source text so
    that nothing under perfbench/ is written (no bytecode cache)."""
    module = types.ModuleType("workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def test_benchmark_grid_sweep_replays():
    # one smoke-size sweep, each verdict made as the benchmark's child makes it
    wl = load_workloads()
    tasks = wl.grid_tasks(0, 0, wl.GRID_SMOKE_POINTS, wl.GRID_SMOKE_B_VALUES)
    window = Window(*wl.GRID_WINDOW)
    results = []
    for task, _ in tasks:
        if task[0] == "iso":
            m1, m2 = (parse_module_descriptor(d) for d in task[1:3])
            found = find_intertwiner(m1, m2, window, wl.GRID_GEN_RANGE) is not None
            answer = "found" if found else "absent"
        else:
            mode = AlgebraMode.parse(task[2]) if len(task) > 2 else None
            mod = parse_module_descriptor(task[1], algebra_mode=mode)
            answer = simplicity_verdict(mod, window, wl.GRID_GEN_RANGE).kind
        results.append([" ".join(task), answer])
    assert len(tasks) == 17 and wl.check_grid(tasks, results) == []


@pytest.mark.parametrize("cls", [HalfInt, Gen, AMonomial, BasisKey], ids=lambda c: c.__name__)
def test_keys_hash_and_compare_in_c(cls):
    # a Python-level __eq__ or __hash__ on a key type would run on every
    # dict and set lookup of the action caches and sparse tables
    assert not dataclasses.is_dataclass(cls)
    assert cls.__hash__ is tuple.__hash__
    assert cls.__eq__ is tuple.__eq__


@pytest.mark.parametrize("descriptor", ["gamma(1/3,1/4)", "gamma(l,b)", "gamma+(0,b)"])
def test_a_module_handle_keeps_one_action_memo(descriptor):
    # a per-handle memo is a field set on construction that grows as the
    # handle acts; one table serves gen_action, amon_action and act
    mod = parse_module_descriptor(descriptor)
    sized = {f.name: len(getattr(mod, f.name)) for f in dataclasses.fields(GammaModule)
             if not f.init and hasattr(getattr(mod, f.name), "__len__")}
    key = BasisKey(1, 0)
    mod.gen_action(L(2), key)
    mod.amon_action(AMonomial(1, 1), key)
    for x in (L(1), AElement.monomial(2)):
        act(x, ModuleVector.basis(key), mod)
    assert [name for name, size in sized.items() if len(getattr(mod, name)) > size] == ["_table"]


def python_floor() -> tuple[int, int]:
    """The (major, minor) of ``requires-python`` in pyproject.toml, read by
    regex: ``tomllib`` needs Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.M).groups()
    return int(major), int(minor)


def test_sources_parse_at_the_declared_python_floor():
    floor = python_floor()
    failed = []
    for path in ALL_SOURCES:
        try:
            ast.parse(path.read_text(), str(path), feature_version=floor)
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert len(ALL_SOURCES) > 20 and failed == []
    # the probe is live: syntax newer than the floor is rejected
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)


def unused_imports(path: Path) -> list[str]:
    """Every name that an import in ``path`` binds and that no ``ast.Name``
    of the file reads, as "line: name"; a ``from __future__`` import binds
    no name."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"{node.lineno}: {name}" for name in
                      (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                      if name not in read]
    return found


def test_every_imported_name_is_read():
    # the package's __init__ imports to re-export
    paths = [p for p in ALL_SOURCES if p != ROOT / "src" / "nscheck" / "__init__.py"]
    assert [f"{p.relative_to(ROOT)}:{u}" for p in paths for u in unused_imports(p)] == []
