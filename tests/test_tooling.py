"""The benchmark's layer tracer finds every entry point it wraps."""

import ast
import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def traced_names() -> list[tuple[str, str]]:
    """(layer, dotted name) for every entry of ``TRACED``, read from the
    source so that nothing under perfbench/ is imported or written."""
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            table = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in table.items() for name in names]
    raise AssertionError("no TRACED table in layertrace.py")


@pytest.mark.parametrize("layer,dotted", traced_names(), ids=lambda x: x)
def test_traced_name_resolves(layer, dotted):
    # the tracer's own lookup: the last attribute is defined on its owner
    owner = importlib.import_module(f"nscheck.{layer}")
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert owner.__dict__.get(attr) is not None
