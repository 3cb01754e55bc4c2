"""Every name of ``rationale_lab`` that the demos, the benchmark in
``perfbench/`` and the README quickstart use must resolve.  The test suite
runs none of them, so without this check a trim of the public API could
break them unseen."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "rationale_lab"


def quickstart() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


SOURCES = {
    **{f"demos/{p.name}": p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))},
    **{f"perfbench/{p.name}": p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))},
    "README quickstart": quickstart(),
}


def used_names(source: str) -> set[str]:
    """Dotted paths into the package: each name imported from it, and each
    attribute chain read off a name bound to the package or one of its
    modules (``lab.network.schema_scaling``).  ``lab`` always names the
    package: ``perfbench/`` binds it by ``lab = import_program()`` as well."""
    tree = ast.parse(source)
    bound, used = {"lab": PACKAGE}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                used.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            used.add(".".join([bound[node.id], *chain]))
    return used


def resolves(path: str) -> bool:
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            try:
                obj = importlib.import_module(".".join(parts[: i + 1]))
                continue
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_used_name_resolves(source):
    unresolved = [path for path in sorted(used_names(SOURCES[source])) if not resolves(path)]
    assert unresolved == []


def test_the_scan_sees_the_known_callers():
    used = set().union(*map(used_names, SOURCES.values()))
    for name in ("loss_and_grads", "adam_update", "AdamState", "init_params", "load_plan",
                 "dataset_io.meta_path", "network.schema_scaling", "ideal_curve",
                 "curve_deviation", "emit_report", "train"):
        assert f"{PACKAGE}.{name}" in used, name


def test_benchmark_tracer_finds_every_harness_import():
    """perfbench's tracer wraps these names on ``harness``; one that is gone
    makes its layer read 0 rather than fail."""
    tree = ast.parse(SOURCES["perfbench/tracing.py"])
    assign = next(node for node in tree.body if isinstance(node, ast.Assign)
                  and node.targets[0].id == "HARNESS_IMPORTS")
    for name in ast.literal_eval(assign.value):
        assert resolves(f"{PACKAGE}.harness.{name}"), name
