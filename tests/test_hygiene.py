"""Import hygiene of the package: every name a module imports is used in
that module.  Names a package re-exports through its `__all__` count as
used.  The names the benchmark's tracer hooks into exist."""

import ast
import importlib.util
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "permchain"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_benchmark_trace_hooks_exist():
    """The benchmark's tracer wraps each (owner, attribute) it names, and pins
    the groups `permchain.cli.group_from_spec` builds; a rename must fail
    here rather than in a traced run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []
    from permchain import cli

    assert callable(cli.__dict__.get("group_from_spec"))
