"""Import hygiene of the package: every name a module imports is used in
that module, and no module imports another's private (underscore) name.
Names a package re-exports through its `__all__` count as used.  Every
name a function stores it also reads, unless the name starts with `_`.
The names the benchmark's tracer hooks into exist, and only `modules`
names the trace-quotient Brauer construction among them.  Modules have
one form: no module names the dense form's members or asks whether a
module's `perms` is None.  Every top-level function and class is reached
from outside its own definition, or is on a list of API names with a
reason; so is every method and property of a top-level class, by the
attribute name code reads.  Importing the package sets BLAS to one thread unless the
environment chose a number."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
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


def private_imports(source: str) -> list:
    """Underscore names imported from a permchain module, relative or not,
    anywhere in the source (function-level imports included)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "permchain":
            continue
        out += [f"{a.name} (line {node.lineno})" for a in node.names if a.name.startswith("_")]
    return sorted(out)


def test_private_imports_are_found():
    src = "import json\nfrom json import _x\ndef f():\n    from .ffield import _y\nfrom permchain.linalg import _z, rref\n"
    assert private_imports(src) == ["_y (line 4)", "_z (line 5)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def unused_locals(source: str) -> list:
    """Names each function stores and never loads, in its own body or in a
    function nested in it; names starting with '_' and names it declares
    global or nonlocal are not flagged."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                loaded.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                loaded.update(node.names)
        out += [
            f"{name} (line {line}) in {fn.name}"
            for name, line in stored.items()
            if name not in loaded and not name.startswith("_")
        ]
    return sorted(out)


def test_unused_locals_are_found():
    src = (
        "def f(xs):\n"
        "    a, _b = 1, 2\n"
        "    for k, v in xs.items():\n"
        "        print(v)\n"
        "    def g():\n"
        "        nonlocal a\n"
        "        a = 3\n"
        "    used = [y for y in xs]\n"
        "    return g, used\n"
        "def h():\n"
        "    total = 0\n"
        "    total += 1\n"
    )
    assert unused_locals(src) == ["k (line 3) in f", "total (line 11) in h"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


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


# The Brauer construction by traces, kept in `modules` because the benchmark's
# tracer names it; the package picks coordinates (`brauer_points`) instead.
BRAUER_BY_TRACES = {"brauer_quotient", "trace_map", "fixed_points"}


def names_in(path: Path) -> set:
    """Every name, attribute, imported name and definition in a module."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "modules.py"], ids=lambda p: p.name
)
def test_one_brauer_construction(path):
    assert sorted(names_in(path) & BRAUER_BY_TRACES) == []


# The dense module form, one matrix per generator, that `KgModule` no longer
# has; `tests/module_reference.py` keeps it as `DenseModule`.
DENSE_FORM = {"gen_mats", "elem_mat", "_monomial_matrix", "_require_monomial"}


def _name_of(node):
    """The name a node binds or reads: a variable, an attribute, an
    imported name, a definition, a parameter or a keyword argument."""
    for field in ("id", "attr", "name", "arg"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value.split(".")[-1]
    return None


def dense_form_uses(source: str) -> list:
    """Each name of `DENSE_FORM` and each comparison of a `perms` with
    None in the source, by line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if _name_of(node) in DENSE_FORM:
            out.append(f"{_name_of(node)} (line {node.lineno})")
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(_name_of(x) == "perms" for x in sides) and any(
                isinstance(x, ast.Constant) and x.value is None for x in sides
            ):
                out.append(f"perms against None (line {node.lineno})")
    return sorted(out)


def test_dense_form_uses_are_found():
    src = (
        "from .modules import _monomial_matrix\n"
        "def f(M, gen_mats=None, perms=()):\n"
        "    if M.perms is None or None != perms:\n"
        "        return M.elem_mat(0)\n"
        "    return M.perms, perms[0] is None, _require_monomial\n"
    )
    assert dense_form_uses(src) == [
        "_monomial_matrix (line 1)",
        "_require_monomial (line 5)",
        "elem_mat (line 4)",
        "gen_mats (line 2)",
        "perms against None (line 3)",
        "perms against None (line 3)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_module_form(path):
    assert dense_form_uses(path.read_text()) == []


def _uses(tree) -> set:
    """Every name read, attribute and imported name in an AST."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
            out.add(_name_of(node))
    return out


def unreached_definitions(sources: dict, exported: set, outside: set) -> list:
    """`module.name` for each top-level function and class of the modules in
    `sources` (module name -> source) whose name no other module uses, its
    own module uses only inside its own definition, and neither `exported`
    nor `outside` holds."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    out = []
    for name, tree in trees.items():
        others = set().union(*(_uses(t) for m, t in trees.items() if m != name))
        for d in tree.body:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                own = set().union(*(_uses(x) for x in tree.body if x is not d))
                if d.name not in others | own | exported | outside:
                    out.append(f"{name}.{d.name}")
    return sorted(out)


def test_unreached_definitions_are_found():
    sources = {
        "a": (
            "def used(): pass\ndef alone():\n    return alone()\n"
            "class Exported: pass\ndef _benched(): pass\n"
        ),
        "b": "from .a import used\ndef f():\n    return used() + g()\ndef g(): pass\n",
    }
    assert unreached_definitions(sources, {"Exported"}, {"_benched"}) == ["a.alone", "b.f"]


# Top-level names that nothing in the package, `permchain.__all__` or the
# benchmark reaches, kept as API: name -> reason.
API_ONLY = {
    "basis_element": "the transitive basis element [G/H] of B(G)",
    "homology": "every homology_at of a complex, by degree",
    "brauer_complex": "the one constructor of C(P) as a complex",
    "is_endotrivial": "the verdict of endotrivial_report",
    "homotopy_equivalent_endotrivial": "the paper's criterion: equal xi",
    "restrict_complex": "restriction of a complex, as inflate_complex inflates",
    "faithful_project": "the faithful decomposition of xi (ROADMAP item 9)",
    "faithful_assemble": "the faithful decomposition of xi (ROADMAP item 9)",
    "is_faithful_invariant": "the faithful decomposition of xi (ROADMAP item 9)",
    "parse_module_literal": "reads one module literal, as format_module writes one",
    "coset_list": "the cosets of G/H that k[G/H] has as its basis",
}


def constants_and_uses(path: Path) -> set:
    """The names a file uses and the strings it holds, as a tracer names
    the attributes it wraps."""
    tree = ast.parse(path.read_text(), filename=str(path))
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return _uses(tree) | strings


def test_every_definition_is_reached():
    import permchain

    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    outside = set().union(*(constants_and_uses(p) for p in sorted(PERFBENCH.glob("*.py"))))
    got = unreached_definitions(sources, set(permchain.__all__), outside)
    assert sorted(n.split(".")[1] for n in got) == sorted(API_ONLY)


def _attribute_reads(tree) -> Counter:
    return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def unreached_members(sources: dict, outside: set) -> list:
    """`module.Class.member` for each method and property, dunders aside,
    of each top-level class of the modules in `sources` (module name ->
    source) whose name no code there reads as an attribute outside the
    member's own definition, and `outside` does not hold.  The check goes
    by name: a member that shares its name with an attribute read anywhere
    counts as reached (`FqMatrix.trace`, say, while `perfbench/run.py`
    reads `args.trace`)."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = sum((_attribute_reads(t) for t in trees.values()), Counter())
    out = []
    for name, tree in trees.items():
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            for d in cls.body:
                if not isinstance(d, ast.FunctionDef) or d.name.startswith("__") and d.name.endswith("__"):
                    continue
                if reads[d.name] == _attribute_reads(d)[d.name] and d.name not in outside:
                    out.append(f"{name}.{cls.name}.{d.name}")
    return sorted(out)


def test_unreached_members_are_found():
    sources = {
        "a": (
            "class A:\n"
            "    def used(self): pass\n"
            "    def alone(self):\n        return self.alone()\n"
            "    @property\n    def prop(self): pass\n"
            "    def stored(self): pass\n"
            "    def shared(self): pass\n"
            "    def benched(self): pass\n"
            "    def __repr__(self): return 'A'\n"
            "def f(x):\n    return x.used(), x.prop\n"
        ),
        "b": "def g(y):\n    y.stored = 1\n    return y.other.shared\n",
    }
    assert unreached_members(sources, {"benched"}) == ["a.A.alone", "a.A.stored"]


# Methods and properties that nothing in the package or the benchmark reads,
# kept as API: Class.member -> reason.
API_MEMBERS = {
    "TrivialSourceElement.dual": "Lambda(C*) = Lambda(C)*, which the canonical T(kG) of ROADMAP item 1 needs",
    "XiInvariant.h_mark": "h_C(P) at any p-subgroup P, not only at a class representative",
    "FiniteGroup.conj": "group arithmetic, g x g^-1, that the test oracles use",
}


def attributes_and_strings(path: Path) -> set:
    """The attributes a file reads and the strings it holds, as a tracer
    names the attributes it wraps."""
    tree = ast.parse(path.read_text(), filename=str(path))
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return set(_attribute_reads(tree)) | strings


def test_every_member_is_reached():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    outside = set().union(*(attributes_and_strings(p) for p in sorted(PERFBENCH.glob("*.py"))))
    got = unreached_members(sources, outside)
    assert sorted(n.split(".", 1)[1] for n in got) == sorted(API_MEMBERS)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("given, want", [(None, "1"), ("3", "3")], ids=["unset", "explicit"])
def test_import_defaults_blas_to_one_thread(given, want):
    """In a fresh interpreter, before numpy is loaded: an unset variable
    becomes 1, an explicit value is kept."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = str(SRC.parent)
    if given is not None:
        env.update(dict.fromkeys(_THREAD_VARS, given))
    code = (
        "import os, sys\n"
        "assert 'numpy' not in sys.modules\n"
        "import permchain\n"
        f"print(*(os.environ[v] for v in {_THREAD_VARS!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [want] * len(_THREAD_VARS)
