"""Source hygiene checks on the package, by its syntax tree alone, on the
private names that perfbench hooks into it, and on the constants that the
compiled kernel's source restates."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import holelab
from holelab.campaign import run_campaign
from holelab.graph import Graph
from holelab.io import CorpusEntry
from holelab.kernels import _pycore

PACKAGE = Path(holelab.__file__).parent


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names each import statement binds, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotation_of(node: ast.AST) -> ast.AST | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    return None


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, counting quoted annotations and the
    strings listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        ann = annotation_of(node)
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        for name, line in imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.relative_to(PACKAGE.parent)}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Any, Sequence\nimport os.path\n"
        "def f(x: 'Sequence[int]') -> None:\n    return os.sep\n"
    )
    used = used_names(tree)
    assert [n for n in imported_names(tree) if n not in used] == ["Any"]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private names a module binds at its top level by def, class or
    assignment, with their line numbers; dunder names are not private."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def read_names(tree: ast.AST) -> set[str]:
    """Every name a file reads: loaded names, attributes, names imported
    from a module, and string constants (a name handed to getattr)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def orphans(modules: dict[str, ast.Module], readers: list[ast.AST]) -> list[str]:
    """The private names of each module that no reader reads."""
    read = set().union(*map(read_names, readers))
    return [
        f"{path}:{line}: {name}"
        for path, tree in modules.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_no_orphaned_private_names():
    """Every module-level private name in the package is read somewhere in
    the package, its tests or perfbench, so a refactor that leaves a helper
    behind fails here."""
    root = PACKAGE.parents[1]

    def parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"))

    modules = {str(p.relative_to(root)): parse(p) for p in sorted(PACKAGE.rglob("*.py"))}
    readers = [
        parse(p) for d in ("tests", "perfbench") for p in sorted((root / d).rglob("*.py"))
    ]
    found = orphans(modules, [*modules.values(), *readers])
    assert not found, "private names read nowhere:\n" + "\n".join(found)


def test_the_check_sees_an_orphaned_private_name():
    module = ast.parse(
        "_LIMIT = 3\n_hook = None\n__all__ = []\n"
        "def _used(x):\n    return x < _LIMIT\n"
        "def _orphan(x):\n    return _used(x)\n"
        "class _Gone:\n    pass\n"
    )
    reader = ast.parse("import m\nm._used(1)\ngetattr(m, '_hook')\n")
    assert orphans({"m.py": module}, [module, reader]) == [
        "m.py:6: _orphan",
        "m.py:8: _Gone",
    ]


def test_perfbench_prune_hook_is_defined():
    """perfbench's tracer wraps the pure kernel's prune by the name in its
    PRUNE_HOOK, and skips it silently when the kernel has no such name; a
    rename must not drop kernels.prune_* from traced runs unseen."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    hooks = [
        node.value.value
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["PRUNE_HOOK"]
    ]
    assert len(hooks) == 1
    assert callable(getattr(_pycore, hooks[0], None))


def test_perfbench_verdict_hook_reads_the_campaign_report():
    """perfbench's tracer counts a traced campaign's entries by calling its
    _count_verdicts on what run_campaign returns; a report without what
    that hook reads must fail here and not in a traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    report = run_campaign("clique_parity", [CorpusEntry(0, Graph(3)), CorpusEntry(1, Graph(2))])
    stat = tracer.Stat(tracer.Layer("campaign"))
    tracer._count_verdicts(stat, report)
    assert stat.items == 2


def c_defines(text: str) -> dict[str, str]:
    """The object-like `#define NAME value` lines of a C source."""
    return dict(re.findall(r"^#define[ \t]+(\w+)[ \t]+(\S+)[ \t]*$", text, re.MULTILINE))


def test_kernels_share_their_constants():
    """The compiled kernel restates the pure kernel's constants as #define
    lines; the kernels agree node for node only while these are equal. The
    source is read as text, so this runs where no C compiler is."""
    source = PACKAGE / "kernels" / "_fastcore.c"
    defines = c_defines(source.read_text(encoding="utf-8"))
    shared = ("MAX_TRACKED_ODD", "MAX_RESIDUE_MOD", "GATE_RATIO")
    assert {name: defines.get(name) for name in shared} == {
        name: str(getattr(_pycore, name)) for name in shared
    }


def test_the_check_reads_c_defines():
    text = "#define A 6\n#define  B 64 \n#define f(x) x\n/* #define C 1 */\n#define D\n#define E 1\n"
    assert c_defines(text) == {"A": "6", "B": "64", "E": "1"}


def public_functions(module) -> set[str]:
    """The public functions a module defines or lists in __all__, and the
    public methods of the public classes it defines."""
    names = set(getattr(module, "__all__", ()))
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            names.add(name)
        elif inspect.isclass(value):
            names |= {m for m, f in vars(value).items() if not m.startswith("_") and inspect.isfunction(f)}
    return names


def test_perfbench_metrics_name_public_functions():
    """Every span `metrics()` in perfbench's tracer reads by key,
    "<layer>.<name>", names a public function of the layer's module (the
    one MODULE_LAYERS maps to it, else holelab.<layer>), so a rename fails
    here and not as a KeyError in a traced run. kernels.prune is the prune
    hook, checked by the test above."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["MODULE_LAYERS"]
    )
    module_of = {layer: name for name, layer in layers.items()}
    metrics = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "metrics"
    )
    keys = {
        node.slice.value
        for node in ast.walk(metrics)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "s"
        and isinstance(node.slice, ast.Constant)
    }
    assert "invariants.chromatic_number" in keys and len(keys) > 10
    missing = []
    for key in sorted(keys - {"kernels.prune"}):
        layer, name = key.split(".")
        module = importlib.import_module(module_of.get(layer, f"holelab.{layer}"))
        if name not in public_functions(module):
            missing.append(key)
    assert not missing, f"tracer metrics read spans of no public function: {missing}"
