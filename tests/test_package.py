import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import amnet

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    """perfbench/tracing.py, loaded by path: it is not a package module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_export_resolves():
    modules = [amnet] + [importlib.import_module(f"amnet.{info.name}")
                         for info in pkgutil.iter_modules(amnet.__path__)]
    assert len(modules) > 1
    dangling = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
                if not hasattr(mod, name)]
    assert dangling == []


def test_benchmark_patch_sites_resolve():
    # perfbench/tracing.py replaces these attributes by name, so a rename
    # in the package would break the benchmark's traced runs
    tracing = _tracing()
    sites = [(mod, attr) for mod, attr, *_ in tracing.SPANS] + list(tracing.GRU_STEP_SITES)
    assert len(sites) > len(tracing.GRU_STEP_SITES)
    missing = []
    for mod, attr in sites:
        owner = importlib.import_module(mod)
        *outer, name = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(name) if owner is not None else None):
            missing.append(f"{mod}.{attr}")
    assert missing == []


def test_benchmark_batch_rows_count_by_hand():
    # perfbench/tracing.py counts each training batch's sentence rows
    # through Batch.story and Batch.sentence_mask
    from amnet.data import EncodedExample, make_batch

    def example(story):
        return EncodedExample(story, list(range(1, len(story) + 1)), [10, 11], [12], [])

    batch = make_batch([example([[4, 5], [6]]), example([[4, 5], [6], [7, 8], [4, 5]]),
                        example([[9]])])
    # 3 stories of 4 slots; 2 + 4 + 1 statements; [4, 5], [6], [7, 8], [9]
    # and the all-PAD row of the padded slots
    assert _tracing().batch_rows(batch) == {"padded": 12, "real": 7, "distinct": 5}


class _References(ast.NodeVisitor):
    """Every name read as a bare name or an attribute, except inside the
    body of a def or class of the same name (its own definition) or of a
    def or class named in ``dead``."""

    def __init__(self, dead):
        self.names: set[str] = set()
        self.enclosing: list[str] = []
        self.dead = dead

    def _scope(self, node):
        if node.name not in self.dead:
            self.enclosing.append(node.name)
            self.generic_visit(node)
            self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _read(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def test_every_export_has_a_caller_outside_the_tests():
    # an export read only inside other exports without a caller has none
    # either: drop their bodies until the set of dead exports stops growing
    trees = [tree for _, tree in _trees("src/amnet", "demos", "perfbench")]
    dead: set[str] = set()
    while True:
        refs = _References(dead)
        for tree in trees:
            refs.visit(tree)
        now = set(amnet.__all__) - refs.names
        if now == dead:
            break
        dead = now
    assert sorted(dead) == []


def _all_names(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_import_in_the_package_is_used():
    # perfbench/tracing.py patches these module attributes, so they stay
    # importable even where the module itself no longer calls them
    tracing = _tracing()
    patched = {(mod, attr) for mod, attr, *_ in tracing.SPANS} | set(tracing.GRU_STEP_SITES)
    unused = []
    for path, tree in _trees("src/amnet"):
        module = f"amnet.{path.stem}" if path.stem != "__init__" else "amnet"
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _all_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used and (module, name) not in patched]
    assert unused == []
