"""Every exported name resolves, in the package and in each module, and
names taken out of the API stay out."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import pytest

import ucdkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(ucdkit.__path__))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(pathlib.Path(ucdkit.__file__).parent.glob("*.py"))}


def test_package_all_resolves():
    assert [name for name in ucdkit.__all__ if not hasattr(ucdkit, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"ucdkit.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []


# names taken out of the API, by the module that exported them
REMOVED = {
    "oracle": ("exact_value_table",),
    "clho": ("approx_value", "basis_vector", "step_values"),
    "costs": ("startup_cost_reference",),
    "scenario": ("bundled_scenario_path",),
    "_kernels": ("solve_pivoted",),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items()
                                          for n in names])
def test_removed_names_stay_unexported(module, name):
    assert name not in ucdkit.__all__ and not hasattr(ucdkit, name)
    assert name not in importlib.import_module(f"ucdkit.{module}").__all__


def test_train_config_has_no_basis_knob():
    assert [f.name for f in dataclasses.fields(ucdkit.TrainConfig)] == [
        "samples", "regularization", "seed"]


def test_every_private_definition_has_a_caller():
    # a private module-level function or class that nothing else in the
    # package names is dead code: tests alone do not keep it
    refs = {}               # name -> ids of the nodes that read it
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(id(node))
    unused = []
    for module, tree in TREES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = {id(n) for n in ast.walk(node)}
                if all(ref in own for ref in refs.get(node.name, ())):
                    unused.append(f"{module}:{node.name}")
    assert unused == []


def test_every_imported_name_is_read():
    # a name a module imports and never reads is a leftover; __init__
    # re-exports, and a name in a module's __all__ counts as read
    unused = []
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= set(getattr(importlib.import_module(f"ucdkit.{module[:-3]}"), "__all__", ()))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused += [f"{module}:{a.asname or a.name}" for a in node.names
                           if (a.asname or a.name).split(".")[0] not in read]
    assert unused == []


def test_every_slot_is_read():
    # a __slots__ name that nothing in the package reads, outside its own
    # class's __init__, is state kept for no one: a cache whose reader
    # has gone. An augmented assignment reads its target
    reads = {}              # attribute name -> ids of the nodes that read it
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                reads.setdefault(node.target.attr, []).append(id(node.target))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(id(node))
    unread = []
    for module, tree in TREES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            slots, init = (), set()
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and [getattr(t, "id", None) for t in node.targets] == ["__slots__"]):
                    slots = ast.literal_eval(node.value)
                elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    init = {id(n) for n in ast.walk(node)}
            unread += [f"{module}:{cls.name}.{name}" for name in slots
                       if all(ref in init for ref in reads.get(name, ()))]
    assert unread == []
