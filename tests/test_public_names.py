"""Every public module-level name and every private top-level function in
src/schromax has a caller in the program, and every public member of its
classes is read by the program.

A caller is another top-level definition in src/schromax, or code in
perfbench/.  Tests do not count.  The check reads ast.Name and ast.Attribute
nodes only, so a name mentioned in a docstring or a comment has no caller.
A class member is read by an attribute load of its name, or by its name as a
string passed to getattr or setattr; a constructor keyword is not a read.  A
class that serializes self.__dict__ reads all of its fields.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "schromax")
MODULES = {os.path.basename(p)[:-3]: p for p in glob.glob(os.path.join(SRC, "*.py"))}

# Called only by tests/test_acceptance.py, whose gate may not change.
ACCEPTANCE_ONLY = {"hankel_propagate", "simpson_weights", "forward_transform"}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _defined_names(stmt):
    """Names a top-level statement defines that need a caller: the name of
    any function, and public names otherwise (imports define none)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [stmt.name]
    if isinstance(stmt, ast.ClassDef):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _imports(tree):
    """{local name: module m} for every ``from schromax.<m> import name``."""
    return {alias.asname or alias.name: node.module.split(".")[-1]
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("schromax.")
            for alias in node.names}


def _references(tree, module, imported):
    """(module, name) pairs a syntax tree refers to.

    A bare name refers to the name's module in ``imported``, else to
    ``module``; ``m.name`` refers to module m.
    """
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add((imported.get(node.id, module), node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            refs.add((node.value.id, node.attr))
    return refs


def test_every_public_name_has_a_caller():
    defined = {}   # (module, name) -> defining top-level statement
    refs_by_stmt = []
    for module, path in MODULES.items():
        tree = _parse(path)
        imported = _imports(tree)
        for stmt in tree.body:
            refs_by_stmt.append((stmt, _references(stmt, module, imported)))
            if module != "cli":
                for name in _defined_names(stmt):
                    defined[(module, name)] = stmt
    perfbench = set()
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        perfbench |= _references(_parse(path), None, {})

    uncalled = sorted(
        f"{module}.{name}" for (module, name), own in defined.items()
        if name not in ACCEPTANCE_ONLY and (module, name) not in perfbench
        and not any((module, name) in refs for stmt, refs in refs_by_stmt
                    if stmt is not own))
    assert not uncalled, "no caller outside the tests: " + ", ".join(uncalled)


def _members(cls):
    """Public fields, properties and methods a class body defines, plus the
    attributes its methods assign on self."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
            names |= {node.attr for node in ast.walk(stmt)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"}
        else:
            names.update(_defined_names(stmt))
    return {n for n in names if not n.startswith("_")}


def _serializes_dict(cls):
    """Whether a method of the class reads self.__dict__ (so every field)."""
    return any(isinstance(node, ast.Attribute) and node.attr == "__dict__"
               and isinstance(node.value, ast.Name) and node.value.id == "self"
               for node in ast.walk(cls))


def _reads(tree):
    """Attribute names a syntax tree loads: ``x.name`` in a load context, or a
    string constant passed to getattr or setattr."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            reads.add(node.args[1].value)
    return reads


def test_every_public_class_member_is_read():
    paths = list(MODULES.values()) + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    reads = set()
    for path in paths:
        reads |= _reads(_parse(path))
    unread = sorted(
        f"{module}.{cls.name}.{name}"
        for module, path in MODULES.items()
        for cls in ast.walk(_parse(path)) if isinstance(cls, ast.ClassDef)
        and not _serializes_dict(cls)
        for name in _members(cls) if name not in reads)
    assert not unread, "class members nothing reads outside the tests: " + ", ".join(unread)
