"""Surface guard: every definition in src/ has a caller outside the tests
of its own.

A top-level function, a class or a non-dunder method counts as
referenced when its name appears outside its own body in src/, in
perfbench/*.py or in tests/test_acceptance.py: as an attribute, or in
perfbench, which patches the attributes its lists name, as a string in
a list; a function or class also as a name or an imported name. So a
local variable or a class-body assignment never shields a method. Uses
inside definitions that are themselves unreferenced do not count, so a
chain of dead helpers is found whole; a method of an unreferenced class
is unreferenced too. Attributes are matched by name alone, so a method
still shares its references with every other method or attribute of the
same name. A class registered with @register_plan is referenced through
its plan type. No name may be left over.

Imports are guarded too: a name a src/ module imports but never uses
stays only when perfbench/spans.py patches it by name in that module.
"""

import ast
import importlib.util
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sources(root: pathlib.Path):
    """The files whose definitions are checked, and the files whose uses
    count. The package __init__ re-exports names, which is no use."""
    src = sorted((root / "src").rglob("*.py"))
    refs = [p for p in src if p.name != "__init__.py"]
    refs += sorted((root / "perfbench").glob("*.py"))
    refs.append(root / "tests" / "test_acceptance.py")
    return src, refs


def _definitions(tree: ast.Module):
    """(qualified name, name, node, owning class or None) of each
    top-level function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield (f"{node.name}.{item.name}", item.name, item,
                           node.name)


def _names(node: ast.AST, strings: bool = False) -> Counter:
    """Occurrences of each identifier under node: "x" for a name or an
    imported name x, ".x" for an attribute x and, if strings is set, for
    a string x in a list literal."""
    out = Counter()
    for cur in ast.walk(node):
        if isinstance(cur, ast.Name):
            out[cur.id] += 1
        elif isinstance(cur, ast.Attribute):
            out["." + cur.attr] += 1
        elif isinstance(cur, ast.alias):
            out[cur.name.rsplit(".", 1)[-1]] += 1
        elif strings and isinstance(cur, ast.List):
            out.update("." + e.value for e in cur.elts
                       if isinstance(e, ast.Constant)
                       and isinstance(e.value, str))
    return out


def _refs(names: Counter, name: str, owner) -> int:
    """References to a definition: attributes only for a method."""
    return names["." + name] + (0 if owner else names[name])


def _registered(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        and d.func.id == "register_plan" for d in node.decorator_list)


def unreferenced(root: pathlib.Path = ROOT) -> set:
    """Qualified names of the definitions in src/ with no reference."""
    src, refs = _sources(root)
    used = sum((_names(ast.parse(p.read_text(), str(p)),
                       strings=p.parent.name == "perfbench") for p in refs),
               Counter())
    defs = [(qual, name, _names(node), owner)
            for path in src
            for qual, name, node, owner in _definitions(ast.parse(
                path.read_text())) if not _registered(node)]
    dead: set = set()
    while True:
        # uses inside dead definitions, each counted once
        live = used - sum((inner for qual, _, inner, owner in defs
                           if qual in dead and owner not in dead), Counter())
        new = {qual for qual, name, inner, owner in defs
               if qual not in dead and (owner in dead or _refs(
                   live, name, owner) <= _refs(inner, name, owner))}
        if not new:
            return dead
        dead |= new


def test_every_definition_has_a_caller():
    assert unreferenced() == set(), "definitions no caller reaches"


def unused_imports(root: pathlib.Path = ROOT) -> set:
    """(module, name) of each name a src/ module imports and never uses;
    the package __init__ imports only to re-export."""
    out = set()
    for path in sorted((root / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        out |= {(path.stem, name) for name in imported - used}
    return out


def test_unused_imports_are_only_those_perfbench_patches():
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patched = {(module, attr) for _, module, owner, attrs, _ in spans.POINTS
               if owner is None for attr in attrs}
    kept = unused_imports()
    assert kept == {("apps", "sample_seeds"), ("reductions", "next_prime")}
    assert kept <= patched
