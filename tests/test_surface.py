"""Every public name in the package has a reader in the program.

The scan AST-parses `src/cubesquares/*.py` and lists each public module-level
function and class, and each public method.  Each must be referenced as a
name, an attribute or an import by the program: by `src/` outside the name's
own definition, or by `scripts/*.py` or `perfbench/*.py`.  Tests do not
count.  Matching is by bare name, so a method shares its readers with any
other definition of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubesquares"

# Public names with no program reader, each kept on purpose.
ALLOWED = {
    "weights.load_binary": "reads the .wcl tables that `enumerate --table --format bin` writes",
    "weights.load_csv": "reads the .csv tables that `enumerate --table --format csv` writes",
    "weights.WeightTable.multiplicity": "the weight of one value, the table's pointwise view",
    "weights.WeightTable.as_dict": "the table as a value -> weight map, for inspection",
    "w2.w2": "the weight w2(q) itself, which w2_scan computes in bulk as its square",
    "arcs.ArcDissection.half_width": "the arc radius X / (q n) that defines the dissection",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) for each public module-level def and class, and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _name(node: ast.AST) -> str | None:
    """The name `node` references as a name, an attribute or an import, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names `tree` references outside the subtree `skip`."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            names.add(_name(node))
            stack.extend(ast.iter_child_nodes(node))
    return names


def unread_names() -> list[str]:
    src = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {module: _referenced(tree) for module, tree in src.items()}
    external = set()
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        external |= _referenced(ast.parse(path.read_text()))
    unread = []
    for module, tree in src.items():
        others = external.union(*(r for other, r in refs.items() if other != module))
        for qualname, node in _definitions(tree):
            if node.name in others or node.name in _referenced(tree, skip=node):
                continue
            unread.append(f"{module}.{qualname}")
    return unread


def test_every_public_name_has_a_program_reader():
    unread = set(unread_names())
    assert sorted(unread - set(ALLOWED)) == []
    # an allowlist entry that gained a reader, or whose name is gone, is stale
    assert sorted(set(ALLOWED) - unread) == []
