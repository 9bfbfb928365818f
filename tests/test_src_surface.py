"""Every public function and method in src/ is used by src/ itself.

A public top-level function or public method whose name appears nowhere in
the package outside its own definition is reached only from tests or from
the benchmarks.  Test-only code either becomes an anchor of
``qcflop verify``, moves into tests/ as a reference, or is deleted; the names
in AWAITING_ANCHORS wait for the anchors that ROADMAP item A names.  A
reference is an identifier or an attribute with the name, so two definitions
that share a name count as used together.
"""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "qcflop"

# the public names that only tests reach, each with the anchor it waits for
AWAITING_ANCHORS = {
    "batyrev.det_h_closed_form": "ROADMAP A: batyrev/charpoly-closed-form",
}

# the public names that only the benchmark harness reaches besides tests
BENCHMARK_SURFACE = {
    # the tracer's alias check reads it through qcflop.algebra and
    # qcflop.canonical; the frame writes its symmetric functions in closed form
    "algebra.cyclotomic.elementary_symmetric": "perfbench/test_bench.py",
}


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, def node) for each public top-level function and each
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _references(node: ast.AST) -> Counter:
    """How often each identifier and attribute name is used under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_only_allow_listed_public_names_are_unreferenced_in_src():
    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        trees[module.removesuffix(".__init__")] = ast.parse(path.read_text())
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unreferenced = [qualname for module, tree in trees.items()
                    for qualname, node in _public_definitions(tree, module)
                    if everywhere[node.name] == _references(node)[node.name]]
    assert sorted(unreferenced) == sorted(AWAITING_ANCHORS | BENCHMARK_SURFACE)


def test_benchmark_surface_is_reached_from_the_named_file():
    for qualname, path in BENCHMARK_SURFACE.items():
        assert qualname.rsplit(".", 1)[1] in (REPO / path).read_text()
