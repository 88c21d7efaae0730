"""Guard against objects finished from outside their class.

A ``VertexSet`` and a ``ShimuraGraph`` are whole when constructed: the
constructor derives their w_q and w_p records and checks them, on a build
and on a cache load alike.  So in ``src/`` each record of ``OWNED`` is
assigned only inside a method of the class that owns it; an assignment
anywhere else (a module function, another class) would finish an object
from outside, past its checks.  An assignment is an attribute store or
delete (``x.wq_perm = ...``, also in a tuple target or as ``+=``) or a
store into an item of one (``x.wq_perm[k] = ...``).  Names are matched by
spelling, on any object.

Likewise an ``Edge`` record is made only by ``ssgraph._edge``, and
``_edge`` is called only by ``ShimuraGraph.__init__`` and imported
nowhere: the build and a cache load pass each edge's source, ideal,
target and witness, and the constructor derives and checks the rest.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
OWNED = {"VertexSet": ("classes", "two_sided", "wq_perm", "wq_witnesses"),
         "ShimuraGraph": ("wp_perm", "wq_edge_perm")}
OWNER = {name: cls for cls, names in OWNED.items() for name in names}


def _stored(node):
    """The attribute name node assigns, or None."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.attr if isinstance(node, ast.Attribute) else None
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.attr
    return None


def assignments(tree):
    """(attribute, line, class) for each assignment of an ``OWNED`` record
    in tree; class is the top-level class that holds it, or None."""
    for top in tree.body:
        cls = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            name = _stored(node)
            if name in OWNER:
                yield name, node.lineno, cls


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def test_records_are_assigned_only_by_their_class():
    found = {path: list(assignments(_parse(path))) for path in SOURCES}
    outside = [f"{os.path.relpath(path, ROOT)}:{line}: {name} assigned in {cls or 'a function'}"
               for path, hits in found.items() for name, line, cls in hits
               if cls != OWNER[name]]
    assert outside == []
    # each record is assigned somewhere, so a rename cannot empty the guard
    assert {name for hits in found.values() for name, _, _ in hits} == set(OWNER)


def test_an_assignment_from_outside_is_found():
    tree = ast.parse("class VertexSet:\n"
                     "    def __init__(self, perm):\n"
                     "        self.classes, self.wq_perm = [], perm\n"
                     "\n"
                     "def attach(vset, y):\n"
                     "    vset.two_sided = []\n"
                     "    vset.wq_witnesses[0] = y\n"
                     "    vset.classes.append(y)\n"
                     "    graph.wp_perm += [0]\n")
    assert sorted(assignments(tree)) == [
        ("classes", 3, "VertexSet"), ("two_sided", 6, None), ("wp_perm", 9, None),
        ("wq_perm", 3, "VertexSet"), ("wq_witnesses", 7, None)]


def calls(tree, names):
    """(name, enclosing function path) for each call of one of names, by a
    bare name, and (name, "import") for each import of one."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from walk(child, where + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in names):
                yield child.func.id, ".".join(where)
            if isinstance(child, ast.ImportFrom):
                yield from ((a.name, "import") for a in child.names if a.name in names)
            yield from walk(child, where)

    return sorted(walk(tree, ()))


def test_edges_are_made_only_by_the_graph_constructor():
    found = {os.path.relpath(path, ROOT): calls(_parse(path), {"_edge", "Edge"})
             for path in SOURCES}
    assert {path: hits for path, hits in found.items() if hits} == {
        os.path.join("src", "shimura_pq", "ssgraph.py"): [
            ("Edge", "_edge"), ("_edge", "ShimuraGraph.__init__")]}


def test_a_call_from_outside_is_found():
    tree = ast.parse("from .ssgraph import _edge\n"
                     "class ShimuraGraph:\n"
                     "    def __init__(self, edges):\n"
                     "        self.edges = [_edge(*e) for e in edges]\n"
                     "\n"
                     "def build_graph(vset):\n"
                     "    return [Edge(k) for k in vset]\n")
    assert calls(tree, {"_edge", "Edge"}) == [
        ("Edge", "build_graph"), ("_edge", "ShimuraGraph.__init__"), ("_edge", "import")]
