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
