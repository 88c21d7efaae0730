"""Guard against dead code in the package.

Every top-level function, class and assigned name (constants and
namedtuple classes) of ``src/shimura_pq/*.py``, and every method of those
classes, public or private, must be referenced from the program:
``src/``, ``scripts/`` or the benchmark's own modules (``perfbench/*.py``,
not its tests).  A reference is a ``Name``, an ``Attribute`` or an imported
name, outside the definition itself, so recursion does not keep a function
alive.  Code that only the tests call belongs under ``tests/``.

A method is reached through an object, so only an ``Attribute`` or a string
equal to its name (``getattr`` or a class ``__dict__``, as the benchmark's
tracer reaches methods) references it: a local variable or a function of
the same spelling does not.  Names are still matched by spelling alone, so
a clash (a dead method that shares its name with a live attribute of
another class) hides dead code: the guard is lenient, not strict.  A
top-level name reached through strings alone would be flagged although
used.  Dunder names (``__version__`` among them), dunder methods, top-level
dunder functions (module hooks such as the PEP 562 ``__getattr__`` and
``__dir__``, which the interpreter calls) and ``cli.main``, the entry
point, are exempt.

The fields of the namedtuple records of ``src/`` (``X = namedtuple("X",
...)`` or ``class X(namedtuple("X", ...))``) must each be read through an
attribute (``e.units``) by the program: a field that is only ever set, by
keyword or by ``_replace``, is dead data.  A read is matched by spelling
too, so a field that shares its name with a field read on another record
passes.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "shimura_pq")
PROGRAM = (sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
           + sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
           + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))))
EXEMPT = {("cli", "main")}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """(qualified name, bare name, node, kinds) for each definition but the
    dunders; kinds are the reference kinds that keep it alive."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield f"{module}.{target.id}", target.id, node, TOP_LEVEL
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_dunder(node.name):
            continue
        yield f"{module}.{node.name}", node.name, node, TOP_LEVEL
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, METHOD


TOP_LEVEL = {"name", "attribute", "import"}
METHOD = {"attribute", "string"}


def _references(tree):
    """(name, line, kind) for every Name, Attribute, imported name and
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, "attribute"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, "import"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, "string"


def _dead(module, path, tree, refs):
    """Qualified names of the definitions of tree, the module at path, that
    no reference of refs ({path: [(name, line, kind)]}) keeps alive."""
    for qualname, name, node, kinds in _definitions(module, tree):
        if (module, name) in EXEMPT:
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(ref == name and kind in kinds and not (where == path and line in own)
                   for where, found in refs.items() for ref, line, kind in found):
            yield qualname


def unreferenced():
    refs = {path: list(_references(_parse(path))) for path in PROGRAM}
    return [qualname for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
            for qualname in _dead(os.path.splitext(os.path.basename(path))[0], path,
                                  _parse(path), refs)]


def _record_fields(tree):
    """(record, field) for each field of each top-level namedtuple record."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            calls = [node.value]
        elif isinstance(node, ast.ClassDef):
            calls = node.bases
        else:
            continue
        for call in calls:
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "namedtuple"):
                record, fields = (arg.value for arg in call.args[:2])
                for field in fields.replace(",", " ").split():
                    yield record, field


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields():
    reads = set().union(*(_attribute_reads(_parse(path)) for path in PROGRAM))
    return [f"{os.path.splitext(os.path.basename(path))[0]}.{record}.{field}"
            for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
            for record, field in _record_fields(_parse(path)) if field not in reads]


def test_every_public_name_is_used_by_the_program():
    assert unreferenced() == []


def test_every_record_field_is_read_by_the_program():
    assert unread_fields() == []
    records = {record for path in glob.glob(os.path.join(PACKAGE, "*.py"))
               for record, _ in _record_fields(_parse(path))}
    assert {"VertexClass", "Edge", "MGVertex", "QuaternionAlgebra"} <= records


def test_a_field_that_is_only_set_is_unread():
    tree = ast.parse("Edge = namedtuple('Edge', 'source units')\n"
                     "class Alg(namedtuple('Alg', 'q, a')):\n"
                     "    pass\n"
                     "\n"
                     "def build(alg, units):\n"
                     "    e = Edge(source=alg.q, units=units)\n"
                     "    return e._replace(units=[]).source\n")
    fields = set(_record_fields(tree))
    assert fields == {("Edge", "source"), ("Edge", "units"), ("Alg", "q"), ("Alg", "a")}
    assert {f for _, f in fields} - _attribute_reads(tree) == {"units", "a"}


def test_a_local_variable_does_not_keep_a_method_alive():
    # the clash the rule guards against: a dead Lattice.basis kept "used"
    # by a local variable basis in a function of the program
    tree = ast.parse("class Lattice:\n"
                     "    def basis(self):\n"
                     "        return self.rows\n"
                     "\n"
                     "def splitting(order):\n"
                     "    basis = order.rows\n"
                     "    return getattr(order, 'det'), order.key(), basis\n")
    kinds = {name: kinds for _, name, _, kinds in _definitions("m", tree)}
    refs = {(name, kind) for name, _, kind in _references(tree)}
    assert ("basis", "name") in refs
    assert not any(name == "basis" and kind in kinds["basis"] for name, kind in refs)
    assert ("det", "string") in refs and ("key", "attribute") in refs
    assert {"string", "attribute"} == kinds["basis"] and "name" in kinds["splitting"]


def test_a_module_hook_is_not_flagged():
    # the interpreter calls a module's __getattr__ (PEP 562) on a missing
    # attribute: nothing in the program names it
    tree = ast.parse("_NAMES = ('genus',)\n"
                     "\n"
                     "def __getattr__(name):\n"
                     "    if name not in _NAMES:\n"
                     "        raise AttributeError(name)\n"
                     "    return _load(name)\n"
                     "\n"
                     "def _load(name):\n"
                     "    return name\n"
                     "\n"
                     "def orphan():\n"
                     "    return _load('x')\n")
    assert list(_dead("m", "m.py", tree, {"m.py": list(_references(tree))})) == ["m.orphan"]
