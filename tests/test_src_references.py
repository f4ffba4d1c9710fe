"""Guard: every function, class and method in src has a caller in src.

Code that only tests call is a second path the program never takes. The
check is by name. A module-level function or class passes when its name
is read anywhere in ``src/crackfind`` (as a name, an attribute or an
import), other than by its own definition. A method passes only when it is
read as an attribute, and not on a literal or on a fresh builtin container:
``set().union`` or a local variable named ``union`` does not call
``PixelSet.union``. An entry of the allowlist of test-only definitions
must name one that src does not read, or it is stale.

A module-level import must be read in its own module, by the name it
binds; ``from __future__`` imports are exempt. Only ``geometry`` reads the
attribute ``_cache``, the store behind ``Mesh.memo``. Inside ``ndmap`` only
``_dense_solve`` reads a ``linalg.solve`` or a ``linalg.lapack`` routine, so
every small dense solve there has its residual checked. No call of
``factorize`` passes a crack set: every crack configuration, the data's
included, is an update of a crack-free background. Only
``RegionMaps.__init__`` factorizes an excluded region, the peel's start.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "crackfind"

# kept in src although only tests call them, each for a stated reason
ALLOWED = {
    "fem.gradient_on": "reference oracle: the gradients the adjoint identity compares with",
    "PixelSet.from_rect": "the tests' constructor of rectangular pixel regions",
}
# entry points, called from outside the package
ENTRY_POINTS = {"cli.main"}
# calls whose attributes are the builtin type's methods, never a src method
BUILTIN_CALLS = {"set", "frozenset", "dict", "list", "tuple", "str"}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    # (key, name, is_method) of every module-level function and class and
    # every method; module-level keys are "module.name", methods
    # "Class.method"
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield "%s.%s" % (module, node.name), node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield "%s.%s" % (node.name, item.name), item.name, True


def _on_builtin(value):
    # a literal, or a call to a builtin container type
    if isinstance(value, (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Set, ast.Dict)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in BUILTIN_CALLS
    )


def _referenced(trees):
    # (bare names read or imported, attribute names read on a src object)
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not _on_builtin(node.value):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attrs


def _unread(modules):
    # {key: name} of every definition whose name src never reads
    names, attrs = _referenced(modules.values())
    return {
        key: name
        for key, name, is_method in _definitions(modules)
        if name not in (attrs if is_method else names | attrs)
    }


def _unreferenced():
    return sorted(
        key
        for key, name in _unread(_modules()).items()
        if not (name.startswith("__") and name.endswith("__"))
        and key not in ENTRY_POINTS
        and key not in ALLOWED
    )


def _unused_imports(modules):
    # "module.name" of every module-level import whose bound name its
    # module never reads
    out = []
    for module, tree in modules.items():
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        out.append("%s.%s" % (module, bound))
    return sorted(out)


def test_no_definition_only_tests_call():
    assert _unreferenced() == []


def test_allowlist_names_existing_definitions():
    # a stale entry would let a new test-only definition of that name through
    keys = {key for key, _, _ in _definitions(_modules())}
    assert set(ALLOWED) | ENTRY_POINTS <= keys


def test_allowlist_names_only_definitions_src_does_not_read():
    # once src reads an allowed name the entry is stale: it no longer keeps
    # a test-only definition and would hide the next one of that name
    assert set(ALLOWED) <= _unread(_modules()).keys()


def test_method_reads_on_builtins_and_bare_names_do_not_count():
    names, attrs = _referenced([ast.parse(
        "union = set().union(a)\n"
        "b = frozenset(a).minus, dict(a).dilate, 'x'.mask, [a].triangles\n"
        "c = region.components(), self.grid.coords(p)\n"
    )])
    assert {"union", "region", "self"} <= names
    assert attrs == {"components", "grid", "coords"}


def _cache_readers(modules):
    # the modules that read an attribute named _cache
    return sorted(
        module
        for module, tree in modules.items()
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_cache" for node in ast.walk(tree)
        )
    )


def test_only_geometry_reads_the_mesh_memo():
    # a per-mesh quantity goes through Mesh.memo; no other module touches
    # the store behind it
    assert set(_cache_readers(_modules())) <= {"geometry"}


def test_cache_readers_are_attribute_reads():
    trees = {
        "a": ast.parse("x = mesh._cache['k']\n"),
        "b": ast.parse("_cache = {}\ny = mesh.memo('k', f)\n"),
    }
    assert _cache_readers(trees) == ["a"]


def _solve_readers(tree):
    # the functions that read ``<x>.linalg.solve`` or ``<x>.linalg.lapack``
    # or import ``solve`` from a linalg module, each the innermost function
    # around the read, sorted; "" for a read outside every function
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in ("solve", "lapack"):
                value = child.value
                if isinstance(value, ast.Attribute) and value.attr == "linalg":
                    out.append(owner)
            elif isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                out.extend(owner for alias in child.names if alias.name == "solve")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, "")
    return sorted(out)


def test_only_dense_solve_calls_linalg_solve_in_ndmap():
    # every small dense solve of ndmap goes through _dense_solve, which
    # checks the residual of every column: its LU and its Cholesky
    assert _solve_readers(_modules()["ndmap"]) == ["_dense_solve", "_dense_solve"]


def test_solve_readers_find_every_read():
    tree = ast.parse(
        "import numpy as np\n"
        "from scipy.linalg import solve\n"
        "def _dense_solve(A, B):\n"
        "    return np.linalg.solve(A, B)\n"
        "class Maps:\n"
        "    def fold(self, A):\n"
        "        return np.linalg.solve(A, A) @ scipy.linalg.solve_triangular(A, A)\n"
        "    def tie(self, A):\n"
        "        return np.linalg.eigvalsh(A), self.solve(A), self.lapack\n"
        "    def short(self, A):\n"
        "        return scipy.linalg.lapack.dposv(A, A)\n"
    )
    assert _solve_readers(tree) == ["", "_dense_solve", "fold", "short"]


def test_no_unused_module_import():
    assert _unused_imports(_modules()) == []


def test_unused_import_check_reads_bound_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import io\n"
        "import itertools\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from . import fem, geometry\n"
        "def f(x):\n"
        "    itertools = x\n"
        "    return np.sum(scipy.linalg.norm(x)) + fem.energy\n"
    )
    assert _unused_imports({"m": tree}) == ["m.geometry", "m.io", "m.itertools"]


def _factorizations(modules, keyword):
    # "module.Class.function" (or "module.function") of every call to
    # ``factorize`` that may pass ``keyword`` (by name, in a ``**`` mapping,
    # or as a third positional argument, which may be either), the owner the
    # functions and classes around the call, sorted
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "factorize" and (
                    len(child.args) >= 3
                    or any(kw.arg in (keyword, None) for kw in child.keywords)
                ):
                    out.append(".".join(owner))
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = owner + (child.name,)
            visit(child, inner)

    for module, tree in modules.items():
        visit(tree, (module,))
    return sorted(out)


def _crack_factorizations(modules):
    return _factorizations(modules, "cracks")


def _region_factorizations(modules):
    return _factorizations(modules, "excluded")


def test_no_src_path_factorizes_a_crack_set():
    # every crack configuration of a run, the data's included, is an update
    # of a crack-free background
    assert _crack_factorizations(_modules()) == []


def test_only_the_peel_start_factorizes_a_region():
    # every region of the table and of the peel is an update; the peel's
    # start region keeps its own factorization, which measured faster than
    # its condensation from the background
    assert _region_factorizations(_modules()) == ["ndmap.RegionMaps.__init__"]


def test_crack_factorizations_are_found_in_every_form():
    tree = ast.parse(
        "def data(mesh, g, c):\n"
        "    return fem.factorize(mesh, g, cracks=c)\n"
        "class Table:\n"
        "    def solve(self, name):\n"
        "        a = fem.factorize(self.mesh, self.g, self.c)\n"
        "        return factorize(self.mesh, self.g, **self.configs[name])\n"
        "def background(mesh, g, region):\n"
        "    return fem.factorize(mesh, g), fem.factorize(mesh, g, excluded=region)\n"
    )
    assert _crack_factorizations({"m": tree}) == ["m.Table.solve", "m.Table.solve", "m.data"]
    assert _region_factorizations({"m": tree}) == [
        "m.Table.solve", "m.Table.solve", "m.background",
    ]
