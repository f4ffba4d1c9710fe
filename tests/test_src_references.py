"""Guard: every function, class and method in src has a caller in src.

Code that only tests call is a second path the program never takes. The
check is by name: a definition passes when its name is read anywhere in
``src/crackfind`` (as a name, an attribute or an import), other than by
its own definition.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "crackfind"

# kept in src although only tests call them, each for a stated reason
ALLOWED = {
    "fem.energy": "reference oracle: the energy form the solve tests check against",
    "fem.gradient_on": "reference oracle: the gradients the adjoint identity compares with",
    "PixelSet.from_rect": "the tests' constructor of rectangular pixel regions",
}
# entry points, called from outside the package
ENTRY_POINTS = {"cli.main"}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    # (key, name) of every module-level function and class and every method;
    # module-level keys are "module.name", methods "Class.method"
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield "%s.%s" % (module, node.name), node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield "%s.%s" % (node.name, item.name), item.name


def _referenced(modules):
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _unreferenced():
    modules = _modules()
    used = _referenced(modules)
    return sorted(
        key
        for key, name in _definitions(modules)
        if name not in used
        and not (name.startswith("__") and name.endswith("__"))
        and key not in ENTRY_POINTS
        and key not in ALLOWED
    )


def test_no_definition_only_tests_call():
    assert _unreferenced() == []


def test_allowlist_names_existing_definitions():
    # a stale entry would let a new test-only definition of that name through
    keys = {key for key, _ in _definitions(_modules())}
    assert set(ALLOWED) | ENTRY_POINTS <= keys
