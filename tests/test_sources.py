import ast
import pathlib

import mertens


def test_no_module_imports_a_name_it_never_uses():
    # an import left behind when its last use goes, such as fractions in
    # accumulators or constants in verifier, fails here
    src = pathlib.Path(mertens.__file__).parent
    for f in sorted(src.glob("*.py")):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        # an attribute chain such as np.log starts with the Name np
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert sorted(imported - used) == [], f.name


def test_every_private_module_name_is_used():
    # a private helper left behind when its last caller goes, such as a
    # one-caller formatter folded into it, fails here.  A use is a Name, or
    # an attribute of a package module such as accumulators._units: not
    # SumCheckpoint._fields, which would hide a dead module-level _fields
    files = sorted(pathlib.Path(mertens.__file__).parent.glob("*.py"))
    modules = {f.stem for f in files}
    trees = [ast.parse(f.read_text()) for f in files]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
    private = {n for n in defined if n.startswith("_") and not n.endswith("__")}
    used = set()
    for n in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in modules:
            used.add(n.attr)
    assert private, "no private module-level name found"
    assert sorted(private - used) == []
