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
