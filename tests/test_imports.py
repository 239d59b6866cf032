"""Module boundaries: no qdiv module imports another module's private names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "qdiv"


def test_no_module_imports_a_private_name():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qdiv")):
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
