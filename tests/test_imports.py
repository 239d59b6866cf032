"""Module boundaries: no qdiv module imports another module's private names,
and the finite-n layer checks its pairs in one place."""

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


def test_hypotest_checks_pairs_only_in_copy_pair():
    # the dimension, n and cap checks and the one-copy support check run
    # where a one-copy or n-copy pair is made, and nowhere else
    checks = {"check_dims", "check_power", "support_escapes"}
    found = []
    for node in ast.parse((SRC / "hypotest.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name in ("OneCopyPair", "CopyPair"):
            continue
        found += [f"line {call.lineno}: {name}" for call in ast.walk(node) if isinstance(call, ast.Call)
                  and (name := getattr(call.func, "id", getattr(call.func, "attr", None))) in checks]
    assert found == []
