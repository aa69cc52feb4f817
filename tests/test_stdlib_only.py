"""The package imports nothing outside the standard library."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "gramgrow")


def test_package_imports_only_the_standard_library():
    names = [n for n in sorted(os.listdir(SRC)) if n.endswith(".py")]
    assert names
    for name in names:
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (name, module)
