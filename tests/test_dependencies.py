"""The package's runtime dependencies: the standard library and numpy only."""

import ast
import sys
from pathlib import Path

import latticepaths

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "latticepaths"}


def test_package_imports_only_the_standard_library_and_numpy():
    # every import statement counts, at any depth, including those behind a
    # try or inside a function: the tests may use scipy, mpmath or
    # hypothesis, the package may not
    package = Path(latticepaths.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or relative to the package
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert outside == []
