"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import chainprofile


def test_every_absolute_import_is_in_the_standard_library():
    # numpy and scipy may be installed where the tests run, so a stray
    # import of them would still load: read the imports instead
    sources = sorted(Path(chainprofile.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
