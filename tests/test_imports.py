"""Source hygiene checks on the package modules."""

import ast
from pathlib import Path

import skewcodes


def test_every_imported_name_is_used():
    """Each module other than the package's __init__ (which re-exports)
    uses every name it imports, read off its syntax tree."""
    offenders = []
    for path in sorted(Path(skewcodes.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line}: {name}"
                      for name, line in imported.items() if name not in used]
    assert not offenders, offenders
