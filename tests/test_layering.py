"""No ejump module reaches into another one's private names.

A `_`-prefixed name is an implementation detail of the module that defines
it.  Importing one from another ejump module, or reading `<module>._name`
through an imported ejump module, couples two layers through internals; this
check finds both with `ast`, without importing anything.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
PACKAGE = SRC / "ejump"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_accesses(path: Path) -> list:
    """'file:line name' for every private name of another ejump module used in `path`."""
    this = _module_name(path)
    package = this if path.name == "__init__.py" else this.rpartition(".")[0]
    modules = {_module_name(p) for p in PACKAGE.rglob("*.py")}
    tree = ast.parse(path.read_text(), filename=str(path))
    module_aliases = set()
    found = []
    where = path.relative_to(SRC.parent)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                source = f"{base}.{node.module}" if node.module else base
            else:
                source = node.module or ""
            if not source.startswith("ejump") or source == this:
                continue
            for alias in node.names:
                if f"{source}.{alias.name}" in modules:
                    module_aliases.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    found.append(f"{where}:{node.lineno} {source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ejump") and alias.asname:
                    module_aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and _is_private(node.attr)
        ):
            found.append(f"{where}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_private_names_across_modules():
    found = [hit for path in sorted(PACKAGE.rglob("*.py")) for hit in private_accesses(path)]
    assert found == []
