"""Package modules use only each other's public names."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "unsupcp"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path: Path) -> list[str]:
    """Underscore names (and names from underscore modules) that one package
    module imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "unsupcp"):
            parts = [p for p in (node.module or "").split(".") if p != "unsupcp"]
            if any(_private(p) for p in parts):
                found.append(f"module {node.module}")
            found += [alias.name for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "unsupcp" and any(_private(p) for p in parts[1:]):
                    found.append(f"module {alias.name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert _private_imports(path) == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never references; in ``__init__`` a name
    listed in ``__all__`` counts as referenced."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


GRAM_ROUNDING = {"GRAM32_REL_ERR", "GRAM32_ABS_ERR"}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "kernel.py"),
                         ids=lambda p: p.name)
def test_gram_rounding_stays_in_kernel(path):
    # the float32 Gram's entrywise error is known to ``kernel`` alone; other modules read it through ``Gram``
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert named & GRAM_ROUNDING == set()
