"""Every third-party package the library imports is a declared
dependency, so ``pip install`` of the package alone is enough to
``import repro``."""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> dict[str, str]:
    """Top-level name of every non-stdlib package ``src/repro`` imports,
    anywhere in a module, with the first ``path:line`` importing it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(
                        top, f"{path.relative_to(ROOT)}:{node.lineno}"
                    )
    return found


def declared_dependencies() -> set[str]:
    """Distribution names in ``[project].dependencies``, normalized."""
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {
        re.split(r"[\s\[<>=!~;]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in requirements
    }


def test_third_party_imports_are_declared():
    declared = declared_dependencies()
    missing = {
        package: where
        for package, where in imported_packages().items()
        if package.lower() not in declared
    }
    assert not missing, (
        f"imported but not in [project].dependencies: {missing}"
    )


def test_scan_finds_the_engines_numpy():
    assert "numpy" in imported_packages()
