"""Each module's __all__ matches what the package imports from it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import rslogic

MODULES = {
    info.name: importlib.import_module(f"rslogic.{info.name}")
    for info in pkgutil.iter_modules(rslogic.__path__)
}


def test_every_exported_name_resolves():
    for name, module in MODULES.items():
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"rslogic.{name}.__all__ lists missing {export}"


def test_public_names_imported_across_the_package_are_exported():
    for name, module in MODULES.items():
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            exported = getattr(MODULES[node.module], "__all__", None)
            assert exported is not None, (
                f"rslogic.{name} imports from rslogic.{node.module}, which has no __all__"
            )
            for alias in node.names:
                if not alias.name.startswith("_"):
                    assert alias.name in exported, (
                        f"rslogic.{name} imports {alias.name} from rslogic.{node.module}, "
                        "which does not export it"
                    )
