"""Every name the package root imports from a module is in that module's
``__all__``, and a star import of the module gives all of ``__all__``, so a
name deleted from a module cannot stay exported."""

import ast
import importlib
from pathlib import Path

import pytest

import baryflow


def root_imports():
    """{module: names} of the ``from .module import ...`` statements of the
    package's ``__init__``."""
    imports = {}
    for node in ast.parse(Path(baryflow.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(
                a.name for a in node.names)
    return imports


def test_root_imports_parsed():
    assert {"flow_empirical", "flow_gmm", "ot"} <= set(root_imports())


@pytest.mark.parametrize("module", sorted(root_imports()))
def test_root_names_in_module_all(module):
    names = root_imports()[module]
    mod = importlib.import_module(f"baryflow.{module}")
    namespace = {}
    exec(f"from baryflow.{module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
    missing = sorted(set(names) - set(mod.__all__))
    assert not missing, f"baryflow imports {missing} from {module}, whose " \
                        f"__all__ does not list them"
