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


def private_reads(path: Path, module: str) -> list[str]:
    """The private names of package module ``module`` that a module reads:
    ``module._name`` attributes and ``from .module import _name`` imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == module):
            found.append(node.attr)
        if isinstance(node, ast.ImportFrom) and node.module == module:
            found += [a.name for a in node.names if a.name.startswith("_")]
    return found


def package_modules(*skip: str) -> list[Path]:
    package = Path(baryflow.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name not in skip)
    assert len(modules) >= 8
    return modules


def test_private_ot_names_stay_in_ot():
    # the plans between point clouds are chosen in ot alone
    reads = {p.name: private_reads(p, "ot") for p in package_modules("ot.py")}
    assert not any(reads.values()), reads


def test_private_gaussian_names():
    # the Bures math lives in gaussian; functionals' Monte-Carlo energies
    # chain their draws with its sampler's helpers, and datasets checks
    # factors as mixtures do
    reads = {p.name: sorted(set(private_reads(p, "gaussian")))
             for p in package_modules("gaussian.py")}
    assert {name: r for name, r in reads.items() if r} == {
        "datasets.py": ["_check_factors"],
        "functionals.py": ["_pathwise_grads", "_whiten"]}


def identifiers(path: Path) -> set[str]:
    """Every identifier a module names: variables, attributes, parameters
    and keyword arguments."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            found.add(node.arg)
    return found


def test_class_names_stay_at_the_csv_boundary():
    # measures, batches, mixtures and both flows carry class ids only
    modules = package_modules("datasets.py", "cli.py")
    naming = [p.name for p in modules if "class_names" in identifiers(p)]
    assert not naming, naming
    package = Path(baryflow.__file__).parent
    assert "class_names" in identifiers(package / "datasets.py")


def test_no_module_reads_a_dense_coupling():
    # exact plans are read as their cells; ``TransportPlan.coupling`` is the
    # dense view that tests and the benchmark compare
    reads = {p.name: [node.lineno for node in ast.walk(ast.parse(p.read_text()))
                      if isinstance(node, ast.Attribute)
                      and node.attr == "coupling"]
             for p in package_modules()}
    assert {name: lines for name, lines in reads.items() if lines} == {}
