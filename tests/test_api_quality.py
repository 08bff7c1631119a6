"""Meta tests on the public API: documentation and import hygiene.

A reproduction meant as a library must be navigable: every public module,
class and function carries a docstring, ``__all__`` lists resolve, and
the package imports without side effects like stray prints.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.simkernel",
    "repro.hardware",
    "repro.memory",
    "repro.vmm",
    "repro.guest",
    "repro.control",
    "repro.core",
    "repro.aging",
    "repro.workloads",
    "repro.cluster",
    "repro.analysis",
    "repro.obs",
    "repro.experiments",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                yield importlib.import_module(f"{package_name}.{info.name}")


@pytest.mark.parametrize("module", list(iter_modules()), ids=lambda m: m.__name__)
def test_module_docstrings(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize("module", list(iter_modules()), ids=lambda m: m.__name__)
def test_public_callables_documented(module):
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at home
        if inspect.isclass(member) or inspect.isfunction(member):
            if not inspect.getdoc(member):
                undocumented.append(name)
            if inspect.isclass(member):
                for method_name, method in vars(member).items():
                    if method_name.startswith("_"):
                        continue
                    if inspect.isfunction(method) and not inspect.getdoc(method):
                        undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module.__name__} has undocumented public API: {undocumented}"
    )


@pytest.mark.parametrize(
    "package_name",
    [p for p in PACKAGES if p != "repro"],
)
def test_dunder_all_resolves(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert getattr(package, name, None) is not None, (
            f"{package_name}.__all__ lists unresolvable {name!r}"
        )


def test_top_level_lazy_exports():
    assert repro.Simulator is not None
    assert repro.RootHammer is not None
    assert repro.paper_testbed is not None
    with pytest.raises(AttributeError):
        _ = repro.Nonexistent


def test_version_is_consistent():
    import tomllib
    from pathlib import Path

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("source layout not available")
    metadata = tomllib.loads(pyproject.read_text())
    assert metadata["project"]["version"] == repro.__version__
