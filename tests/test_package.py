"""The package surface: ``monotest.__all__`` is the library modules' ``__all__``,
the declared Python floor is not below numpy's, and CI installs the numpy
that README names."""

import importlib.metadata
import re
import tomllib
from pathlib import Path

import monotest
from monotest import bootstrap, errors, models, scales, sigma, simlab, statistic


def test_package_exports_each_module_all():
    modules = (bootstrap, errors, models, scales, sigma, simlab, statistic)
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert sorted(monotest.__all__) == sorted(expected)
    assert len(set(monotest.__all__)) == len(monotest.__all__)
    for name in monotest.__all__:
        assert hasattr(monotest, name), name
    assert [name for name in monotest.__all__ if name.startswith("_")] == ["__version__"]


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def _floor(spec: str) -> tuple[int, ...]:
    return _version(re.fullmatch(r"\s*>=\s*([\d.]+)\s*", spec)[1])


def test_python_floor_is_not_below_numpys():
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        ours = _floor(tomllib.load(fh)["project"]["requires-python"])
    numpys = _floor(importlib.metadata.metadata("numpy")["Requires-Python"])
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", workflow)[1]
    lowest = min(_version(v) for v in re.findall(r"[\d.]+", matrix))
    assert ours >= numpys
    assert lowest >= numpys


def test_workflow_pins_the_numpy_readme_names():
    # the goldens were recorded with the numpy build that README's install
    # section names, so CI installs that one
    root = Path(__file__).resolve().parent.parent
    install = (root / "README.md").read_text().split("## Install")[1].split("\n## ")[0]
    named = set(re.findall(r"numpy (\d+\.\d+\.\d+)", install))
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    pinned = set(re.findall(r"numpy==([\d.]+)", workflow))
    assert len(named) == 1
    assert pinned == named
