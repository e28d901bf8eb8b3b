"""Packaging metadata: one version string, owned by the package."""

import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_reads_the_package_version():
    data = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in data["project"], "pyproject must not pin its own version"
    assert "version" in data["project"]["dynamic"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}
    assert repro.__version__
