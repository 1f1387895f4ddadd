"""The Python floor pyproject.toml declares is the version CI tests on."""

from __future__ import annotations

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_requires_python_is_the_ci_python_version():
    floor = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["requires-python"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    versions = re.findall(r"""python-version:\s*["']?([0-9.]+)""", workflow)
    assert versions and {f">={v}" for v in versions} == {floor}
