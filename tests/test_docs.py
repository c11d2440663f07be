"""The public surface agrees with the README."""

import re
from pathlib import Path
from types import ModuleType

import cqss

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_and_readme_quickstart_runs():
    names = cqss.__all__
    assert len(names) == len(set(names)), "duplicate names in cqss.__all__"
    missing = [name for name in names if not hasattr(cqss, name)]
    assert not missing, f"cqss.__all__ names unknown attributes: {missing}"
    modules = [name for name in names if isinstance(getattr(cqss, name), ModuleType)]
    assert not modules, f"cqss.__all__ exports submodules: {modules}"

    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library quickstart'"
    exec(compile(block.group(1), f"{README.name} quickstart", "exec"), {})
