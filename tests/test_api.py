"""The public surface: every export resolves, and the README's pipeline block runs."""

import re
from pathlib import Path

import solarband

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert [name for name in solarband.__all__ if not hasattr(solarband, name)] == []


def test_readme_pipeline_block_runs():
    section = README.read_text(encoding="utf-8").split("## Pipeline at a glance", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["card"].n_scored > 0
