"""The public surface: every export resolves, the README pipeline block runs, its error table is whole."""

import re
from pathlib import Path

import solarband
from solarband import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert [name for name in solarband.__all__ if not hasattr(solarband, name)] == []


def test_readme_pipeline_block_runs():
    section = README.read_text(encoding="utf-8").split("## Pipeline at a glance", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["card"].n_scored > 0


def test_readme_error_table_names_every_exported_error():
    """Each exported error class has a row in the README's table, and each row an exported class."""
    rows = re.findall(r"^\| `(\w+)` \|.*\| `(\d)` \|$", README.read_text(encoding="utf-8"), re.MULTILINE)
    named = [name for name, _ in rows]
    exported = [name for name in solarband.__all__ if name.endswith("Error")]
    assert sorted(named) == sorted(exported)
    for name, code in rows:  # the exit code cli.main gives the class
        uncalibratable = issubclass(getattr(solarband, name), solarband.UncalibratableWindowError)
        assert int(code) == (cli.EXIT_UNCALIBRATABLE if uncalibratable else cli.EXIT_DATA), name
