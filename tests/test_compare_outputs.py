"""The case tables of ``tools/compare_outputs.py`` state each case once and
name only the files they define."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def table():
    """The script as a module, loaded without leaving its ``sys.path``
    entry for the benchmark's directory behind."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_each_case_is_stated_once(table):
    tables = [table.COMMANDS.keys(), table.FAILING.keys(), table.HELP.keys()]
    assert sum(map(len, tables)) == len(set().union(*tables))
    for argv in table.command_lines().values():
        flags = [arg for arg in argv if arg.startswith("--")]
        assert len(flags) == len(set(flags)), argv


def test_every_file_a_command_reads_is_written(table):
    configs = [argv[k + 1] for argv in table.command_lines().values()
               for k, option in enumerate(argv) if option == "--config"]
    files = [name for text in table.CONFIGS.values()
             for name in re.findall(r'^measurement_file = "(.*)"$', text, re.MULTILINE)]
    assert configs and files
    assert set(configs + files) <= table.CONFIGS.keys()
