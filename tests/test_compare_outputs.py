"""The case tables of ``tools/compare_outputs.py`` state each case once and
name only the files they define, and every config they define parses:
a misspelt key would fail a case in both trees alike."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from kernrec import harness
from kernrec.problem import _INLINE_KEYS, parse_config

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


def _configs(table):
    """Each .ini of ``CONFIGS``, parsed with the harness's section keys."""
    return {name: parse_config(text, harness._SECTION_KEYS)
            for name, text in table.CONFIGS.items() if name.endswith(".ini")}


def test_every_config_parses(table):
    assert _configs(table)


def test_every_inline_problem_names_known_keys(table):
    # a preset's [problem] is checked against the preset; two carry a foreign key by design
    inline = {name: sections["problem"] for name, sections in _configs(table).items()
              if "preset" not in sections["problem"]}
    assert inline
    for name, problem in inline.items():
        assert problem.keys() <= _INLINE_KEYS, name
