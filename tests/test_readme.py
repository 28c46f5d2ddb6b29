"""README.md is checked against the code it documents.

The Library section lists the public names by area; ``bourbaki.__all__``
must hold those names and ``__version__``, and nothing more.  Each line of
its code block runs, and a line with a ``# ...`` comment evaluates to a
value whose repr is that comment.  Every ``$ bourbaki ...`` example in the
Command line section that shows output prints exactly that output.
"""

from pathlib import Path
import re
import shlex
import textwrap

import pytest

import bourbaki
from bourbaki.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_names() -> set[str]:
    block = re.search(r"Main entry points, by area:\n\n(.*?)\n\n", library_section(), re.S)
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", block.group(1)))


def test_all_is_the_library_list():
    assert library_names() == set(bourbaki.__all__) - {"__version__"}


def test_library_code_block_shows_its_values():
    block = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    namespace: dict = {}
    shown = 0
    for line in filter(None, block.splitlines()):
        code, _, value = line.partition(" # ")
        if value:
            assert repr(eval(code, namespace)) == value.strip(), line
            shown += 1
        else:
            exec(code, namespace)
    assert shown >= 4


def cli_examples() -> dict[str, str]:
    """Command line -> shown output, for each README example that shows output."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"^    \$ bourbaki (.*)\n((?:    (?!\$).*\n)*)", section, re.M)
    return {cmd: textwrap.dedent(out) for cmd, out in examples if out}


CLI_EXAMPLES = cli_examples()


def test_readme_shows_cli_examples():
    assert len(CLI_EXAMPLES) >= 8


@pytest.mark.parametrize("command", CLI_EXAMPLES)
def test_cli_example_output(capsys, command):
    assert run(shlex.split(command)) == 0
    assert capsys.readouterr().out == CLI_EXAMPLES[command]


def test_all_has_no_duplicates_and_names_resolve():
    assert len(bourbaki.__all__) == len(set(bourbaki.__all__))
    for name in bourbaki.__all__:
        assert getattr(bourbaki, name) is not None, name
