"""The package namespace is exactly the API that README.md documents.

The Library section lists the public names by area; ``bourbaki.__all__``
must hold those names and ``__version__``, and nothing more.
"""

from pathlib import Path
import re

import bourbaki

README = Path(__file__).resolve().parents[1] / "README.md"


def library_names() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"Main entry points, by area:\n\n(.*?)\n\n", section, re.S)
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", block.group(1)))


def test_all_is_the_library_list():
    assert library_names() == set(bourbaki.__all__) - {"__version__"}


def test_all_has_no_duplicates_and_names_resolve():
    assert len(bourbaki.__all__) == len(set(bourbaki.__all__))
    for name in bourbaki.__all__:
        assert getattr(bourbaki, name) is not None, name
