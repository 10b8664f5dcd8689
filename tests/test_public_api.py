"""The README's list of public names and `twosample.__all__` must agree."""

import re
from pathlib import Path

import twosample

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_public_names():
    """Backticked names in the bullet list after "Every public name is exported"."""
    text = README.read_text()
    tail = text[text.index("Every public name is exported") :]
    names = set()
    started = False
    for line in tail.splitlines()[1:]:
        if line.startswith("- "):
            started = True
        elif started and not line.startswith("  "):
            break
        if started:
            names.update(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", line))
    return names


def test_every_exported_name_resolves():
    for name in twosample.__all__:
        assert hasattr(twosample, name), name


def test_readme_lists_exactly_the_exported_names():
    assert _readme_public_names() == set(twosample.__all__)
