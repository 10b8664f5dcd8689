"""The README's list of public names and `twosample.__all__` must agree, and its examples run."""

import os
import re
import subprocess
import sys
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


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    for name in twosample.__all__:
        assert hasattr(twosample, name), name


def test_readme_lists_exactly_the_exported_names():
    assert _readme_public_names() == set(twosample.__all__)


def _run(*args):
    """Run a fresh interpreter on this checkout's package."""
    src = Path(twosample.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_leaves_the_command_line_out():
    modules = ("argparse", "twosample.cli", "concurrent.futures")
    probe = f"import sys, twosample; print(*(m in sys.modules for m in {modules!r}))"
    result = _run("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"] * len(modules)


def test_module_entry_point_runs():
    result = _run("-m", "twosample", "--help")
    assert result.returncode == 0, result.stderr
    assert "simulate" in result.stdout
