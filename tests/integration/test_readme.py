"""The README's code blocks must actually run."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"


def test_readme_exists_and_mentions_the_paper():
    text = README.read_text()
    assert "WarpDrive" in text
    assert "IPDPS 2018" in text or "IPPS" in text


def test_readme_python_blocks_execute():
    """Run every ```python block in README.md in one shared namespace."""
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README should contain python examples"
    namespace: dict = {"np": np}
    for block in blocks:
        exec(compile(block, "<README>", "exec"), namespace)  # noqa: S102
    # the quickstart block left a populated table behind
    assert "table" in namespace
    assert len(namespace["table"]) > 0


def test_readme_commands_reference_real_files():
    text = README.read_text()
    root = README.parent
    for match in re.findall(r"python (examples/\w+\.py)", text):
        assert (root / match).exists(), match
