"""The README's library example runs as written, so the docs cannot name a
function the package no longer has."""
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_example_runs(capsys):
    with open(README) as handle:
        block = re.search(r"## Library example\n+```python\n(.*?)```", handle.read(), re.S)
    exec(compile(block.group(1), README, "exec"), {})
    assert capsys.readouterr().out == "True\n"
