"""README's Python example runs as printed."""

import pathlib
import re
from fractions import Fraction

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    assert scope["frame"].h_tilde == Fraction(485, 648)
