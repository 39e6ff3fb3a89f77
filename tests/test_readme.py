"""The README's python examples run in order, in one namespace, and each
print shows the number its comment starts with."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"```python\n(.*?)```", re.S)
EXPECTED = re.compile(r"print\(.*#\s*([-+]?\d+(?:\.\d+)?)")


def test_readme_examples_print_their_comments():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) == 3
    source = "".join(blocks)
    want = EXPECTED.findall(source)
    assert len(want) == source.count("print(")  # every print has its number
    printed = []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert printed == want
