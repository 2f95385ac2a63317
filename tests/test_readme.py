"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    start = text.index("## Library")
    block = re.search(r"```python\n(.*?)```", text[start:], re.S)
    assert block is not None, "README ## Library has no python block"
    # pad with newlines so tracebacks point at README line numbers
    code = "\n" * text.count("\n", 0, start + block.start(1)) + block.group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    ratio = float(capsys.readouterr().out.split()[0])
    assert ratio < 0.05
