"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Library code block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    mae = float(capsys.readouterr().out.strip())
    assert 0.0 <= mae < 4.0
