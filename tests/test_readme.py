"""The README's library example runs as written, and its exit-code table
matches the error classes."""

import re
from pathlib import Path

from missmix import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Library code block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    mae = float(capsys.readouterr().out.strip())
    assert 0.0 <= mae < 4.0


def test_readme_exit_code_table_matches_the_error_classes():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"## Exit codes\n.*?\n(\|.*?)\n\n", text, re.S).group(1)
    listed = {}
    for code, names in re.findall(r"^\| (\d) \| (.*?) \|", table, re.M):
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = int(code)
    assert listed.pop("OSError") == errors.IO_EXIT_CODE
    assert listed.pop("MemoryError") == errors.MEMORY_EXIT_CODE
    assert listed == {name: cls.exit_code for name, cls in vars(errors).items()
                      if isinstance(cls, type) and issubclass(cls, errors.MissmixError)}
