import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # the README's one python block, run as written against the installed API
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "seed 0: code error 54.9, bound 452.3"
