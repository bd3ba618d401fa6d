"""The README's code examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:quick start", "exec"), namespace)
    assert abs(namespace["fit"].t_hat - 1 / 1.5) <= 0.05
    out = capsys.readouterr().out.splitlines()
    assert out and abs(float(out[0]) - namespace["fit"].t_hat) <= 1e-12
