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


def test_depth_sentence_names_every_envelope_row():
    """README's depth sentence is read against the tested table: each row's
    deepest M, the level M + 1 that fails and its weight block."""
    from test_envelope import ENVELOPE

    text = " ".join(README.read_text().split())
    sentence = re.search(r"\(`tests/test_envelope\.py`\): (.*?\.) ", text).group(1)
    assert sentence.count("CartanChain(") == len(ENVELOPE), sentence
    for row in ENVELOPE:
        coords, q, M, block = row.values
        assert f"`CartanChain({tuple(coords)}, {q}, {M})` builds" in sentence, row.id
        assert f"level {M + 1} raises `AmbiguousRank`" in sentence, row.id
        assert f"weight block `{block.coords}`" in sentence, row.id
