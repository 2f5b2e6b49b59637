"""README's library example runs against the package as it is."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_example_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library use\n"):]
    example = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example names scenarios/ relative to the root
    exec(compile(example, "README.md", "exec"), {})
    assert "verification PASS" in capsys.readouterr().out
