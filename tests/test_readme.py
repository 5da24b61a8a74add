"""The README's library quickstart runs as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(tmp_path)  # the block writes model.json to the working directory
    exec(compile(block.group(1), str(README), "exec"), {})
    assert (tmp_path / "model.json").is_file()
    assert capsys.readouterr().out.startswith("[<EmotionLabel.")
