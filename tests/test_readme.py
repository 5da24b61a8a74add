"""The README's quickstarts and config example run as written, so the
documented API, commands and config keys cannot drift from the code."""

import re
import shlex
from pathlib import Path

from emovid.cli import load_pipeline_config, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", TEXT, re.S)
    monkeypatch.chdir(tmp_path)  # the block writes model.json to the working directory
    exec(compile(block.group(1), str(README), "exec"), {})
    assert (tmp_path / "model.json").is_file()
    assert capsys.readouterr().out.startswith("[<EmotionLabel.")


def test_cli_quickstart_runs(tmp_path, monkeypatch, capsys):
    """Comments and blank lines are skipped, a heredoc writes its file, and
    each emovid command (its \\ continuations joined) must exit 0; any other
    kind of line fails."""
    block = re.search(r"## CLI quickstart\n\n```bash\n(.*?)```", TEXT, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    lines = iter(block.replace("\\\n", " ").splitlines())
    commands = []
    for line in lines:
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        heredoc = re.fullmatch(r"cat > (\S+) <<'(\w+)'", line)
        if heredoc:
            path, end = heredoc.groups()
            body = []
            for body_line in lines:
                if body_line == end:
                    break
                body.append(body_line)
            Path(path).write_text("\n".join(body) + "\n", encoding="utf-8")
            continue
        argv = shlex.split(line, comments=True)
        assert argv[0] == "emovid", f"README line is not an emovid command: {line!r}"
        assert main(argv[1:]) == 0, f"{line!r}: {capsys.readouterr().err}"
        commands.append(argv[1])
    assert commands[0] == "synth" and commands[-1] == "evaluate"
    assert "weighted.csv" in {p.name for p in tmp_path.iterdir()}


def test_config_example_decodes(tmp_path):
    block = re.search(r"```json\n(.*?)```", TEXT, re.S)
    path = tmp_path / "pipeline.json"
    path.write_text(block.group(1), encoding="utf-8")
    config = load_pipeline_config(str(path))
    assert config.streams["frames"].aggregators == ("mean", "std", "min")
