"""tools/same_bytes.py runs a benchmark workload's CLI chain with two
source trees and names every output file or command log whose bytes
differ. On the frames workload at scale 0.05 each call took about 3 s on
a 2-CPU host."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_bytes.py"


def same_bytes(old, new):
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--workload", "frames",
         "--scale", "0.05", "--seeds", "0"], capture_output=True, text=True)


def test_same_bytes_is_silent_on_one_tree_and_names_each_file_a_change_moves(tmp_path):
    same = same_bytes(ROOT, ROOT)
    assert (same.returncode, same.stdout) == (0, ""), same.stderr
    # a tree whose CSV writers keep one significant digit fewer
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ingest = tmp_path / "src" / "emovid" / "ingest.py"
    text = ingest.read_text(encoding="utf-8")
    assert text.count('"%.17g"') == 1
    ingest.write_text(text.replace('"%.17g"', '"%.16g"'), encoding="utf-8")
    moved = same_bytes(ROOT, tmp_path)
    assert moved.returncode == 1, moved.stderr
    assert moved.stdout.splitlines() == [
        f"frames seed 0: {name}" for name in
        ("combined.csv", "desc/frames.csv", "model_frames.json", "scores_frames.csv")]
