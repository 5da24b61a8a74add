"""Compare the bytes that two source trees write on the benchmark's CLI chains.

    python3 tools/same_bytes.py OLD NEW [--seeds 0,3] [--workload W] [--scale S]

OLD and NEW are repository trees; NEW needs only its src/. For each workload
and seed, the inputs are written once with OLD's
perfbench/workloads.generate_inputs, and OLD's workloads.chain gives the
commands. Each tree runs them as ``python -m emovid`` with
PYTHONPATH=<tree>/src and one BLAS thread, into the output directory old/ or
new/ of one temporary directory; train's --c comes from that tree's cv.json.
Every output file is compared, and so are each command's exit status, stdout
and stderr, with the tree's output directory replaced by ``<out>``. One line
is printed per difference, and the exit status is 1 if there is any.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def load_workloads(old: Path):
    """OLD's perfbench/workloads.py, importing the program from OLD's src."""
    sys.path[:0] = [str(old / "src"), str(old / "perfbench")]
    return importlib.import_module("workloads")


def run_chain(tree: Path, steps, out: Path, cwd: Path) -> dict:
    """Run steps with tree's program; returns {command log name: text}."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    logs = {}
    for label, argv in steps:
        argv = list(argv)
        if None in argv:
            report = json.loads((out / "cv.json").read_text(encoding="utf-8"))
            argv[argv.index(None)] = repr(report["best_c"])
        proc = subprocess.run([sys.executable, "-m", "emovid", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        logs[f"{label} exit"] = str(proc.returncode)
        logs[f"{label} stdout"] = proc.stdout.replace(str(out), "<out>")
        logs[f"{label} stderr"] = proc.stderr.replace(str(out), "<out>")
        if proc.returncode != 0:
            break
    return logs


def differences(old_out: Path, new_out: Path, old_logs: dict, new_logs: dict):
    """(names of the output files and command logs whose bytes differ,
    number of files and logs compared)."""
    files = {p.relative_to(root).as_posix() for root in (old_out, new_out)
             for p in root.rglob("*") if p.is_file()}
    found = []
    for rel in sorted(files):
        old_file, new_file = old_out / rel, new_out / rel
        if not old_file.is_file() or not new_file.is_file():
            found.append(f"{rel} (only in {'old' if old_file.is_file() else 'new'})")
        elif old_file.read_bytes() != new_file.read_bytes():
            found.append(rel)
    logs = dict.fromkeys([*old_logs, *new_logs])
    found += [name for name in logs if old_logs.get(name) != new_logs.get(name)]
    return found, len(files) + len(logs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="tree whose perfbench/ writes the inputs")
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", default="0", help="comma-separated seeds (default 0)")
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    workloads = load_workloads(old)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}, expected one of "
                     f"{sorted(workloads.WORKLOADS)} or all")
    seeds = [int(s) for s in args.seeds.split(",")]
    any_difference = False
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
                tmp = Path(tmp)
                workloads.generate_inputs(workload, seed, tmp / "inputs", args.scale)
                logs = [run_chain(tree, workloads.chain(workload, tmp / "inputs", tmp / side,
                                                        seed, args.scale), tmp / side, tmp)
                        for tree, side in ((old, "old"), (new, "new"))]
                found, compared = differences(tmp / "old", tmp / "new", *logs)
            for item in found:
                print(f"{name} seed {seed}: {item}")
            print(f"{name} seed {seed}: {len(found)} of {compared} files and command logs "
                  f"differ", file=sys.stderr)
            any_difference = any_difference or bool(found)
    return 1 if any_difference else 0


if __name__ == "__main__":
    sys.exit(main())
