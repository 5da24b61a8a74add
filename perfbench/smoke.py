"""Smoke test of the benchmark itself, at reduced counts.

    python3 perfbench/smoke.py        # from the repository root; exits 0 when all hold

Checks that the configured command emits, for every workload, exactly the
metrics BENCHMARK.json names, each with its unit, and that the single
workload form (--workload, --trace 0 or 1) emits exactly its set; that traced
and untraced runs of one seed produce the same output digests,
that a forced command failure is counted as failed, and that the
benchmark refuses to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCALE = "0.15"
SEED = "3"


def bench(*args, cwd=None):
    """Run the benchmark; returns (exit code, JSON lines, facts lines, stderr)."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run([*spec["command"], *args], capture_output=True, text=True,
                          cwd=cwd or Path.cwd(), timeout=900)
    lines = proc.stdout.strip().splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    facts = [json.loads(line[len("facts: "):]) for line in lines if line.startswith("facts: ")]
    return proc.returncode, results, facts, proc.stderr


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    def emits(result, wanted, what):
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        wrong = sorted(name for name in set(got) | set(wanted) if got.get(name) != wanted.get(name))
        expect(not wrong, f"{what} emits exactly the listed metrics with their units"
               + (f" (missing, extra or wrong unit: {wrong})" if wrong else ""))

    small = ("--seed", SEED, "--seconds", "0", "--scale", SCALE)

    # The configured command alone: every workload, untraced and traced passes.
    code, results, facts, stderr = bench(*small)
    expect(code == 0 and results and results[-1]["correct"] and results[-1]["failed"] == 0,
           f"every workload runs clean {stderr[-300:]}")
    by_workload = {r["workload"]: r for r in results if "workload" in r}
    expect(sorted(by_workload) == sorted(w["name"] for w in spec["workloads"]),
           f"one result per workload ({sorted(by_workload)})")
    for name, result in by_workload.items():
        emits(result, {**end_to_end, **per_layer}, f"{name}, both sets,")
        expect(facts and all(f["digests"] for f in facts if f["workload"] == name),
               f"{name} records its output digests")

    # One workload, one set of metrics; traced passes must
    # leave the same outputs as untraced ones.
    digests = {}
    for trace, wanted in (("0", end_to_end), ("1", per_layer)):
        code, results, facts, stderr = bench("--workload", "fusion", "--trace", trace, *small)
        expect(code == 0 and len(results) == 1 and results[0]["correct"],
               f"fusion --trace {trace} runs clean {stderr[-300:]}")
        if results:
            emits(results[0], wanted, f"fusion --trace {trace}")
            digests[trace] = facts[0]["digests"]
    expect(len(digests) == 2 and digests["0"] == digests["1"],
           "traced and untraced outputs have the same digests")

    code, results, _, _ = bench("--workload", "fusion", "--trace", "0", *small,
                                "--inject-failure", "train")
    expect(code != 0 and len(results) == 1 and not results[0]["correct"]
           and results[0]["failed"] >= 1, "a forced train failure is counted in failed")

    bare = BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, results, _, _ = bench("--workload", "fusion", "--seed", SEED, cwd=bare)
        expect(code != 0 and not results, "refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
