"""emovid benchmark: the user's CLI chain on seeded synthetic inputs.

    python3 perfbench/run.py --workload frames --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --seed 0          # every workload, untraced and traced

Run from the repository root: the program is imported from ./src. A run
generates the workload's inputs from the seed three times (set-up), then
runs the chain ``aggregate -> [cv] -> train -> predict -> ensemble ->
evaluate`` as one ``python -m emovid`` process per command, one at a time,
until --seconds have passed and at least MIN_PASSES passes are done. Each
set-up and each pass runs on one CPU, and they take the CPUs in turn. Every
pass is checked: exit codes, prediction coverage, the evaluated count,
byte-identical models and predictions across passes, and on ``frames`` the
fft block against the direct DFT oracle.

With --trace 0 only untraced passes run, and the end-to-end metrics are
reported, each the median over its samples. With --trace 1 untraced and
traced passes alternate; the traced ones run each command under
perfbench/tracer.py, and the per-layer metrics (medians over the traced
passes) are reported. Without --trace, both sets are reported. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. With --workload all, each
workload's object is printed on its own line first, with a "workload" key,
and the last line holds correct, attempted and failed over all of them and
each workload's metrics under "workloads".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 3
BLAS_THREADS = 1  # every command is pinned to one CPU
ORACLE_VIDEOS = 3


def _pin_blas(threads: int) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(root: Path) -> tuple:
    """(sha256 over every file's relative path and bytes, total bytes)."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


class Run:
    """One workload at one seed: set-up, passes, checks, metrics."""

    def __init__(self, workload, seed, seconds, root, scale=1.0, inject_failure=None):
        import workloads

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.scale = scale
        self.inject_failure = inject_failure
        self.work = BENCH_DIR / ".work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.test_ids = None
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.facts = {}
        self.breakdown = []
        self._workloads = workloads
        # Each set-up and each pass runs on one CPU, taking the CPUs in turn:
        # other tenants slow each CPU in its own stretches of seconds to minutes.
        self.cpus = sorted(os.sched_getaffinity(0))

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed [{self.workload.name} seed {self.seed}]: {what}", file=sys.stderr)
        return ok

    # --- set-up ------------------------------------------------------------

    def setup(self, recorder=None) -> list:
        """Generate the inputs SETUP_REPEATS times; returns the durations."""
        durations, digests = [], []
        for k in range(SETUP_REPEATS):
            target = self.inputs if k == 0 else self.work / f"inputs{k}"
            os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})
            start = time.perf_counter()
            if recorder is None:
                facts = self._workloads.generate_inputs(self.workload, self.seed, target,
                                                        self.scale)
            else:
                facts = recorder.call("setup.inputs", self._workloads.generate_inputs,
                                      (self.workload, self.seed, target, self.scale))
            durations.append(time.perf_counter() - start)
            digests.append(_tree_digest(target))
            if k:
                shutil.rmtree(target)
        os.sched_setaffinity(0, self.cpus)
        self.check(len({d for d, _ in digests}) == 1, "inputs differ between set-ups")
        self.facts.update(facts, bytes_on_disk=digests[0][1])
        from emovid.ingest import load_manifest

        self.test_ids = sorted(e.video_id for e in load_manifest(self.inputs / "manifest.jsonl")
                               .entries if e.split == "test")
        return durations

    # --- one pass of the chain --------------------------------------------

    def run_pass(self, index: int, traced: bool, cpu: int):
        """Run the chain once, every command on cpu; returns (per-command records, ok)."""
        out = self.work / f"pass{index}"
        out.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        records = []
        steps = self._workloads.chain(self.workload, self.inputs, out, self.seed, self.scale)
        for step, (label, argv) in enumerate(steps):
            argv = list(argv)
            if None in argv:
                report = json.loads((out / "cv.json").read_text(encoding="utf-8"))
                argv[argv.index(None)] = repr(report["best_c"])
            if label.split(":")[0] == self.inject_failure:
                argv.append("--no-such-flag")
            spans_path = out / f"spans{step}.json"
            if traced:
                cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path),
                       f"{self.workload.name}/{self.seed}/{index}/{label}", "--", *argv]
            else:
                cmd = [sys.executable, "-m", "emovid", *argv]
            log_path = out / f"{step}_{label.replace(':', '_')}.log"
            with open(log_path, "wb") as log:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        cwd=self.root, env=env,
                                        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                wall = time.perf_counter() - start
            # wait4 reaped the child; tell Popen so it does not wait again
            proc.returncode = os.waitstatus_to_exitcode(status)
            ok = self.check(proc.returncode == 0,
                            f"{label} exited {proc.returncode}: "
                            + log_path.read_text(errors="replace").strip()[-300:])
            if not ok:
                return records, False
            spans = json.loads(spans_path.read_text()) if traced else []
            records.append({"label": label, "wall": wall, "rss_mb": usage.ru_maxrss / 1024,
                            "spans": spans})
        return records, self.check_outputs(out)

    def check_outputs(self, out: Path) -> bool:
        ok = True
        pred_lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
        pred_ids = sorted(line.split(",")[0] for line in pred_lines)
        ok &= self.check(pred_ids == self.test_ids,
                         "predictions do not cover each test video exactly once")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        ok &= self.check(report["n"] == len(self.test_ids),
                         f"evaluate reported n={report['n']}, expected {len(self.test_ids)}")
        digests = {p.name: _sha256(p) for p in sorted(out.glob("model_*.json"))}
        digests["predictions.csv"] = _sha256(out / "predictions.csv")
        if self.digests is None:
            self.digests = digests
        else:
            ok &= self.check(digests == self.digests,
                             "models or predictions differ from the first pass")
        for stream in self.workload.streams:
            if stream.frames_range is not None:
                ok &= self.check(self._fft_matches_oracle(out, stream.name),
                                 f"{stream.name}: fft block differs from the direct DFT")
        return ok

    def _fft_matches_oracle(self, out: Path, stream: str) -> bool:
        import numpy as np

        from emovid.aggregate import average_variants
        from emovid.cli import read_descriptors
        from emovid.ingest import load_manifest, load_frame_features
        from emovid.synth import oracle_dft

        ids, matrix = read_descriptors(out / "desc" / f"{stream}.csv")
        row_of = {vid: i for i, vid in enumerate(ids)}
        manifest = load_manifest(self.inputs / "manifest.jsonl")
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(manifest.entries), size=ORACLE_VIDEOS, replace=False)
        for i in sorted(picks):
            entry = manifest.entries[i]
            seq = average_variants(load_frame_features(manifest.resolve(entry, stream)))
            frames = seq.frames[:, 0, :]
            expected = np.array([np.abs(oracle_dft(frames[:, j])).mean()
                                 for j in range(frames.shape[1])])
            offset = self.workload.aggregators.index("fft") * frames.shape[1]
            got = matrix[row_of[entry.video_id], offset:offset + frames.shape[1]]
            if not np.allclose(got, expected, rtol=1e-9, atol=1e-9):
                return False
        return True

    # --- metrics ------------------------------------------------------------

    @staticmethod
    def chain_metrics(records) -> dict:
        def total(verb):
            return sum(r["wall"] for r in records if r["label"].split(":")[0] == verb)

        return {
            "pipeline_s": sum(r["wall"] for r in records),
            "aggregate_s": total("aggregate"),
            "cv_s": total("cv"),
            "train_s": total("train"),
            "predict_s": total("predict"),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
        }

    def execute(self, trace: bool) -> dict:
        """Set up and run passes until the time is up; returns the result."""
        import tracer

        try:
            recorder = tracer.Recorder(f"{self.workload.name}/{self.seed}/setup") if trace else None
            if recorder:
                recorder.install()
            try:
                setup = self.setup(recorder)
            finally:
                if recorder:
                    recorder.uninstall()
            passes = []  # (traced, records) of passes whose every check held
            start = time.perf_counter()
            ok = True
            while ok and (len(passes) < MIN_PASSES or time.perf_counter() - start < self.seconds):
                for traced in ((False, True) if trace else (False,)):
                    same_kind = sum(t == traced for t, _ in passes)
                    records, ok = self.run_pass(len(passes), traced,
                                                self.cpus[same_kind % len(self.cpus)])
                    if not ok:
                        break
                    passes.append((traced, records))
            return self._result(setup, passes, recorder)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _result(self, setup, passes, recorder) -> dict:
        import tracer

        plain = [(i, r) for i, (traced, r) in enumerate(passes) if not traced]
        chains = [self.chain_metrics(r) for _, r in plain]
        # name -> (reported value: the median over samples, samples, unit)
        summary = {"setup_s": (statistics.median(setup), setup, "s")}
        if chains:
            for key, unit in CHAIN_METRICS:
                if key == "cv_s" and not self.workload.cv:
                    continue
                values = [c[key] for c in chains]
                summary[key] = (statistics.median(values), values, unit)
            report = self.work / f"pass{plain[0][0]}" / "report.json"
            accuracy = json.loads(report.read_text(encoding="utf-8"))["accuracy"]
            summary["test_accuracy"] = (accuracy, [accuracy] * len(chains), "fraction")

        layers = {}
        traced_passes = [r for traced, r in passes if traced]
        if recorder is not None and traced_passes:
            per_pass = [tracer.layer_metrics([(r["label"], r["wall"], r["spans"]) for r in records])
                        for records in traced_passes]
            layers = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                      for name, (_, unit) in per_pass[0].items()}
            setup_spans = [s for s in recorder.spans if s["name"] == "setup.inputs"]
            layers["synth.generate_s"] = (statistics.median(
                s["end"] - s["start"] for s in setup_spans), "s")
            layers["synth.cells_written"] = (self.facts["cells"], "count")
            if chains:
                layers["trace.overhead_s"] = (
                    layers["trace.pipeline_s"][0] - summary["pipeline_s"][0], "s")
                layers["command.cv_s"] = (summary["cv_s"][0] if self.workload.cv else 0.0, "s")
            self.breakdown = [(r["label"], r["wall"], tracer.self_times(r["spans"]))
                              for r in traced_passes[-1]]
        return {"summary": summary, "layers": layers}


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_taken_in_turn": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
            "page_cache": "warm; inputs are read back from memory, never dropped"}


CHAIN_METRICS = (("pipeline_s", "s"), ("aggregate_s", "s"), ("cv_s", "s"), ("train_s", "s"),
                 ("predict_s", "s"), ("peak_rss_mb", "MB"))
END_TO_END = ("setup_s", "pipeline_s", "aggregate_s", "train_s", "predict_s", "peak_rss_mb",
              "test_accuracy")


def print_table(title, summary, layers, breakdown) -> None:
    print(f"== {title}")
    for name, (value, values, unit) in summary.items():
        print(f"  {name:<16} {value:12.6g} {unit:<9} min {min(values):.6g}  median "
              f"{statistics.median(values):.6g}  max {max(values):.6g}  n={len(values)}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<30} {value:14.6g} {unit}")
    for label, wall, own in breakdown:
        parts = "  ".join(f"{k}={v:.3f}" for k, v in sorted(own.items(), key=lambda kv: -kv[1]))
        print(f"  [{label}] wall {wall:.3f} s; self: {parts}")


def run_one(name, seed, seconds, trace, root, scale, inject_failure) -> dict:
    import workloads

    run = Run(workloads.WORKLOADS[name], seed, seconds, root, scale, inject_failure)
    result = run.execute(trace)
    result.update(correct=run.failed == 0, attempted=run.attempted, failed=run.failed,
                  facts=dict(run.facts, seed=seed, workload=name, trace=int(trace),
                             digests=run.digests))
    print_table(f"{name} seed {seed} trace {int(trace)}", result["summary"], result["layers"],
                run.breakdown)
    print("facts: " + json.dumps(result["facts"], sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default: both")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every split (smoke tests)")
    parser.add_argument("--inject-failure", metavar="COMMAND",
                        help="make this CLI command fail (smoke tests)")
    args = parser.parse_args(argv)

    # a terminated run still stops its current command and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "emovid" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'emovid'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    _pin_blas(BLAS_THREADS)
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    import emovid

    if Path(emovid.__file__).resolve().parent != (root / "src" / "emovid").resolve():
        print(f"error: imported emovid from {emovid.__file__}, not ./src", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))

    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, args.trace != 0, root, args.scale,
                         args.inject_failure)
        metrics = {}
        if args.trace != 1:
            for key in END_TO_END:
                if key in result["summary"]:
                    value, _, unit = result["summary"][key]
                    metrics[key] = {"value": value, "unit": unit}
        if args.trace != 0:
            metrics.update((key, {"value": value, "unit": unit})
                           for key, (value, unit) in result["layers"].items())
        results[name] = {"correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics}
    correct = all(r["correct"] for r in results.values())
    if args.workload == "all":
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": {n: r["metrics"] for n, r in results.items()}}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
