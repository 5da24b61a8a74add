"""Span tracing of emovid's layers from outside the program.

``Recorder.install`` wraps the public functions of each layer module and
rebinds every name in the ``emovid`` modules that refers to them, so a
call through ``emovid.cli`` or between layers goes through the wrapper.
Spans stay in memory and are written once, when the process ends. Each
span holds its name, start, end, parent span and run id; counts are taken
after the span has ended, outside its timed interval.

Run as a script, it traces one CLI command in its own process::

    python perfbench/tracer.py SPANS.json RUN_ID -- aggregate --manifest ...
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

# Layer -> public functions whose calls become spans. The aggregator blocks
# are reached through the program's own dispatch table, aggregate._AGGREGATORS,
# so install() wraps that table's entries as well.
LAYER_FUNCTIONS = {
    "ingest": ("load_manifest", "load_frame_features", "load_audio_features",
               "sniff_stream_kind", "write_manifest", "write_frame_features",
               "write_audio_features"),
    "aggregate": ("build_video_descriptor", "average_variants"),
    "cli": ("read_descriptors", "write_descriptors", "load_pipeline_config"),
    "normalize": ("fit_normalization", "apply_normalization"),
    "svm": ("train_binary", "train_ovr", "cross_validate_c", "decision_scores",
            "save_model", "load_model"),
    "ensemble": ("run_ensemble", "read_scores", "write_scores", "write_predictions",
                 "read_predictions", "class_weights_from_counts"),
    "evaluate": ("evaluate", "render_report", "report_to_dict"),
    "synth": ("class_centroids",),
}
AGGREGATOR_BLOCKS = ("mean", "std", "min", "max", "fft")


def _file_bytes(args, kwargs) -> dict:
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


def _counts_for(name: str, args, kwargs, result) -> dict:
    """Work done by one call, measured from its arguments and result."""
    if name == "ingest.load_frame_features":
        shape = result.frames.shape
        return {**_file_bytes(args, kwargs), "cells": int(np.prod(shape)), "frames": shape[0]}
    if name == "ingest.load_audio_features":
        return {**_file_bytes(args, kwargs), "cells": int(result.size)}
    if name == "ingest.load_manifest":
        return _file_bytes(args, kwargs)
    if name == "aggregate.build_video_descriptor":
        return {"frames": (kwargs["seq"] if "seq" in kwargs else args[0]).num_frames}
    if name == "cli.read_descriptors":
        return {"cells": int(result[1].size)}
    if name == "normalize.fit_normalization":
        from emovid.normalize import DEGENERATE_STD

        std = result.standardizer
        return {"degenerate": 0 if std is None else int((std.stds < DEGENERATE_STD).sum())}
    if name == "normalize.apply_normalization":
        x = np.asarray(args[0], dtype=np.float64)
        scaler = args[1].range_scaler
        clipped = 0 if scaler is None else int(((x < scaler.mins) | (x > scaler.maxs)).sum())
        return {"cells": int(x.size), "clipped": clipped}
    return {}


class Recorder:
    """In-memory spans of one process; install() patches, uninstall() restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patched = []
        self._blocks = {}

    def call(self, name, fn, args=(), kwargs=None, counts=_counts_for):
        kwargs = kwargs or {}
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "run": self.run_id}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        span.update(counts(name, args, kwargs, result))
        return result

    def _wrapper(self, layer, name, original):
        qualified = f"{layer}.{name}"
        if qualified == "svm.train_binary":
            def train_binary(X, y, cfg, debug=False, full_output=False):
                w, info = self.call(qualified, original, (X, y, cfg),
                                    {"debug": debug, "full_output": True}, _solver_counts)
                return (w, info) if full_output else w
            return train_binary

        def wrapper(*args, **kwargs):
            return self.call(qualified, original, args, kwargs)
        return wrapper

    def install(self) -> None:
        import importlib

        for layer in LAYER_FUNCTIONS:
            importlib.import_module(f"emovid.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "emovid" or name.startswith("emovid.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"emovid.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrapper(layer, name, original)
                for holder in modules:
                    if getattr(holder, name, None) is original:
                        setattr(holder, name, wrapper)
                        self._patched.append((holder, name, original))
        table = sys.modules["emovid.aggregate"]._AGGREGATORS
        self._blocks = dict(table)
        for name, original in self._blocks.items():
            table[name] = self._block_wrapper(f"aggregate.{name}", original)

    def _block_wrapper(self, qualified, original):
        def block(work):
            return self.call(qualified, original, (work,), counts=_no_counts)
        return block

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()
        sys.modules["emovid.aggregate"]._AGGREGATORS.update(self._blocks)
        self._blocks = {}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.spans, fp)


def _no_counts(*_):
    return {}


def _solver_counts(name, args, kwargs, result):
    info = result[1]
    return {"n": int(np.shape(args[0])[0]), "epochs": int(info.epochs),
            "converged": bool(info.converged)}


def self_times(spans, only=None) -> dict:
    """Seconds per layer that no child span covers, keyed by layer.

    spans come from one process; with only, just spans of that name count.
    """
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"])
    totals = {}
    for span in spans:
        if only is not None and span["name"] != only:
            continue
        layer = span["name"].split(".", 1)[0]
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def layer_metrics(commands) -> dict:
    """Per-layer metrics of one traced pass.

    commands holds (command label, wall seconds, spans) in chain order;
    span ids are unique within one command's process only.
    """
    spans = [span for _, _, command_spans in commands for span in command_spans]

    def calls(name):
        return [s for s in spans if s["name"] == name]

    def total(*names):
        return sum(s["end"] - s["start"] for name in names for s in calls(name))

    def count(name, key):
        return sum(s[key] for s in calls(name))

    solves = calls("svm.train_binary")
    epochs = [s["epochs"] for s in solves]
    coord_steps = sum(s["epochs"] * s["n"] for s in solves)
    solve_s = total("svm.train_binary")
    predict_applies = [s for label, _, command_spans in commands if label.startswith("predict")
                       for s in command_spans if s["name"] == "normalize.apply_normalization"]
    frame_s = total("ingest.load_frame_features")
    own = {}
    cv_self = 0.0
    for _, _, command_spans in commands:
        for layer, seconds in self_times(command_spans).items():
            own[layer] = own.get(layer, 0.0) + seconds
        cv_self += self_times(command_spans, only="svm.cross_validate_c").get("svm", 0.0)
    metrics = {
        "ingest.frame_load_s": (frame_s, "s"),
        "ingest.frame_cells": (count("ingest.load_frame_features", "cells"), "count"),
        "ingest.frame_cells_per_s": (
            count("ingest.load_frame_features", "cells") / frame_s if frame_s else 0.0, "1/s"),
        "ingest.vector_load_s": (total("ingest.load_audio_features"), "s"),
        "ingest.vector_cells": (count("ingest.load_audio_features", "cells"), "count"),
        "ingest.manifest_s": (total("ingest.load_manifest"), "s"),
        "ingest.bytes_read": (sum(count(n, "bytes") for n in (
            "ingest.load_manifest", "ingest.load_frame_features", "ingest.load_audio_features")),
            "bytes"),
        "aggregate.build_s": (total("aggregate.build_video_descriptor"), "s"),
        **{f"aggregate.{block}_s": (total(f"aggregate.{block}"), "s") for block in AGGREGATOR_BLOCKS},
        "aggregate.videos": (len(calls("aggregate.build_video_descriptor")), "count"),
        "aggregate.frames": (count("aggregate.build_video_descriptor", "frames"), "count"),
        "cli.write_descriptors_s": (total("cli.write_descriptors"), "s"),
        "cli.read_descriptors_s": (total("cli.read_descriptors"), "s"),
        "cli.descriptor_cells": (count("cli.read_descriptors", "cells"), "count"),
        "normalize.fit_s": (total("normalize.fit_normalization"), "s"),
        "normalize.apply_s": (total("normalize.apply_normalization"), "s"),
        "normalize.fits": (len(calls("normalize.fit_normalization")), "count"),
        "normalize.clip_fraction": (
            sum(s["clipped"] for s in predict_applies)
            / max(1, sum(s["cells"] for s in predict_applies)), "fraction"),
        "normalize.degenerate_columns": (count("normalize.fit_normalization", "degenerate"),
                                         "count"),
        "svm.solves": (len(solves), "count"),
        "svm.solve_s": (solve_s, "s"),
        "svm.epochs_total": (sum(epochs), "count"),
        "svm.epochs_p50": (statistics.median(epochs) if epochs else 0, "count"),
        "svm.epochs_max": (max(epochs, default=0), "count"),
        "svm.coord_steps": (coord_steps, "count"),
        "svm.us_per_coord_step": (1e6 * solve_s / coord_steps if coord_steps else 0.0, "us"),
        "svm.unconverged_solves": (sum(not s["converged"] for s in solves), "count"),
        "svm.cv_self_s": (cv_self, "s"),
        "svm.decision_s": (total("svm.decision_scores"), "s"),
        "svm.model_io_s": (total("svm.save_model", "svm.load_model"), "s"),
        "ensemble.run_s": (total("ensemble.run_ensemble"), "s"),
        "ensemble.scores_io_s": (total("ensemble.read_scores", "ensemble.write_scores",
                                       "ensemble.write_predictions",
                                       "ensemble.read_predictions"), "s"),
        "evaluate.s": (total("evaluate.evaluate", "evaluate.render_report",
                             "evaluate.report_to_dict"), "s"),
    }
    for layer in LAYER_FUNCTIONS:
        if layer != "synth":  # synth runs only in set-up, never in a pass
            metrics[f"self.{layer}_s"] = (own.get(layer, 0.0), "s")
    pipeline = sum(wall for _, wall, _ in commands)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    metrics["trace.pipeline_s"] = (pipeline, "s")
    # interpreter start, imports and exit: command wall time outside its root span
    metrics["trace.startup_s"] = (pipeline - roots, "s")
    # inside a command but in no layer function: argument parsing, row selection
    metrics["trace.unattributed_s"] = (own.get("command", 0.0), "s")
    return metrics


def main(argv) -> int:
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- <emovid arguments>")
    from emovid import cli

    recorder = Recorder(run_id)
    recorder.install()
    try:
        code = recorder.call(f"command.{cli_args[0]}", cli.main, (cli_args,), counts=_no_counts)
    finally:
        recorder.uninstall()
        recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
