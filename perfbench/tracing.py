"""The traced run: spans around calls into each layer's public functions.

:func:`install` wraps those functions (class attributes, and the names
modules imported them under) for the lifetime of a ``with`` block.  It
runs before any worker process forks, so the wrappers are inherited by
the workers; each worker keeps its spans in memory and writes them to
``<out_dir>/spans-<pid>.json`` when it exits, and :meth:`Recorder.load`
folds those files back in.  Nothing is written while a run measures.

Span times are ``time.perf_counter`` readings, which on Linux come from
one system-wide monotonic clock, so spans of different processes share
a time axis.

Besides spans, the recorder keeps counts measured at the same
boundaries: kernel seconds per op drained from the kernel ledger around
each train step, ring all-reduce bytes and calls, shared-memory bytes,
how long each execpool task waited for a worker, and the workers' busy
seconds read off their result messages.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Recorder", "install", "self_times"]


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.installed = False

    # -- recording ------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        record = {"id": sid, "name": name, "pid": os.getpid(),
                  "tid": threading.get_ident(),
                  "parent": stack[-1] if stack else None,
                  "start": time.perf_counter(), "end": None, "extra": 0.0}
        stack.append(sid)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- worker processes ----------------------------------------------------
    def _after_fork(self) -> None:
        """In a forked worker: start empty, dump at exit."""
        if not self.installed:
            return
        self.spans = []
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans,
                                    "counters": dict(self.counters),
                                    "samples": dict(self.samples)}))

    def load(self) -> int:
        """Fold in (and remove) every dump workers left; returns how
        many were read."""
        n = 0
        for path in sorted(self.out_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            self.spans.extend(data["spans"])
            for key, value in data["counters"].items():
                self.counters[key] += value
            for key, values in data["samples"].items():
                self.samples[key].extend(values)
            n += 1
        return n

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.samples.clear()


def _wrap(rec: Recorder, name: str, fn, after=None):
    """``fn`` under a span; ``after(span, result, args)`` may add
    counts once the call returned."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, result, args)
        return result
    return wrapper


class _TimedDataset:
    """A dataset proxy whose iterator times every ``next`` as the wait
    a train step spends on the input pipeline."""

    def __init__(self, rec: Recorder, dataset):
        self._rec = rec
        self._dataset = dataset

    def __iter__(self):
        it = iter(self._dataset)
        while True:
            with self._rec.span("data.wait"):
                item = next(it, None)
            if item is None:
                return
            yield item


@contextlib.contextmanager
def install(rec: Recorder):
    """Wrap the layers' public functions for the duration of the block."""
    from repro.core import data_parallel, experiment_parallel, pipeline
    from repro.execpool import ProcessPoolTrialExecutor, SharedArrayStore
    from repro.nn.kernels import consume_kernel_seconds
    from repro.nn.unet3d import UNet3D
    from repro.raysim import sgd
    from repro.serve import replica, server

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(owner, attr, name, after=None):
        patch(owner, attr, _wrap(rec, name, getattr(owner, attr), after))

    # data
    wrap(pipeline.MISPipeline, "binarize", "data.prepare")
    wrap(pipeline.MISPipeline, "load_split_arrays", "data.load")
    for cls in (pipeline.MISPipeline, pipeline.ArrayBackedPipeline):
        original = cls.dataset

        def dataset(self, *args, _original=original, **kwargs):
            return _TimedDataset(rec, _original(self, *args, **kwargs))
        patch(cls, "dataset", dataset)

    # execpool
    wrap(SharedArrayStore, "__init__", "execpool.shm_publish",
         after=lambda span, _r, args: rec.count("execpool.shm_bytes",
                                               args[0].nbytes))
    wrap(ProcessPoolTrialExecutor, "__init__", "execpool.spawn")
    wrap(ProcessPoolTrialExecutor, "shutdown", "execpool.shutdown")
    submitted: dict = {}
    submit = ProcessPoolTrialExecutor.submit

    def timed_submit(self, trial_id, config, attempt=0, resume_from=None):
        submitted[(trial_id, attempt)] = time.perf_counter()
        return submit(self, trial_id, config, attempt=attempt,
                      resume_from=resume_from)
    patch(ProcessPoolTrialExecutor, "submit", timed_submit)

    def on_message(_span, msg, _args):
        if msg is None:
            return
        if msg[0] == "started":
            t = submitted.pop((msg[1], msg[3]), None)
            if t is not None:
                rec.sample("execpool.task_wait_s", time.perf_counter() - t)
        elif msg[0] in ("done", "error") and msg[-1]:
            stats = msg[-1]
            rec.sample("execpool.busy", (stats["pid"],
                                         stats["busy_seconds"]))
    wrap(ProcessPoolTrialExecutor, "next_message", "execpool.wait",
         after=on_message)
    poll = ProcessPoolTrialExecutor.poll_message

    def polled(self):
        msg = poll(self)
        on_message(None, msg, ())
        return msg
    patch(ProcessPoolTrialExecutor, "poll_message", polled)

    # raysim.tune and core (imported by name into the search modules)
    patch(experiment_parallel, "tune_run",
          _wrap(rec, "tune.run", experiment_parallel.tune_run))
    train = _wrap(rec, "core.train_trial", pipeline.train_trial)
    patch(experiment_parallel, "train_trial", train)
    patch(data_parallel, "train_trial", train)

    # raysim.sgd, with the kernel ledger drained around every step
    step = sgd.DataParallelTrainer.train_step

    def train_step(self, x, y):
        consume_kernel_seconds()   # validation and test passes: not a step
        with rec.span("sgd.train_step") as span:
            out = step(self, x, y)
            kernels = consume_kernel_seconds()
            for (_b, op), sec in kernels.items():
                rec.count(f"nn.kernel_step.{op}", sec)
            # replica threads run their kernels side by side
            span["extra"] = sum(kernels.values()) / self.num_replicas
        rec.count("sgd.steps")
        return out
    patch(sgd.DataParallelTrainer, "train_step", train_step)

    def on_allreduce(_span, _result, args):
        buffers = args[0]
        n = len(buffers)
        rec.count("collectives.allreduce_calls")
        rec.count("collectives.allreduce_bytes",
                  2 * (n - 1) / n * sum(b.nbytes for b in buffers))
    patch(sgd, "ring_allreduce",
          _wrap(rec, "collectives.allreduce", sgd.ring_allreduce,
                after=on_allreduce))

    # nn (model forward outside training) and core inference
    wrap(UNet3D, "predict", "nn.predict")
    for name in ("full_volume_inference", "sliding_window_inference"):
        patch(replica, name, _wrap(rec, "core.inference",
                                   getattr(replica, name)))

    # serve
    wrap(server.ModelServer, "submit", "serve.submit")
    wrap(server.ModelServer, "step", "serve.step")
    patch(server, "extract_patches",
          _wrap(rec, "serve.scatter", server.extract_patches))
    patch(server, "stitch_chunks",
          _wrap(rec, "serve.stitch", server.stitch_chunks))

    multiprocessing.util.register_after_fork(rec, Recorder._after_fork)
    rec.installed = True
    try:
        yield rec
    finally:
        rec.installed = False
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds per layer (the span name's first component): a
    span's duration minus its children's, and minus the ``extra``
    seconds it attributes to ``nn`` kernels.  Children share their
    parent's process and thread, so they never overlap each other."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - children[(s["pid"], s["id"])]
        extra = min(max(0.0, own), s.get("extra", 0.0))
        out[s["name"].split(".")[0]] += own - extra
        out["nn"] += extra
    return dict(out)
