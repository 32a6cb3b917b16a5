"""The four workloads, driven through the program's public API only.

* ``search_ep`` / ``search_dp`` -- the paper's two methods on one 2x2
  grid: :meth:`repro.core.DistMISRunner.run_inprocess` with
  ``executor="process"`` over 2 workers, or with 2 data-parallel
  virtual replicas trained one trial at a time.
* ``serve_small`` / ``serve_scan`` -- :class:`repro.serve.ModelServer`
  under an open loop of small full-volume requests, or a closed loop
  of large scans served scatter--gather.

Each workload returns a :class:`Result`: the end-to-end metrics, the
operations attempted and failed, the checks that failed, and -- in a
traced run -- the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loadgen import (open_schedule, run_closed_loop, run_open_loop,
                     volume_picks)
from stats import percentile, summarize
from tracing import Recorder, install, self_times

__all__ = ["Result", "WORKLOADS", "E2E", "PER_LAYER", "KERNEL_OPS",
           "LAYERS", "run_workload"]

KERNEL_OPS = ("conv3d_forward", "conv3d_backward",
              "conv_transpose3d_forward", "conv_transpose3d_backward",
              "conv3d_bn_relu_forward", "conv3d_bn_relu_backward")
LAYERS = ("data", "execpool", "tune", "core", "sgd", "collectives", "nn",
          "serve", "loadgen", "unattributed")

E2E = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
       "goodput_per_s": "1/s", "samples_per_s": "1/s",
       "output_loss": "loss", "peak_rss_mb": "MB"}

PER_LAYER = {
    "data.prepare_s": "s", "data.wait_s_per_step": "s",
    "execpool.spawn_s": "s", "execpool.shm_publish_s": "s",
    "execpool.shm_bytes": "bytes", "execpool.task_wait_s": "s",
    "execpool.busy_frac": "frac",
    "tune.trial_wall_s": "s", "tune.trials_failed": "count",
    "sgd.step_s": "s", "sgd.compute_s_per_step": "s",
    "sgd.sync_s_per_step": "s",
    "collectives.allreduce_s_per_step": "s",
    "collectives.allreduce_bytes_per_step": "bytes",
    "collectives.allreduce_calls_per_step": "count",
    **{f"nn.kernel_s_per_step.{op}": "s" for op in KERNEL_OPS},
    **{f"nn.kernel_s_per_request.{op}": "s" for op in KERNEL_OPS},
    "core.epoch_s": "s", "core.validation_s_per_epoch": "s",
    "core.offline_scan_s": "s",
    "serve.queue_wait_s": "s", "serve.batch_wait_s": "s",
    "serve.dispatch_s": "s", "serve.compute_s": "s", "serve.stitch_s": "s",
    "serve.notice_s": "s", "serve.submit_s": "s", "serve.step_s": "s",
    "serve.chunks_per_request": "count", "serve.batch_size_mean": "count",
    "serve.failed": "count", "serve.retries": "count", "serve.shed": "count",
    "loadgen.late_p99_s": "s",
    "telemetry.overhead_frac": "frac",
    **{f"share.{layer}": "frac" for layer in LAYERS},
}

# -- workload definitions -----------------------------------------------------
SEARCH_SPACE = {"learning_rate": [3e-3, 1e-3], "loss": ["dice", "bce"]}
GRID = len(SEARCH_SPACE["learning_rate"]) * len(SEARCH_SPACE["loss"])
SEARCH_NOMINAL_S = {"search_ep": 5.0, "search_dp": 6.6}   # one search, 2 cores
MODEL = dict(in_channels=4, out_channels=1, base_filters=4, depth=2)
SMALL_SHAPE, SMALL_POOL, SMALL_RPS = (16, 16, 16), 16, 30.0
SCAN_SHAPE, SCAN_POOL, SCAN_CLIENTS = (48, 48, 48), 3, 2
SETUPS_PER_RUN = 5
DP_SETUPS_PER_SEARCH = 3
FINGERPRINT = Path(__file__).with_name("fingerprint.json")


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    per_layer: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workers: int
    limit_s: float
    tmp: Path


def child_pids() -> list[int]:
    """The pids of this process's children, read from ``/proc``."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the ppid is the 2nd field after the parenthesised name
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


class RssWatcher:
    """Peak resident memory of this process plus its live children.

    Samples every ``interval_s`` each process's own high-water mark
    (``VmHWM``), summed over the processes alive at that sample, and
    keeps the largest sum."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _hwm_kb(pid) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def sample(self) -> None:
        total = self._hwm_kb("self") + sum(
            self._hwm_kb(pid) for pid in child_pids())
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# -- search -------------------------------------------------------------------
class _FirstStart:
    """A ``progress`` reporter that only notes when the driver first
    heard of a trial running (the end of the search's set-up)."""

    def __init__(self):
        self.t = None

    def update(self, trials, **_kw):
        if self.t is None:
            self.t = time.perf_counter()

    def finish(self, trials):
        pass


def search_settings(seed: int):
    from repro.core import ExperimentSettings

    return ExperimentSettings(num_subjects=10, volume_shape=(16, 16, 16),
                              epochs=15, base_filters=MODEL["base_filters"],
                              depth=MODEL["depth"], seed=seed,
                              data_seed=100 + seed)


def _prepared_runner(ctx: Context):
    """A fresh runner with its cohort synthesised and binarised."""
    from repro.core import DistMISRunner, HyperparameterSpace

    runner = DistMISRunner(space=HyperparameterSpace(SEARCH_SPACE),
                           settings=search_settings(ctx.seed))
    runner.pipeline.binarize()
    return runner


def _one_search(name: str, ctx: Context) -> dict:
    """One whole search on a fresh runner; returns its timings and the
    per-trial outcomes."""
    t0 = time.perf_counter()
    runner = _prepared_runner(ctx)
    settings = runner.settings
    t_prep = time.perf_counter()
    statuses = None
    if name == "search_ep":
        first = _FirstStart()
        res = runner.run_inprocess("experiment_parallel",
                                   executor="process",
                                   max_workers=ctx.workers, progress=first)
        setup = (first.t or t_prep) - t0
        statuses = [t.status.name for t in res.analysis.trials]
        trial_walls = [t.runtime_s for t in res.analysis.trials]
    else:
        res = runner.run_inprocess("data_parallel", num_gpus=ctx.workers)
        setup = t_prep - t0
        trial_walls = [o.wall_seconds for o in res.outcomes]
    wall = time.perf_counter() - t0
    train_n = len(runner.pipeline.split.train)
    outcomes = sorted(res.outcomes, key=lambda o: json.dumps(
        o.config, sort_keys=True))
    return {"setup": setup, "wall": wall, "statuses": statuses,
            "samples": train_n * settings.epochs * len(outcomes),
            "trial_walls": trial_walls, "outcomes": outcomes,
            "epochs": settings.epochs}


def _config_key(config: dict) -> str:
    return f"lr={config['learning_rate']:g},loss={config['loss']}"


def _check_search(name: str, s: dict, fingerprint: dict,
                  workers: int) -> list[str]:
    """Problems with one search's trials (empty when all is well)."""
    problems = []
    if len(s["outcomes"]) != GRID:
        problems.append(f"{len(s['outcomes'])} of {GRID} trials returned")
    if s["statuses"] is not None and any(
            st != "TERMINATED" for st in s["statuses"]):
        problems.append(f"trial statuses {s['statuses']}")
    bands = fingerprint.get(f"{name}/{workers}", {})
    for o in s["outcomes"]:
        key = _config_key(o.config)
        losses = [r.train_loss for r in o.history]
        if len(losses) != s["epochs"] or not all(map(math.isfinite, losses)):
            problems.append(f"{key}: losses {losses}")
            continue
        if not losses[-1] < losses[0]:
            problems.append(f"{key}: training loss did not fall "
                            f"({losses[0]:.4f} -> {losses[-1]:.4f})")
        for metric in (o.val_dice, o.test_dice):
            if not (math.isfinite(metric) and 0.0 <= metric <= 1.0):
                problems.append(f"{key}: Dice {metric} outside [0, 1]")
        band = bands.get(key)
        if band is not None and not band[0] <= losses[-1] <= band[1]:
            problems.append(f"{key}: final loss {losses[-1]:.4f} outside "
                            f"fingerprint band {band}")
    return problems


def _trial_signature(s: dict) -> list:
    return [(_config_key(o.config), o.val_dice, o.test_dice,
             [r.train_loss for r in o.history]) for o in s["outcomes"]]


def run_search(name: str, ctx: Context) -> Result:
    from repro.nn.dtypes import set_compute_dtype

    set_compute_dtype("float32")     # what `distmis search` computes in
    fingerprint = json.loads(FINGERPRINT.read_text())
    n_units = max(1, round(ctx.seconds / SEARCH_NOMINAL_S[name]))
    # A traced run interleaves plain and traced searches after a plain
    # first one, which also pays the program's lazy imports.
    traced_units = ([i % 2 == 1 for i in range(max(3, n_units))]
                    if ctx.trace else [False] * n_units)
    rec = Recorder(ctx.tmp / "spans")
    plain, traced, layer_rows = [], [], []
    # search_dp's whole set-up is the data preparation, ~20 ms: repeat
    # it alone before every search too, so its median rests on more
    # samples, taken across the run rather than in one burst (the
    # host's speed drifts over seconds)
    setups = []
    with RssWatcher() as rss:
        for is_traced in traced_units:
            for _ in range(DP_SETUPS_PER_SEARCH if name == "search_dp"
                           else 0):
                t0 = time.perf_counter()
                _prepared_runner(ctx)
                setups.append(time.perf_counter() - t0)
            if not is_traced:
                plain.append(_one_search(name, ctx))
                continue
            with install(rec), rec.span("bench.search"):
                s = _one_search(name, ctx)
            rec.load()
            traced.append(s)
            layer_rows.append(_search_layers(s, rec, ctx))
            rec.reset()
    searches = plain + traced
    problems, failed = [], 0
    reference = _trial_signature(searches[0])
    for s in searches:
        found = _check_search(name, s, fingerprint, ctx.workers)
        if _trial_signature(s) != reference:
            found.append("per-trial results differ between two searches "
                         "of the same seed")
        if found:
            failed += GRID
            problems.extend(found)
    epochs = [r.seconds for s in searches for o in s["outcomes"]
              for r in o.history]
    lat = summarize(epochs)
    setups += [s["setup"] for s in searches]
    outcomes = searches[0]["outcomes"]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": lat["p50"], "latency_tail_s": lat["tail"],
        # per-search rates, so one search slowed by the host moves
        # the run's figure less
        "goodput_per_s": 0.0 if failed else statistics.median(
            sum(1 for o in s["outcomes"] for r in o.history
                if r.seconds <= ctx.limit_s) / s["wall"]
            for s in searches),
        "samples_per_s": statistics.median(s["samples"] / s["wall"]
                                           for s in searches),
        "output_loss": statistics.fmean(o.history[-1].train_loss
                                        for o in outcomes),
        "peak_rss_mb": rss.peak_mb,
    }
    details = {
        "unit": "one epoch of one trial", "searches": len(searches),
        "latency_n": lat["n"], "latency_tail_q": lat["tail_q"],
        "latency_tail_windows": lat["windows"],
        "search_wall_s": [round(s["wall"], 4) for s in searches],
        "setup_s_samples": [round(x, 4) for x in setups],
        "best_val_dice": max(o.val_dice for o in outcomes),
        "trials": {_config_key(o.config): {
            "val_dice": o.val_dice, "test_dice": o.test_dice,
            "final_loss": o.history[-1].train_loss} for o in outcomes},
        "operations": {"sent": GRID * len(searches),
                       "succeeded": GRID * len(searches) - failed,
                       "failed": failed, "shed": 0},
    }
    per_layer = {}
    if ctx.trace:
        per_layer = _mean_rows(layer_rows)
        per_layer["telemetry.overhead_frac"] = (
            statistics.median(s["wall"] for s in traced)
            / statistics.median(s["wall"] for s in plain[1:]) - 1.0)
    return Result(metrics, attempted=details["operations"]["sent"],
                  failed=failed, problems=problems, per_layer=per_layer,
                  details=details)


def _spans(rec: Recorder, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in rec.spans if s["name"] == name]


def _shares(rec: Recorder, root: str, driver_pid: int) -> dict:
    """Each layer's share of the root span's wall time.  The driver's
    own self times are taken as they are, except the time it blocked
    waiting for pool workers, which is split over the layers the workers
    spent their own time in (the time the driver waited for)."""
    (top,) = [s for s in rec.spans if s["name"] == root]
    wall = top["end"] - top["start"]
    inside = [s for s in rec.spans
              if s["start"] >= top["start"] and s["end"] <= top["end"]]
    driver = self_times([s for s in inside if s["pid"] == driver_pid])
    workers = self_times([s for s in inside if s["pid"] != driver_pid])
    if root.startswith("bench."):
        driver["unattributed"] = driver.pop("bench", 0.0)
    waited = 0.0
    if workers:
        waited = sum(s["end"] - s["start"] for s in inside
                     if s["name"] == "execpool.wait")
        driver["execpool"] = driver.get("execpool", 0.0) - waited
    worker_total = sum(workers.values())
    shares = {}
    for layer in LAYERS:
        sec = driver.get(layer, 0.0)
        if worker_total > 0:
            sec += waited * workers.get(layer, 0.0) / worker_total
        shares[f"share.{layer}"] = sec / wall if wall else 0.0
    return shares


def _search_layers(s: dict, rec: Recorder, ctx: Context) -> dict:
    c = rec.counters
    steps = max(1.0, c.get("sgd.steps", 0.0))
    step_spans = _spans(rec, "sgd.train_step")
    allreduce = sum(_spans(rec, "collectives.allreduce"))
    n_epochs = sum(len(o.history) for o in s["outcomes"])
    tune_wall = sum(_spans(rec, "tune.run"))
    busy = {}
    for pid, seconds in rec.samples.get("execpool.busy", []):
        busy[pid] = max(busy.get(pid, 0.0), seconds)
    row = {
        "data.prepare_s": sum(_spans(rec, "data.prepare")),
        "data.wait_s_per_step": sum(_spans(rec, "data.wait")) / steps,
        "execpool.spawn_s": sum(_spans(rec, "execpool.spawn")),
        "execpool.shm_publish_s": sum(_spans(rec, "execpool.shm_publish")),
        "execpool.shm_bytes": c.get("execpool.shm_bytes", 0.0),
        "execpool.task_wait_s": _mean(rec.samples.get(
            "execpool.task_wait_s", [])),
        "execpool.busy_frac": (sum(busy.values())
                               / (ctx.workers * tune_wall)
                               if busy and tune_wall else 0.0),
        "tune.trial_wall_s": _mean(s["trial_walls"]),
        "tune.trials_failed": float(sum(
            1 for st in (s["statuses"] or []) if st != "TERMINATED")),
        "sgd.step_s": _mean(step_spans),
        "sgd.sync_s_per_step": allreduce / steps,
        "sgd.compute_s_per_step": (sum(step_spans) - allreduce) / steps,
        "collectives.allreduce_s_per_step": allreduce / steps,
        "collectives.allreduce_bytes_per_step":
            c.get("collectives.allreduce_bytes", 0.0) / steps,
        "collectives.allreduce_calls_per_step":
            c.get("collectives.allreduce_calls", 0.0) / steps,
        "core.epoch_s": _mean([r.seconds for o in s["outcomes"]
                               for r in o.history]),
        "core.validation_s_per_epoch":
            sum(_spans(rec, "nn.predict")) / max(1, n_epochs),
    }
    for op in KERNEL_OPS:
        row[f"nn.kernel_s_per_step.{op}"] = (
            c.get(f"nn.kernel_step.{op}", 0.0) / steps)
    row.update(_shares(rec, "bench.search", os.getpid()))
    return row


# -- serving ------------------------------------------------------------------
def _volume_pool(shape, n: int, seed: int):
    """``n`` preprocessed synthetic subjects: (images, masks)."""
    from repro.data.preprocess import preprocess_subject
    from repro.data.synthetic_brats import SyntheticBraTS

    gen = SyntheticBraTS(num_subjects=n, volume_shape=shape, seed=seed)
    examples = [preprocess_subject(gen[i], divisor=2) for i in range(n)]
    return [e.image for e in examples], [e.mask for e in examples]


def _serve_config(ctx: Context, checkpoint: str, scan: bool):
    from repro.nn import UNet3D
    from repro.serve import ServeConfig

    overrides = {"full_volume_max_voxels": 32 ** 3} if scan else {}
    return ServeConfig(checkpoint=checkpoint, model_builder=UNet3D,
                       model_kwargs=dict(MODEL), replicas=ctx.workers,
                       **overrides)


def _start_server(config, warm_volume):
    """Start a server and send warm-up requests until every replica has
    answered one; returns (server, seconds)."""
    from repro.serve import ModelServer

    t0 = time.perf_counter()
    server = ModelServer(config)
    answered: set = set()
    try:
        for _ in range(50):
            futures = [server.submit(warm_volume)
                       for _ in range(config.replicas)]
            server.drain(timeout_s=60.0)
            answered.update(f.result().replica for f in futures)
            if len(answered) >= config.replicas:
                return server, time.perf_counter() - t0
        raise RuntimeError("warm-up never reached every replica")
    except BaseException:
        server.close()
        raise


def _offline(model, volume, scan: bool, config):
    from repro.core import full_volume_inference, sliding_window_inference

    t0 = time.perf_counter()
    if scan:
        res = sliding_window_inference(
            model, volume[None], patch_shape=tuple(config.patch_shape),
            overlap=config.overlap, batch_size=config.sw_batch_size)
    else:
        res = full_volume_inference(model, volume[None])
    return res.prediction[0], time.perf_counter() - t0


def _drive(server, ctx: Context, scan: bool, images, seconds: float, keep):
    if scan:
        picks = volume_picks(ctx.seed, 100_000, len(images))
        # scans take ~1 s: poll every 2 ms so the driver leaves the
        # replicas the cores
        return run_closed_loop(server, images, picks, SCAN_CLIENTS,
                               seconds, keep=keep, poll_s=0.002)
    schedule = open_schedule(SMALL_RPS, seconds)
    picks = volume_picks(ctx.seed, len(schedule), len(images))
    return run_open_loop(server, images, schedule, picks, keep=keep)


def run_serve(name: str, ctx: Context) -> Result:
    from repro.core.checkpoint import CheckpointManager, load_checkpoint
    from repro.nn import UNet3D
    from repro.nn.losses import get_loss

    scan = name == "serve_scan"
    shape, pool = (SCAN_SHAPE, SCAN_POOL) if scan else (SMALL_SHAPE,
                                                        SMALL_POOL)
    images, masks = _volume_pool(shape, pool, 1000 + ctx.seed)
    warm = _volume_pool(SMALL_SHAPE, 1, 1000 + ctx.seed)[0][0]
    # the served "best trial": seeded weights through the same
    # checkpoint round trip a tuned model takes
    ckpt = CheckpointManager(ctx.tmp / "ckpt")
    ckpt.save(UNet3D(rng=np.random.default_rng(ctx.seed), **MODEL),
              epoch=0, val_dice=1.0)
    config = _serve_config(ctx, str(ckpt.best_path), scan)
    model = UNet3D(**MODEL)
    load_checkpoint(ckpt.best_path, model)
    rng = np.random.default_rng([ctx.seed, 7])
    keep = frozenset(int(i) for i in rng.choice(
        8 if scan else 64, size=2 if scan else 16, replace=False))

    rec = Recorder(ctx.tmp / "spans")
    setups, plain_out, traced_out = [], [], []
    layers = {}
    with RssWatcher() as rss:
        for _ in range(SETUPS_PER_RUN - 1):
            server, sec = _start_server(config, warm)
            server.close()
            setups.append(sec)
        server, sec = _start_server(config, warm)
        setups.append(sec)
        window = ctx.seconds / 2 if ctx.trace else ctx.seconds
        t0 = time.monotonic()
        try:
            plain_out = _drive(server, ctx, scan, images, window, keep)
        finally:
            server.close()
        elapsed = max((o.seen for o in plain_out if o.seen),
                      default=time.monotonic()) - t0
        if ctx.trace:
            with install(rec):
                server, _ = _start_server(config, warm)
                kernels0 = server.kernel_seconds()
                try:
                    with rec.span("loadgen.window"):
                        traced_out = _drive(server, ctx, scan, images,
                                            window, keep)
                    kernels = {k: v - kernels0.get(k, 0.0) for k, v in
                               server.kernel_seconds().items()}
                    shed = server.shed_count()
                finally:
                    server.close()
            rec.load()
            layers = _serve_layers(rec, traced_out, kernels, shed, ctx)
            traced_ok = [o for o in traced_out if o.ok]
            phase_sum = {
                "e2e_mean_s": _mean([o.latency_s for o in traced_ok]),
                "late_mean_s": _mean([o.sent - o.due for o in traced_ok]),
                "serve_phases_mean_s": _mean([o.fields["latency_s"]
                                              for o in traced_ok]),
                "notice_mean_s": layers["serve.notice_s"]}

    # correctness: the seeded sample against offline inference here
    problems, mismatched = [], set()
    offline_s = []
    loss = get_loss("dice")
    losses = []
    references = {}
    for out in plain_out + traced_out:
        if out.prediction is None:
            continue
        if out.volume not in references:
            references[out.volume], sec = _offline(
                model, images[out.volume], scan, config)
            offline_s.append(sec)
        ref = references[out.volume]
        if (out.prediction.dtype != ref.dtype
                or not np.array_equal(out.prediction, ref)):
            mismatched.add(id(out))
            problems.append(f"request {out.index}: served prediction is not "
                            "bit-identical to offline inference")
        losses.append(loss(out.prediction[None], masks[out.volume][None]))
    sampled = sum(1 for o in plain_out + traced_out
                  if o.prediction is not None)
    if sampled == 0:
        problems.append("no sampled response to check")

    outs = plain_out
    ok = [o for o in outs if o.ok and id(o) not in mismatched]
    failed = len(outs) - len(ok)
    for o in outs:
        if o.error:
            problems.append(f"request {o.index}: {o.error}")
        elif o.shed:
            problems.append(f"request {o.index}: shed")
    # with nothing answered, the whole window stands in for the latency
    lat = summarize([o.latency_s for o in ok] or [elapsed])
    good = sum(1 for o in ok if o.latency_s <= ctx.limit_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": lat["p50"], "latency_tail_s": lat["tail"],
        "goodput_per_s": good / elapsed,
        "samples_per_s": len(ok) / elapsed,
        "output_loss": statistics.fmean(losses) if losses else 1.0,
        "peak_rss_mb": rss.peak_mb,
    }
    shed = sum(1 for o in outs if o.shed)
    details = {
        "unit": "one request", "latency_n": lat["n"],
        "latency_tail_q": lat["tail_q"],
        "latency_tail_windows": lat["windows"], "limit_s": ctx.limit_s,
        "setup_s_samples": [round(s, 4) for s in setups],
        "sampled_for_bit_identity": sampled,
        "operations": {"sent": len(outs), "succeeded": len(ok),
                       "failed": len(outs) - len(ok) - shed, "shed": shed},
    }
    per_layer = {}
    if ctx.trace:
        details["phase_sum"] = phase_sum
        per_layer = dict(layers)
        per_layer["core.offline_scan_s"] = (statistics.median(offline_s)
                                            if scan and offline_s else 0.0)
        plain_lat = [o.latency_s for o in plain_out if o.ok]
        traced_lat = [o.latency_s for o in traced_out if o.ok]
        if plain_lat and traced_lat:
            per_layer["telemetry.overhead_frac"] = (
                percentile(traced_lat, 50) / percentile(plain_lat, 50) - 1.0)
    return Result(metrics, attempted=len(outs), failed=failed,
                  problems=problems, per_layer=per_layer, details=details)


def _serve_layers(rec: Recorder, outs, kernels: dict, shed: int,
                  ctx: Context) -> dict:
    ok = [o for o in outs if o.ok]
    n = max(1, len(ok))
    row = {f"serve.{p}_s": _mean([o.fields[p + "_s"] for o in ok])
           for p in ("queue_wait", "batch_wait", "dispatch", "compute",
                     "stitch")}
    # due -> seen = generator lateness + serve phases + notice residual
    row["serve.notice_s"] = _mean([o.seen - o.sent - o.fields["latency_s"]
                                   for o in ok])
    late = [o.sent - o.due for o in outs]
    busy = {}
    for pid, seconds in rec.samples.get("execpool.busy", []):
        busy[pid] = max(busy.get(pid, 0.0), seconds)
    window = sum(_spans(rec, "loadgen.window"))
    row.update({
        "serve.submit_s": _mean(_spans(rec, "serve.submit")),
        "serve.step_s": _mean(_spans(rec, "serve.step")),
        "serve.chunks_per_request": _mean([o.fields["chunks"] for o in ok]),
        "serve.batch_size_mean": _mean([o.fields["batch_size"]
                                        for o in ok]),
        "serve.failed": float(sum(1 for o in outs if o.error)),
        "serve.retries": float(sum(1 for o in ok if o.fields["attempt"])),
        "serve.shed": float(shed),
        "loadgen.late_p99_s": percentile(late, 99.0),
        "execpool.spawn_s": _mean(_spans(rec, "execpool.spawn")),
        "execpool.task_wait_s": _mean(rec.samples.get(
            "execpool.task_wait_s", [])),
        "execpool.busy_frac": (sum(busy.values()) / (ctx.workers * window)
                               if busy and window else 0.0),
    })
    per_op = {}
    for key, sec in kernels.items():
        op = key.partition("/")[2]
        per_op[op] = per_op.get(op, 0.0) + sec
    for op in KERNEL_OPS:
        row[f"nn.kernel_s_per_request.{op}"] = per_op.get(op, 0.0) / n
    row.update(_shares(rec, "loadgen.window", os.getpid()))
    return row


# -- shared -------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def _mean_rows(rows: list[dict]) -> dict:
    keys = {k for row in rows for k in row}
    return {k: _mean(row.get(k, 0.0) for row in rows) for k in keys}


WORKLOADS = {
    "search_ep": run_search,
    "search_dp": run_search,
    "serve_small": run_serve,
    "serve_scan": run_serve,
}


def run_workload(name: str, ctx: Context) -> Result:
    return WORKLOADS[name](name, ctx)
