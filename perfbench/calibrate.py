"""Re-derive ``fingerprint.json``: per-trial final training loss bands.

Runs the search workloads once per seed and stores, for each workload
and worker count, each configuration's band of final training loss,
widened on both sides by its whole range across seeds (and by at least
:data:`MIN_PAD`).  The benchmark fails a trial whose final loss leaves its
band.  Run from the root of a checkout::

    python3 perfbench/calibrate.py --seeds 30
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
MIN_PAD = 0.02


def main() -> int:
    from repro.nn.dtypes import set_compute_dtype
    from workloads import FINGERPRINT, Context, _config_key, _one_search

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=30)
    args = p.parse_args()
    set_compute_dtype("float32")
    workers = min(2, len(os.sched_getaffinity(0)))
    bands = json.loads(FINGERPRINT.read_text()) if FINGERPRINT.exists() \
        else {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tempfile.tempdir = tmp    # the pipelines' record files
        for name in ("search_ep", "search_dp"):
            seen: dict[str, list[float]] = {}
            for seed in range(args.seeds):
                ctx = Context(seed=seed, seconds=0, trace=False,
                              workers=workers, limit_s=0, tmp=Path(tmp))
                for o in _one_search(name, ctx)["outcomes"]:
                    seen.setdefault(_config_key(o.config), []).append(
                        o.history[-1].train_loss)
            entry = {}
            for key, values in sorted(seen.items()):
                lo, hi = min(values), max(values)
                pad = max(MIN_PAD, hi - lo)
                entry[key] = [round(lo - pad, 4), round(hi + pad, 4)]
                print(f"{name} {key}: {lo:.4f}..{hi:.4f} -> {entry[key]}")
            bands[f"{name}/{workers}"] = entry
    FINGERPRINT.write_text(json.dumps(bands, indent=2, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
