"""The benchmark leaves no process behind: stray children and CPython's
shared-memory resource tracker are stopped and reaped before it exits."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent("""
    import json, subprocess, sys
    from multiprocessing import resource_tracker, shared_memory
    sys.path.insert(0, sys.argv[1])
    import run
    from workloads import child_pids

    shm = shared_memory.SharedMemory(create=True, size=64)
    shm.close()
    shm.unlink()            # the tracker process is now running
    sleeper = subprocess.Popen([sys.executable, "-c",
                                "import time; time.sleep(60)"])
    started = sorted(child_pids())
    run.stop_children(grace_s=2.0)
    print(json.dumps({"started": started, "tracker": resource_tracker.
                      _resource_tracker._pid, "sleeper": sleeper.pid,
                      "left": child_pids()}))
""")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_stop_children_reaps_the_tracker_and_strays():
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH)],
                         capture_output=True, text=True, timeout=60,
                         check=True, env={**os.environ, "PYTHONPATH": ""})
    rec = json.loads(out.stdout.strip().splitlines()[-1])
    assert len(rec["started"]) == 2 and rec["sleeper"] in rec["started"]
    assert rec["tracker"] is None       # stopped and waited for
    assert rec["left"] == []
    assert not any(_alive(pid) for pid in rec["started"])
