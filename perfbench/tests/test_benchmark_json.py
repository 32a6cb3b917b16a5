"""BENCHMARK.json and the command agree on workloads and metrics."""

import json
from pathlib import Path

from run import _parse_limits
from workloads import E2E, PER_LAYER, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_every_workload_has_a_latency_limit():
    cmd = SPEC["command"]
    limits = _parse_limits(cmd[cmd.index("--limits") + 1])
    assert set(limits) == set(WORKLOADS)
    assert all(v > 0 for v in limits.values())
