"""Checks of the end-to-end benchmark itself, at ``--smoke`` scale.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Layer counters that are pure functions of the seed and op count.
DETERMINISTIC = (
    "service.protocol.handshakes", "compiler.compiles",
    "core.cache.hits", "core.cache.misses", "vm.instructions",
    "vm.blocks_translated", "core.checkpoint.seals",
    "service.scheduler.dispatches", "core.provenance.links",
)


def bench(tmp_path: Path, name: str, *args: str):
    out = tmp_path / f"{name}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json",
         str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, last, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("plain"), "plain")


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return [bench(tmp, f"traced{i}", "--trace") for i in range(2)]


def _assert_emits(last, kind):
    for workload in WORKLOADS:
        for metric in SPEC[kind]:
            got = last["metrics"][f"{workload}:{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_every_end_to_end_metric_is_emitted(untraced):
    code, last, doc = untraced
    assert code == 0 and last["correct"] and last["failed"] == 0
    _assert_emits(last, "end_to_end")
    for workload in WORKLOADS:
        assert doc["workloads"][workload]["metrics"]["failed_ratio"] == 0


def test_every_layer_metric_is_emitted(traced_twice):
    for code, last, doc in traced_twice:
        assert code == 0 and last["correct"]
        _assert_emits(last, "per_layer")
        for workload in WORKLOADS:
            assert doc["workloads"][workload]["missing"] == []


def test_layer_counters_repeat_exactly(traced_twice):
    (_, _, first), (_, _, second) = traced_twice
    for workload in WORKLOADS:
        a = first["workloads"][workload]["layers"]
        b = second["workloads"][workload]["layers"]
        assert {k: a[k] for k in DETERMINISTIC} == \
            {k: b[k] for k in DETERMINISTIC}, workload


def test_wrong_golden_output_fails_the_run(tmp_path):
    golden = json.loads((HERE / "expected.json").read_text())
    for entry in golden["outputs"].values():
        entry["digest"] = "0" * 64
    flipped = tmp_path / "expected.json"
    flipped.write_text(json.dumps(golden))
    code, last, doc = bench(tmp_path, "flipped", "--workload",
                            "kernel_sessions", "--expected", str(flipped))
    assert code != 0 and not last["correct"] and last["failed"] > 0
    assert doc["workloads"]["kernel_sessions"]["metrics"][
        "failed_ratio"] > 0
