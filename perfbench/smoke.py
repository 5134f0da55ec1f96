"""Smoke test of the benchmark itself, on tiny seed lists.

    python3 -m pytest -q perfbench/smoke.py

The file is not named ``test_*.py`` so that the repository's own test run
does not collect it; it takes about a minute, most of it bcast2k seed 0.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import run  # noqa: E402

# seed-0 counts quoted in NOTES.md
SEED0 = {
    "color32": {"engine.eventful_slots": 63557, "phy.multi_tx_slots": 104,
                "phy.receptions": 149114},
    "bcast2k": {"engine.eventful_slots": 21334, "phy.multi_tx_slots": 2612,
                "phy.receptions": 72399},
    "slowstart64": {"engine.eventful_slots": 2185},
}


def bench(*args: str, script: Path = HERE / "run.py", cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = bench("--workload", "slowstart64", "--seeds", "0,1", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_wrong_reference_digest_fails_the_trial(tmp_path):
    reference = json.loads(json.dumps(REFERENCE))
    reference["slowstart64"]["1"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    proc = bench("--workload", "slowstart64", "--seeds", "0,1", "--seconds", "1",
                 "--trace", "0", "--reference", str(path))
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"]
    # every pass runs seeds 0 and 1, and only seed 1 fails
    assert result["attempted"] % 2 == 0
    assert result["failed"] == result["attempted"] // 2
    assert result["metrics"]["pass_frac"]["value"] == 0.5


@pytest.mark.parametrize("workload", SEED0)
def test_seed0_counts(workload):
    proc = bench("--workload", workload, "--seeds", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = result_of(proc)["metrics"]
    assert {name: metrics[name]["value"] for name in SEED0[workload]} == SEED0[workload]
    assert metrics["phy.oracle_checked"]["value"] > 0
    assert metrics["phy.oracle_mismatches"]["value"] == 0


def test_host_speed_samples_only_while_active():
    previous = signal.getsignal(signal.SIGALRM)
    with run.HostSpeed() as host:
        mark = host.mark()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            run.host_probe()
        assert host.mark() - mark >= 3
        assert 0.0 < host.probe_seconds(mark) < 0.5
        assert host.speed(mark) > 0.0
    count = host.mark()
    time.sleep(2 * run.PROBE_INTERVAL_S)
    assert host.mark() == count
    assert signal.getsignal(signal.SIGALRM) is previous
    assert host.speed(count) > 0.0
    assert host.mark() == count + 1


def test_default_and_heldout_seeds_have_references():
    for name, wl in run.WORKLOADS.items():
        assert not set(wl.default) & set(wl.heldout)
        assert {str(s) for s in wl.default + wl.heldout} <= set(REFERENCE[name])


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "slowstart64", "--seed", "0", "--seconds", "1", "--trace", "0",
                 script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
