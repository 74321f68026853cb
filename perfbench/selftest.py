"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Not named ``test_*.py`` on purpose: the tiny workload runs spawn server
processes, and the repository's tier-1 run should not collect them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stats import TooFewSamples, percentile  # noqa: E402


def _bodies(seed: int) -> list[bytes]:
    """The request bodies of the first operations of every workload."""
    from repro.lang.sexpr import to_wire

    def body(batch) -> bytes:
        docs = [to_wire(e) for e in batch]
        return json.dumps({"exprs": docs}, separators=(",", ":"), sort_keys=True).encode()

    bodies = [body(workloads.fresh_items(seed, "timed", i, 50)) for i in range(2)]
    pool = [("preload", 0, k) for k in range(30)]
    cache = workloads.ItemCache(seed, {"preload": 30})
    for i in range(2):
        refs = workloads.mixed_refs(seed, i, 40, 0.6, pool)
        bodies.append(body(workloads.build_mixed(seed, i, refs, cache)))
    corpus = workloads.session_corpus(seed, 2, 256)
    bodies.append(body(corpus))
    for i in range(3):
        item, path, replacement = workloads.session_edit(
            seed, i, len(corpus), lambda k: workloads.deep_paths(corpus[k], 6)
        )
        bodies.append(
            json.dumps([item, list(path), to_wire(replacement)], sort_keys=True).encode()
        )
    return bodies


def test_same_seed_gives_byte_identical_bodies():
    assert _bodies(7) == _bodies(7)
    assert _bodies(7) != _bodies(8)


def test_generated_batches_are_duplicate_free():
    from repro.core.hashed import alpha_hash_all

    batch = workloads.fresh_items(3, "timed", 0, 200) + workloads.fresh_items(
        3, "timed", 1, 200
    )
    assert len({alpha_hash_all(e).root_hash for e in batch}) == len(batch)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90
    with pytest.raises(TooFewSamples):
        percentile(values[:99], 0.9)
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1000)), 0.99) == 989


def _run(workload: str, trace: int) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", "5",
            "--seconds", "0.2",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}, proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_unit(workload, trace):
    code, result, stdout = _run(workload, trace)
    assert code == 0, stdout
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = layers.UNITS if trace else run.GATED
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in run.END_TO_END_UNITS.items():
        if name in ("edits_per_s", "session_open_s") and workload != "session-edit":
            continue
        assert f"  {name} " in stdout, name
        assert unit in stdout
    record = json.loads(
        next(line for line in stdout.splitlines() if line.startswith("record "))[7:]
    )
    assert set(record["host"]) == {"available_cpus", "python", "numpy", "platform"}
    assert record["seed"] == 5 and record["result"]["params"]


def test_without_sources_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-hash",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_leaves_no_process_behind():
    """Every process the command starts (servers, oracle workers and
    whatever they start) has ended by the time the command exits."""
    proc = subprocess.Popen(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", "intern-durable",
            "--seed", "5",
            "--seconds", "0.2",
            "--scale", "tiny",
        ],
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=180) == 0
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return
    os.killpg(proc.pid, 9)
    pytest.fail("processes of the run's group outlived it")
