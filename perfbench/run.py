"""The repository's end-to-end benchmark: one command, four workloads.

    python3 perfbench/run.py --workload bulk-hash --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6 --trace 1

Each run starts real server processes (:mod:`launcher`), drives them
over HTTP from this process with one ``ServiceClient`` (closed loop, one
connection), checks every reply against ``alpha_hash_all`` (the
oracle, run on worker processes after the timed phase) and prints
every metric by name with its unit.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the per-layer ones, from servers whose layers are
wrapped by the launcher, plus ``trace.overhead_ratio`` against a short
untraced phase run first in the same command.

Exit status: 0 when every operation succeeded and matched the oracle,
1 when any failed or mismatched (the result line is still printed), 2
when the benchmark could not run at all (no result line).  See
``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-tmp")
ORACLE = os.path.join(HERE, "oracle.py")
sys.path[:0] = [HERE, SRC]
# Oracle workers are child interpreters: they find both trees the same way.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [HERE, SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

SCHEMA = "perfbench-run-v1"
WORKLOAD_NAMES = ("bulk-hash", "intern-durable", "session-edit", "cluster-mixed")

#: Full set-ups per untraced run; ``setup_s`` is their median.  The
#: journaled preload (~104k entries through ``/v1/intern``, about 12 s
#: on 2 CPUs) and the three-process cluster are set up once per run to
#: keep a run inside its time budget; the median over runs steadies
#: their ``setup_s``.
SETUP_REPEATS = {"bulk-hash": 3, "intern-durable": 1, "session-edit": 2, "cluster-mixed": 1}

#: ``--seconds`` buys a fixed amount of work: the number of operations
#: that take that long on the reference host (2 CPUs, see the
#: workload's ``nominal_op_s``), and at least ``MIN_OPS``.  Per-request
#: cost grows with what a server has already handled (its memos and
#: heap only grow), so a time-bounded loop would give a faster program
#: more history to pay for; a fixed count compares like with like.
#: ``MAX_MEASURE_S`` caps the timed phase on a pathologically slow host.
MIN_OPS = 8
MAX_MEASURE_S = 120.0
MAX_CONSECUTIVE_FAILURES = 3
ORACLE_TIMEOUT_S = 150.0

#: The end-to-end metrics every run reports in its result line (the
#: ``end_to_end`` list of BENCHMARK.json), and their units.
GATED = {
    "setup_s": "s",
    "nodes_per_s": "nodes/s",
    "latency_p50_ms": "ms",
    "server_rss_mb": "MB",
}


def _clock() -> float:
    return time.perf_counter()


def host_block() -> dict:
    from repro.core.cpus import available_cpus

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def install_client_tracing():
    """Wrap the load generator's encode and decode (traced phase only)."""
    from repro.service import client as client_module
    from tracer import Tracer

    tracer = Tracer("client")
    tracer.wrap(client_module, "to_wire", "encode")
    tracer.wrap(json, "dumps", "encode")
    tracer.wrap(json, "loads", "decode")
    return tracer


def run_oracle(jobs: list) -> int:
    """Run the post-hoc oracle jobs on up to two worker processes
    (``oracle.py``); returns the number of mismatches.

    The workers are plain child processes that this function always
    waits for, also when it fails; a ``multiprocessing`` pool would
    leave its resource tracker process running after the command ends.
    """
    import pickle
    import tempfile

    from repro.core.cpus import available_cpus

    if not jobs:
        return 0
    workers = max(1, min(2, available_cpus(), len(jobs)))
    os.makedirs(WORKDIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="oracle-", dir=WORKDIR)
    procs = []
    try:
        for w in range(workers):
            path = os.path.join(scratch, f"jobs{w}.pickle")
            with open(path, "wb") as handle:
                pickle.dump(jobs[w::workers], handle)
            procs.append(
                subprocess.Popen(
                    [sys.executable, ORACLE, path],
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        mismatches = 0
        for proc in procs:
            out, _ = proc.communicate(timeout=ORACLE_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"oracle worker exited with {proc.returncode}")
            mismatches += int(out.split()[-1])
        return mismatches
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        shutil.rmtree(scratch, ignore_errors=True)


def latency_block(walls_ms: list) -> dict:
    """The median and the p90/p99 tail with their sample count; a
    refused tail percentile is reported as ``None`` with the reason."""
    from stats import TooFewSamples, median, percentile

    block = {"samples": len(walls_ms), "latency_p50_ms": median(walls_ms)}
    for q, key in ((0.9, "latency_p90_ms"), (0.99, "latency_p99_ms")):
        try:
            block[key] = percentile(walls_ms, q)
        except TooFewSamples as exc:
            block[key] = None
            block[f"{key}_refused"] = str(exc)
    return block


class Phase:
    """One workload run: set-ups, the timed phase, the oracle."""

    def __init__(self, name, seed, seconds, scale, trace, repeats, max_ops=None):
        from loads import WORKLOADS

        self.cls = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.trace = trace
        self.repeats = repeats
        self.max_ops = max_ops
        self.workload = None

    def run(self) -> dict:
        from layers import per_layer
        from stats import median

        setups, facts, warm_ops, jobs = [], [], [], []
        for repeat in range(self.repeats):
            workload = self.cls(self.seed, self.scale, WORKDIR, self.trace)
            self.workload = workload
            started = _clock()
            workload.setup()
            setups.append(_clock() - started)
            facts.append(workload.facts)
            warm_ops += workload.warm_ops
            if repeat < self.repeats - 1:
                workload.finish()
                jobs += workload.oracle_jobs
                workload.stop()

        # The load generator's own long-lived state (caches, oracle
        # jobs) is frozen out of its collector, so its GC passes do not
        # land in the timed requests.
        gc.collect()
        gc.freeze()
        client_tracer = install_client_tracing() if self.trace else None
        try:
            counters_before = workload.store_counters()
            retries_before = workload.retries()
            ops = self._timed_phase(workload)
            counters_after = workload.store_counters()
            retries = workload.retries() - retries_before
        finally:
            gc.unfreeze()
            if client_tracer is not None:
                client_tracer.unwrap()
        workload.finish()
        stopped = workload.stop()
        oracle_mismatches = run_oracle(jobs + workload.oracle_jobs)

        good = [op for op in ops if op["ok"]]
        walls_ms = [(op["t1"] - op["t0"]) * 1e3 for op in good]
        busy = sum(walls_ms) / 1e3
        inline = sum(1 for op in ops + warm_ops if op["mismatches"])
        failed_ops = sum(1 for op in ops + warm_ops if not op["ok"])
        result = {
            "workload": self.name,
            "setup_s": median(setups),
            "setup_runs": setups,
            "nodes_per_s": sum(op["nodes"] for op in good) / busy if busy else 0.0,
            **latency_block(walls_ms),
            "walls_ms": [round(w, 3) for w in walls_ms],
            "server_rss_mb": sum(stopped["rss_mb"].values()),
            "server_rss_mb_by_process": stopped["rss_mb"],
            "attempted": len(ops) + len(warm_ops),
            "failed": failed_ops,
            "oracle_mismatches": oracle_mismatches + inline,
            "errors": sorted({op["error"] for op in ops if op.get("error")})[:3],
            "facts": facts[-1],
            "params": workload.params,
        }
        result["error_rate"] = (
            (result["failed"] + result["oracle_mismatches"]) / result["attempted"]
        )
        if self.name == "session-edit":
            result["edits_per_s"] = len(good) / busy if busy else 0.0
            result["session_open_s"] = median([f["session_open_s"] for f in facts])
        if self.trace:
            result["layers"] = per_layer(
                good,
                client_tracer.spans,
                stopped["spans"],
                workload.front,
                (counters_before, counters_after),
                retries,
            )
        return result

    def _timed_phase(self, workload) -> list:
        target = max(MIN_OPS, round(self.seconds / workload.nominal_op_s))
        if self.max_ops is not None:
            target = min(target, self.max_ops)
        ops, failures = [], 0
        started = _clock()
        while len(ops) < target and _clock() - started < MAX_MEASURE_S:
            op = workload.step(len(ops))
            ops.append(op)
            failures = 0 if op["ok"] else failures + 1
            if failures >= MAX_CONSECUTIVE_FAILURES:
                break
        return ops

    def stop(self) -> None:
        if self.workload is not None:
            self.workload.stop()


#: Every end-to-end metric, in report order; only ``GATED`` ones exist
#: on every workload and go into the result line.
END_TO_END_UNITS = {
    "setup_s": "s",
    "session_open_s": "s",
    "nodes_per_s": "nodes/s",
    "edits_per_s": "edits/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "error_rate": "share",
    "server_rss_mb": "MB",
}


def print_result(result: dict, trace: bool) -> None:
    print(f"== {result['workload']} ==")
    for key, unit in END_TO_END_UNITS.items():
        if key not in result:
            continue
        value = result[key]
        note = ""
        if key.startswith("latency_"):
            note = f"  (n={result['samples']})"
            if value is None:
                print(f"  {key:<38} refused: {result[key + '_refused']}")
                continue
        if key == "setup_s":
            note = f"  (median of {len(result['setup_runs'])} set-ups)"
        print(f"  {key:<38} {value:.6g} {unit}{note}")
    if trace:
        from layers import UNITS

        for key, unit in UNITS.items():
            print(f"  {key:<38} {result['layers'][key]:.6g} {unit}")


def run_workload(name, args, stamp) -> dict:
    """One workload as the command line asks: untraced, or a short
    untraced reference phase followed by a traced one."""
    phases = []
    current = None
    try:
        if args.trace:
            # The untraced reference runs the first MIN_OPS operations
            # only; the traced phase repeats them (same inputs, same
            # server history) before going on, so the ratio compares
            # like with like.
            current = Phase(
                name, args.seed, args.seconds, args.scale, False, 1, max_ops=MIN_OPS
            )
            plain = current.run()
            current = Phase(name, args.seed, args.seconds, args.scale, True, 1)
            traced = current.run()
            n = min(len(plain["walls_ms"]), len(traced["walls_ms"]))
            reference = sum(plain["walls_ms"][:n])
            traced["layers"]["trace.overhead_ratio"] = (
                sum(traced["walls_ms"][:n]) / reference if reference else 0.0
            )
            phases = [plain, traced]
        else:
            current = Phase(
                name, args.seed, args.seconds, args.scale, False, SETUP_REPEATS[name]
            )
            phases = [current.run()]
    finally:
        if current is not None:
            current.stop()
    result = phases[-1]
    result["attempted"] = sum(p["attempted"] for p in phases)
    result["failed"] = sum(p["failed"] for p in phases)
    result["oracle_mismatches"] = sum(p["oracle_mismatches"] for p in phases)
    result["error_rate"] = (result["failed"] + result["oracle_mismatches"]) / result[
        "attempted"
    ]
    print_result(result, bool(args.trace))
    record = {"schema": SCHEMA, **stamp, "trace": bool(args.trace), "result": result}
    if args.trace:
        record["untraced"] = phases[0]
    print("record " + json.dumps(record, sort_keys=True, default=str))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes: the benchmark's (full) or the self-test's (tiny)",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every spawned process is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # The benchmark measures the sources beside it, never an installed copy.
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    stamp = {
        "host": host_block(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }
    shm_before = shm_segments()
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args, stamp))
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 2
    finally:
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        print(f"warning: {len(leaked)} /dev/shm/psm_* segment(s) leaked: {leaked}")

    def metrics_of(result):
        if args.trace:
            from layers import UNITS

            return {k: {"value": result["layers"][k], "unit": u} for k, u in UNITS.items()}
        return {k: {"value": result[k], "unit": u} for k, u in GATED.items()}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()
        }
    attempted = sum(r["attempted"] for r in results)
    bad = min(attempted, sum(r["failed"] + r["oracle_mismatches"] for r in results))
    correct = bad == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": bad,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
