"""Spawn, reach and reap the benchmark's server processes."""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class FleetError(RuntimeError):
    pass


class Fleet:
    """The server processes of one workload set-up.

    Every process runs :mod:`launcher` on an ephemeral port.  Scratch
    files (journal directories, stats and span dumps) live in one
    temporary directory under ``workdir``, removed by :meth:`stop`
    together with the processes.
    """

    def __init__(self, workdir: str, trace: bool):
        os.makedirs(workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="fleet-", dir=workdir)
        self.trace = trace
        self.procs: list[dict] = []

    def spawn(self, role: str, *args: str) -> dict:
        """Start one launcher; returns its record (``url`` set by
        :meth:`wait_ready`)."""
        name = f"{role}{len(self.procs)}"
        entry = {
            "name": name,
            "role": role,
            "stats": os.path.join(self.dir, f"{name}.stats.json"),
            "spans": os.path.join(self.dir, f"{name}.spans.json") if self.trace else None,
            "url": None,
        }
        cmd = [sys.executable, LAUNCHER, role, "--stats-out", entry["stats"], *args]
        if self.trace:
            cmd += ["--trace-out", entry["spans"]]
        entry["proc"] = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True
        )
        self.procs.append(entry)
        return entry

    def journal_dir(self) -> str:
        return tempfile.mkdtemp(prefix="journal-", dir=self.dir)

    def wait_ready(self, entry: dict) -> str:
        proc = entry["proc"]
        deadline = time.monotonic() + READY_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise FleetError(f"{entry['name']} not ready in {READY_TIMEOUT_S}s")
                line = proc.stdout.readline()
                if not line:
                    raise FleetError(
                        f"{entry['name']} exited with {proc.wait()} before ready"
                    )
                if line.startswith("READY "):
                    entry["url"] = line.split()[1]
                    return entry["url"]

    def start(self, role: str, *args: str) -> str:
        return self.wait_ready(self.spawn(role, *args))

    def stop(self) -> dict:
        """Stop every process (SIGTERM, then SIGKILL past the timeout),
        collect their stats and spans, remove the scratch directory.

        Returns ``{"rss_mb": {name: peak MB}, "spans": {name: (role,
        spans)}}``; a process that had to be killed has no entries.
        """
        from tracer import load_spans

        for entry in self.procs:
            if entry["proc"].poll() is None:
                entry["proc"].send_signal(signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for entry in self.procs:
            proc = entry["proc"]
            try:
                proc.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        out = {"rss_mb": {}, "spans": {}}
        for entry in self.procs:
            if os.path.exists(entry["stats"]):
                with open(entry["stats"], encoding="utf-8") as handle:
                    out["rss_mb"][entry["name"]] = json.load(handle)["maxrss_kb"] / 1024
            if entry["spans"] and os.path.exists(entry["spans"]):
                out["spans"][entry["name"]] = load_spans(entry["spans"])
        self.procs = []
        shutil.rmtree(self.dir, ignore_errors=True)
        return out
