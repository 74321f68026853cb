"""The four workloads: what each set-up starts, and one timed operation.

Every load is closed-loop with one client and one connection: the
single :class:`~repro.service.client.ServiceClient` waits for each reply
before it sends the next request.  A workload object lives for one
set-up: :meth:`Workload.setup` starts its servers, preloads and warms
them up, :meth:`Workload.step` runs operation ``i`` and
:meth:`Workload.stop` reaps the processes.
"""

from __future__ import annotations

import time

from repro.lang.sexpr import to_wire
from repro.lang.traversal import replace_at
from repro.service import client as client_module
from repro.service.client import ServiceClient, ServiceError

import oracle
import workloads
from fleet import Fleet

#: Workload parameters per scale; ``tiny`` is the self-test size.
PARAMS = {
    "bulk-hash": {
        "full": {"batch_items": 1000, "item_nodes": workloads.ITEM_NODES},
        "tiny": {"batch_items": 20, "item_nodes": workloads.ITEM_NODES},
    },
    "intern-durable": {
        "full": {
            "batch_items": 40,
            "item_nodes": workloads.ITEM_NODES,
            "dup_share": 0.6,
            "preload_batches": 5,
            "preload_batch_items": 1000,
        },
        "tiny": {
            "batch_items": 10,
            "item_nodes": workloads.ITEM_NODES,
            "dup_share": 0.6,
            "preload_batches": 1,
            "preload_batch_items": 30,
        },
    },
    "session-edit": {
        "full": {"items": 12, "item_nodes": 8192, "min_depth": 12, "warm_edits": 12},
        "tiny": {"items": 3, "item_nodes": 512, "min_depth": 6, "warm_edits": 3},
    },
    "cluster-mixed": {
        "full": {
            "batch_items": 1000,
            "item_nodes": workloads.ITEM_NODES,
            "dup_share": 0.6,
            "shards": 2,
        },
        "tiny": {
            "batch_items": 20,
            "item_nodes": workloads.ITEM_NODES,
            "dup_share": 0.6,
            "shards": 2,
        },
    },
}


def _clock() -> float:
    return time.perf_counter()


class Workload:
    name = ""
    #: Launcher name of the process the client talks to.
    front = "node0"
    #: Seconds per timed operation on the reference host (2 CPUs); the
    #: run turns ``--seconds`` into an operation count with it.
    nominal_op_s = 1.0

    def __init__(self, seed: int, scale: str, workdir: str, trace: bool):
        self.seed = seed
        self.params = dict(PARAMS[self.name][scale])
        self.fleet = Fleet(workdir, trace)
        self.client: ServiceClient | None = None
        self.store_clients: list[ServiceClient] = []
        #: Post-hoc oracle calls: ``(function, args)``.
        self.oracle_jobs: list[tuple] = []
        #: Facts recorded during set-up (preload size, open time, ...).
        self.facts: dict = {}
        #: Untimed warm-up operations of the set-up (checked like the rest).
        self.warm_ops: list[dict] = []

    # -- lifecycle -------------------------------------------------------------

    def _connect(self, url: str, store_urls: list[str]) -> None:
        self.client = ServiceClient(url, timeout=120.0)
        self.store_clients = [ServiceClient(u, timeout=120.0) for u in store_urls]

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, i: int) -> dict:
        """Run operation ``i``; returns ``{"t0", "t1", "nodes", "ok",
        "mismatches"}`` with the request timed from encode to decode."""
        raise NotImplementedError

    def finish(self) -> None:
        """Queue any oracle jobs that need the whole run (default: none)."""

    def stop(self) -> dict:
        for c in [self.client, *self.store_clients]:
            if c is not None:
                c.close()
        return self.fleet.stop()

    # -- counters outside the timed region ---------------------------------------

    def store_counters(self) -> dict:
        """Store counters summed over the store-holding nodes."""
        total = {"hits": 0, "misses": 0, "memo_hits": 0, "hashed_nodes": 0, "entries": 0}
        for c in self.store_clients:
            store = c.metrics()["store"]
            for key in ("hits", "misses", "memo_hits", "hashed_nodes"):
                total[key] += store["counters"].get(key, 0)
            total["entries"] += store["entries"]
        return total

    def retries(self) -> int:
        return self.client.counters["retries"]

    # -- shared request shapes -------------------------------------------------

    def _timed(self, call) -> tuple:
        t0 = _clock()
        try:
            reply = call()
        except ServiceError as exc:
            return None, t0, _clock(), exc
        return reply, t0, _clock(), None

    @staticmethod
    def _op(t0, t1, nodes, error=None, mismatches=0) -> dict:
        return {
            "t0": t0,
            "t1": t1,
            "nodes": nodes,
            "ok": error is None,
            "error": None if error is None else str(error),
            "mismatches": mismatches,
        }

    def _intern(self, batch) -> tuple:
        """Intern ``batch`` with the hashes in the reply: the client's
        ``intern_wire`` returns the whole reply, so the encode is done
        here (inside the timed region) with the client's ``to_wire``."""
        return self._timed(
            lambda: self.client.intern_wire([client_module.to_wire(e) for e in batch])
        )

    def _check_ids(self, reply, refs, key) -> int:
        """Mismatches among the alpha-renamed copies: each must get the
        id (``key(reply, k)``) its original got."""
        return sum(
            1
            for k, ref in enumerate(refs)
            if ref is not None and key(reply, k) != self.known[ref]
        )


class BulkHash(Workload):
    """One store-backed node; duplicate-free 60k-node ``/v1/hash`` batches."""

    name = "bulk-hash"
    nominal_op_s = 0.5

    def setup(self) -> None:
        url = self.fleet.start("node")
        self._connect(url, [url])
        self.warm_ops = [self.step(-1)]  # the timed request shape, untimed

    def step(self, i: int) -> dict:
        batch = workloads.fresh_items(self.seed, "timed", i, self.params["batch_items"])
        reply, t0, t1, error = self._timed(lambda: self.client.hash_corpus(batch))
        nodes = sum(e.size for e in batch)
        if error is None:
            spec = {"seed": self.seed, "stream": "timed", "index": i, "count": len(batch)}
            self.oracle_jobs.append((oracle.check_batch, (spec, reply)))
        return self._op(t0, t1, nodes, error)


class InternDurable(Workload):
    """One journaled node preloaded through ``/v1/intern``; small intern
    batches, 60% of them alpha-renamed copies of preload items."""

    name = "intern-durable"
    nominal_op_s = 0.25

    def setup(self) -> None:
        p = self.params
        url = self.fleet.start("node", "--journal", self.fleet.journal_dir())
        self._connect(url, [url])
        self.known: dict = {}
        self.pool: list = []
        for j in range(p["preload_batches"]):
            batch = workloads.fresh_items(self.seed, "preload", j, p["preload_batch_items"])
            reply = self.client.intern_wire([to_wire(e) for e in batch])
            for k, node_id in enumerate(reply["ids"]):
                self.known[("preload", j, k)] = node_id
                self.pool.append(("preload", j, k))
        self.cache = workloads.ItemCache(self.seed, {"preload": p["preload_batch_items"]})
        self.facts["preload_entries"] = self.client.health()["entries"]
        self.warm_ops = [self.step(-1)]  # the timed request shape, untimed

    def step(self, i: int) -> dict:
        p = self.params
        refs = workloads.mixed_refs(self.seed, i, p["batch_items"], p["dup_share"], self.pool)
        batch = workloads.build_mixed(self.seed, i, refs, self.cache)
        reply, t0, t1, error = self._intern(batch)
        nodes = sum(e.size for e in batch)
        if error is not None:
            return self._op(t0, t1, nodes, error)
        mismatches = self._check_ids(reply, refs, lambda r, k: r["ids"][k])
        spec = {
            "seed": self.seed,
            "index": i,
            "refs": refs,
            "sizes": {"preload": p["preload_batch_items"]},
        }
        self.oracle_jobs.append((oracle.check_batch, (spec, reply["hashes"])))
        return self._op(t0, t1, nodes, mismatches=mismatches)


class SessionEdit(Workload):
    """One store-backed node; a streaming session over 12 deep items and
    a seeded stream of small subtree replacements."""

    name = "session-edit"
    nominal_op_s = 0.045

    def setup(self) -> None:
        p = self.params
        url = self.fleet.start("node")
        self._connect(url, [url])
        self.shadow = workloads.session_corpus(self.seed, p["items"], p["item_nodes"])
        self._paths: dict = {}
        started = _clock()
        opened = self.client.session_open(self.shadow)
        self.facts["session_open_s"] = _clock() - started
        self.sid = opened["session"]
        self.initial_roots = opened["roots"]
        self.edits: dict = {item: [] for item in range(p["items"])}
        # Warm-up: one untimed edit per item, so every item's one-time
        # annotation-tree build happens before the timed phase.
        self.warm_ops = [
            self.step(-1 - item, item=item % p["items"])
            for item in range(p["warm_edits"])
        ]

    def _paths_of(self, item: int) -> list:
        paths = self._paths.get(item)
        if paths is None:
            paths = workloads.deep_paths(self.shadow[item], self.params["min_depth"])
            self._paths[item] = paths
        return paths

    def step(self, i: int, item=None) -> dict:
        item, path, replacement = workloads.session_edit(
            self.seed, i, self.params["items"], self._paths_of, item=item
        )
        reply, t0, t1, error = self._timed(
            lambda: self.client.session_edit(self.sid, item, path, replacement)
        )
        if error is not None:
            return self._op(t0, t1, replacement.size, error)
        self.shadow[item] = replace_at(self.shadow[item], path, replacement)
        self._paths.pop(item, None)
        self.edits[item].append((path, to_wire(replacement), reply["root_hash"]))
        op = self._op(t0, t1, replacement.size)
        op["rehashed"] = reply["nodes_rehashed"]
        op["repinned"] = reply["repinned"]
        return op

    def finish(self) -> None:
        """Queue the per-item replay oracles (once all edits are in)."""
        p = self.params
        for item, edits in self.edits.items():
            spec = {"seed": self.seed, "item_nodes": p["item_nodes"], "item": item}
            self.oracle_jobs.append(
                (oracle.check_session_item, (spec, self.initial_roots[item], edits))
            )


class ClusterMixed(Workload):
    """A coordinator over two shard nodes; alternating ``/v1/hash`` and
    ``/v1/intern`` of 60k-node batches, 60% alpha-renamed repeats.

    One operation is a pair: hash a batch, then intern the same batch
    (a client that looks its terms up before it stores them).  Timing
    the pair keeps the median well defined; a median over single
    requests of two kinds would flip between them.
    """

    name = "cluster-mixed"
    front = "coordinator2"
    nominal_op_s = 1.7

    def setup(self) -> None:
        p = self.params
        count = p["shards"]
        shards = [
            self.fleet.spawn("node", "--shard-id", str(s), "--shard-count", str(count))
            for s in range(count)
        ]
        urls = [self.fleet.wait_ready(entry) for entry in shards]
        front = self.fleet.start("coordinator", "--shards", *urls)
        self._connect(front, urls)
        fresh = p["batch_items"] - round(p["batch_items"] * p["dup_share"])
        self.cache = workloads.ItemCache(
            self.seed, {"warm": p["batch_items"], "timed": fresh}
        )
        warm = workloads.fresh_items(self.seed, "warm", 0, p["batch_items"])
        reply = self.client.intern_wire([to_wire(e) for e in warm])
        self.known = {
            ("warm", 0, k): (owner, node_id)
            for k, (owner, node_id) in enumerate(zip(reply["owners"], reply["ids"]))
        }
        self.pool = list(self.known)
        self.warm_ops = [self.step(-1)]  # the timed operation, untimed

    def step(self, i: int) -> dict:
        p = self.params
        refs = workloads.mixed_refs(self.seed, i, p["batch_items"], p["dup_share"], self.pool)
        batch = workloads.build_mixed(self.seed, i, refs, self.cache)
        nodes = 2 * sum(e.size for e in batch)  # the batch travels twice
        hashes, t0, t1, error = self._timed(lambda: self.client.hash_corpus(batch))
        if error is not None:
            return self._op(t0, t1, nodes, error)
        reply, _start, t1, error = self._intern(batch)
        if error is not None:
            return self._op(t0, t1, nodes, error)
        mismatches = self._check_ids(
            reply, refs, lambda r, k: (r["owners"][k], r["ids"][k])
        )
        # Both replies carry the batch's hashes: they must agree.
        mismatches += sum(1 for a, b in zip(hashes, reply["hashes"]) if a != b)
        # The j-th fresh item of batch i is ItemCache reference ("timed", i, j).
        fresh_at = [k for k, ref in enumerate(refs) if ref is None]
        for j, k in enumerate(fresh_at):
            self.known[("timed", i, j)] = (reply["owners"][k], reply["ids"][k])
            self.pool.append(("timed", i, j))
        spec = {
            "seed": self.seed,
            "index": i,
            "refs": refs,
            "sizes": dict(self.cache.batch_sizes),
        }
        self.oracle_jobs.append((oracle.check_batch, (spec, reply["hashes"])))
        return self._op(t0, t1, nodes, mismatches=mismatches)


WORKLOADS = {cls.name: cls for cls in (BulkHash, InternDurable, SessionEdit, ClusterMixed)}
