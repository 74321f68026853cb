"""Start one benchmark server process: a ``ReproServer`` node or a
``ClusterCoordinator``.

    python perfbench/launcher.py node --stats-out S [--journal DIR]
        [--shard-id I --shard-count N] [--trace-out T]
    python perfbench/launcher.py coordinator --stats-out S
        --shards URL [URL ...] [--trace-out T]

Listens on an ephemeral port and prints ``READY <url>`` once it is
serving.  Stops on SIGTERM or SIGINT, or when its parent process goes
away; on the way out it writes ``{"maxrss_kb": ...}`` (peak resident
set, the kernel's ``VmHWM``) to ``--stats-out`` and, with
``--trace-out``, every recorded span.

With ``--trace-out`` the public functions of each layer are wrapped
(:mod:`tracer`) before the server is built.  Without it nothing is
wrapped: the server is the program as shipped.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _delta_counts(args, data: bytes) -> dict:
    """Entries the delta encoder scanned (the whole store) and emitted."""
    header = json.loads(data[: data.index(b"\n")])
    return {"scanned": len(args[0]), "emitted": header["entries"]}


def _flatten_counts(args, result) -> dict:
    arena, _roots = result
    return {"unique": len(arena), "input": sum(e.size for e in args[0])}


def _plan_counts(args, plan) -> dict:
    engine = plan.engine if plan.kernel is None else f"{plan.engine}-{plan.kernel}"
    return {"engine": engine}


def _edit_counts(args, report) -> dict:
    return {"rehashed": report.nodes_rehashed, "repinned": report.repinned}


def _body_counts(args, result) -> dict:
    """Request body bytes of ``ServiceClient._request(self, method,
    path, body=None, ...)``."""
    body = args[3] if len(args) > 3 else None
    return {"bytes": len(body) if body else 0}


def _handler_counts(args, result) -> dict:
    return {"path": args[0].path, "rss_kb": _maxrss_kb()}


def install_node_tracing(tracer) -> None:
    from repro.api.session import Session
    from repro.api.stream import StreamSession
    from repro.service import server
    from repro.store import arena_intern, journal, store

    handler = server._Handler
    tracer.wrap(handler, "do_POST", "handler", root=True, extra=_handler_counts)
    tracer.wrap(handler, "_read_body", "body_read")
    tracer.wrap(handler, "_read_json", "read_json")
    tracer.wrap(handler, "_send_json", "reply_encode")
    tracer.wrap(server, "from_wire", "wire_decode")
    tracer.wrap(Session, "plan", "plan", extra=_plan_counts)
    tracer.wrap(Session, "execute", "execute")
    tracer.wrap(arena_intern, "flatten_corpus", "flatten", extra=_flatten_counts)
    tracer.wrap(arena_intern, "arena_hash_any", "kernel")
    tracer.wrap(store, "summarise_tree", "summarise")
    tracer.wrap(store.ExprStore, "intern_many", "intern")
    tracer.wrap(store.ExprStore, "hash_expr", "hash_expr")
    tracer.wrap(journal.Journal, "append_delta", "journal_append")
    tracer.wrap(
        journal.Journal,
        "append_bytes",
        "journal_write",
        extra=lambda args, _r: {"bytes": len(args[1])},
    )
    tracer.wrap(journal, "delta_to_bytes", "delta_encode", extra=_delta_counts)
    tracer.wrap(os, "fsync", "fsync")
    tracer.wrap(StreamSession, "edit", "stream_edit", extra=_edit_counts)


def install_coordinator_tracing(tracer) -> None:
    from repro.cluster import coordinator
    from repro.service import client, server

    handler = coordinator._CoordinatorHandler
    tracer.wrap(handler, "do_POST", "handler", root=True, extra=_handler_counts)
    tracer.wrap(server._Handler, "_read_body", "body_read")
    tracer.wrap(server._Handler, "_read_json", "read_json")
    tracer.wrap(server._Handler, "_send_json", "reply_encode")
    tracer.wrap(coordinator.ClusterCoordinator, "hash_wire", "fanout")
    tracer.wrap(coordinator.ClusterCoordinator, "intern_wire", "fanout")
    tracer.wrap(client.ServiceClient, "hash_wire", "shard_call")
    tracer.wrap(client.ServiceClient, "intern_wire", "shard_call")
    tracer.wrap(client.ServiceClient, "_request", "shard_request", extra=_body_counts)


def build_server(args):
    if args.role == "node":
        from repro.service.server import ReproServer

        kwargs = {"port": 0, "workers": 1}
        if args.journal:
            kwargs["journal"] = args.journal
        if args.shard_count is not None:
            kwargs["shard_id"] = args.shard_id
            kwargs["shard_count"] = args.shard_count
        return ReproServer(**kwargs)
    from repro.cluster.coordinator import ClusterCoordinator

    return ClusterCoordinator(args.shards, port=0, timeout=120.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("node", "coordinator"))
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--journal")
    parser.add_argument("--shard-id", type=int)
    parser.add_argument("--shard-count", type=int)
    parser.add_argument("--shards", nargs="+")
    args = parser.parse_args(argv)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    parent = os.getppid()

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer(args.role)
        if args.role == "node":
            install_node_tracing(tracer)
        else:
            install_coordinator_tracing(tracer)
        tracer.watch_gc()

    server = build_server(args)
    try:
        server.start()
        print(f"READY {server.url}", flush=True)
        while not stop.wait(0.2):
            if os.getppid() != parent:
                break
    finally:
        server.close()
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump({"maxrss_kb": _maxrss_kb()}, handle)
        if tracer is not None:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
