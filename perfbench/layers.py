"""Fold the traced run's spans into the per-layer metrics.

Every timed request is a client window ``[t0, t1]``.  A span of any
process (the load generator's or a server's) that starts inside the
window belongs to that request; the benchmark's load is closed-loop
with one connection, so windows never overlap.  Per request, spans of
one name are summed; a ``*_ms`` metric is the median of those sums over
the timed requests (a request without the span counts as 0), except
``server.gc_pause_ms``, which is the mean, since most requests see no
collection at all.  Ratios are ratios of totals.
"""

from __future__ import annotations

import statistics

from stats import median

#: Spans a node's request handler calls directly; the handler time they
#: do not cover is ``server.unattributed_ms``.
NODE_CHILDREN = (
    "read_json",
    "wire_decode",
    "plan",
    "execute",
    "hash_expr",
    "journal_append",
    "stream_edit",
    "reply_encode",
)
COORDINATOR_CHILDREN = ("read_json", "fanout", "reply_encode")

ENGINES = ("tree", "arena-vec")

#: Every per-layer metric and its unit, in report order.
UNITS = {
    "client.encode_ms": "ms",
    "client.decode_ms": "ms",
    "client.retries": "count",
    "transport.wait_ms": "ms",
    "server.handler_ms": "ms",
    "server.body_read_ms": "ms",
    "server.json_decode_ms": "ms",
    "server.wire_decode_ms": "ms",
    "server.reply_encode_ms": "ms",
    "server.gc_pause_ms": "ms",
    "server.unattributed_ms": "ms",
    "server.rss_growth_mb_per_request": "MB",
    "plan.plan_ms": "ms",
    **{f"plan.engine_share.{engine}": "share" for engine in ENGINES},
    "arena.flatten_ms": "ms",
    "arena.kernel_ms": "ms",
    "arena.unique_per_input_node": "ratio",
    "kernel.summarise_ms": "ms",
    "store.intern_ms": "ms",
    "store.hash_expr_ms": "ms",
    "store.intern_hit_rate": "share",
    "store.memo_hit_rate": "share",
    "store.entries_final": "count",
    "journal.append_ms": "ms",
    "journal.delta_encode_ms": "ms",
    "journal.fsync_ms": "ms",
    "journal.bytes_per_input_node": "B/node",
    "snapshot.entries_scanned_per_emitted": "ratio",
    "stream.edit_ms": "ms",
    "stream.nodes_rehashed_per_edit": "count",
    "stream.repins": "count",
    "coordinator.handler_ms": "ms",
    "coordinator.shard_call_ms": "ms",
    "coordinator.shard_calls_per_request": "count",
    "coordinator.wire_bytes_per_input_node": "B/node",
    "trace.overhead_ratio": "ratio",
}


def _covered(intervals: list) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Window:
    """The spans of one timed request, per process."""

    def __init__(self, op: dict, spans: dict):
        self.op = op
        #: process name -> list of spans inside the window
        self.spans = {
            name: [s for s in proc_spans if op["t0"] <= s[2] <= op["t1"]]
            for name, proc_spans in spans.items()
        }

    def total(self, name: str, procs=None) -> float:
        """Summed seconds of span ``name`` over ``procs`` (default all)."""
        return sum(
            s[3] - s[2]
            for proc, spans in self.spans.items()
            if procs is None or proc in procs
            for s in spans
            if s[1] == name
        )

    def extras(self, name: str, proc=None):
        for process, spans in self.spans.items():
            if proc is not None and process != proc:
                continue
            for s in spans:
                if s[1] == name:
                    yield s[4] or {}

    def count(self, name: str) -> int:
        return sum(1 for _ in self.extras(name))


def per_layer(ops, client_spans, server_spans, front, counters, retries) -> dict:
    """The per-layer metrics of one traced timed phase.

    ``ops`` are the timed operations, ``client_spans`` the load
    generator's spans, ``server_spans`` ``{process: (role, spans)}``,
    ``front`` the process the client talks to, ``counters`` the store
    counters before and after the phase and ``retries`` the client's
    retry count over it.
    """
    roles = {name: role for name, (role, _spans) in server_spans.items()}
    servers = {name: spans for name, (_role, spans) in server_spans.items()}
    windows = [_Window(op, {"client": client_spans, **servers}) for op in ops]
    server_names = set(servers)
    front_only = {front}
    nodes = sum(op["nodes"] for op in ops) or 1
    ms = 1e3

    def med(fn) -> float:
        return median([fn(w) for w in windows]) * ms

    def srv(name: str):
        return lambda w: w.total(name, server_names)

    def unattributed(w: _Window) -> float:
        children = NODE_CHILDREN if roles[front] == "node" else COORDINATOR_CHILDREN
        spans = w.spans[front]
        handlers = [(s[2], s[3]) for s in spans if s[1] == "handler"]
        inside = [
            (s[2], s[3])
            for s in spans
            if s[1] in children and any(a <= s[2] <= b for a, b in handlers)
        ]
        return w.total("handler", front_only) - _covered(inside)

    plans = [x["engine"] for w in windows for x in w.extras("plan")]
    flattens = [x for w in windows for x in w.extras("flatten")]
    deltas = [x for w in windows for x in w.extras("delta_encode")]
    before, after = counters
    probes = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    memo = after["memo_hits"] - before["memo_hits"]
    hashed = after["hashed_nodes"] - before["hashed_nodes"]
    # Peak RSS after each handled request, per server process: the
    # growth per request, summed over the processes.
    rss_growth = 0.0
    for name in server_names:
        series = [x["rss_kb"] for w in windows for x in w.extras("handler", name)]
        if len(series) > 1:
            rss_growth += (series[-1] - series[0]) / (len(series) - 1) / 1024
    is_coordinator = roles[front] == "coordinator"
    edits = [op for op in ops if "rehashed" in op]

    metrics = {
        "client.encode_ms": med(lambda w: w.total("encode", {"client"})),
        "client.decode_ms": med(lambda w: w.total("decode", {"client"})),
        "client.retries": retries,
        "transport.wait_ms": med(
            lambda w: (w.op["t1"] - w.op["t0"])
            - w.total("encode", {"client"})
            - w.total("decode", {"client"})
            - w.total("handler", front_only)
        ),
        "server.handler_ms": med(lambda w: w.total("handler", front_only)),
        "server.body_read_ms": med(srv("body_read")),
        "server.json_decode_ms": med(
            lambda w: w.total("read_json", server_names) - w.total("body_read", server_names)
        ),
        "server.wire_decode_ms": med(srv("wire_decode")),
        "server.reply_encode_ms": med(srv("reply_encode")),
        "server.gc_pause_ms": statistics.fmean(srv("gc")(w) for w in windows) * ms
        if windows
        else 0.0,
        "server.unattributed_ms": med(unattributed),
        "server.rss_growth_mb_per_request": rss_growth,
        "plan.plan_ms": med(srv("plan")),
        **{
            f"plan.engine_share.{engine}": _ratio(plans.count(engine), len(plans))
            for engine in ENGINES
        },
        "arena.flatten_ms": med(srv("flatten")),
        "arena.kernel_ms": med(srv("kernel")),
        "arena.unique_per_input_node": _ratio(
            sum(x["unique"] for x in flattens), sum(x["input"] for x in flattens)
        ),
        "kernel.summarise_ms": med(srv("summarise")),
        "store.intern_ms": med(srv("intern")),
        "store.hash_expr_ms": med(srv("hash_expr")),
        "store.intern_hit_rate": _ratio(after["hits"] - before["hits"], probes),
        "store.memo_hit_rate": _ratio(memo, memo + hashed),
        "store.entries_final": after["entries"],
        "journal.append_ms": med(srv("journal_append")),
        "journal.delta_encode_ms": med(srv("delta_encode")),
        "journal.fsync_ms": med(srv("fsync")),
        "journal.bytes_per_input_node": sum(
            x["bytes"] for w in windows for x in w.extras("journal_write")
        )
        / nodes,
        "snapshot.entries_scanned_per_emitted": _ratio(
            sum(x["scanned"] for x in deltas), sum(x["emitted"] for x in deltas)
        ),
        "stream.edit_ms": med(srv("stream_edit")),
        "stream.nodes_rehashed_per_edit": median([op["rehashed"] for op in edits]),
        "stream.repins": sum(1 for op in edits if op["repinned"]),
        "coordinator.handler_ms": med(lambda w: w.total("handler", front_only))
        if is_coordinator
        else 0.0,
        "coordinator.shard_call_ms": med(srv("shard_call")),
        "coordinator.shard_calls_per_request": statistics.fmean(
            w.count("shard_call") for w in windows
        )
        if windows
        else 0.0,
        "coordinator.wire_bytes_per_input_node": sum(
            x["bytes"] for w in windows for x in w.extras("shard_request")
        )
        / nodes,
    }
    return metrics
