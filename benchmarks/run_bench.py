"""Unified benchmark runner: one command, one trajectory file.

Runs the store and corpus cells and writes a ``BENCH_PR6.json``
trajectory record -- corpus sizes, wall-clock times, cache hit rates,
shard balance -- so the perf history of the repo is a
sequence of committed, machine-readable records instead of numbers in
PR descriptions::

    PYTHONPATH=src python benchmarks/run_bench.py --out BENCH_PR6.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick   # CI-sized

Cells:

* ``store``    -- fresh re-hash vs cold vs warm :class:`ExprStore` on a
                  duplicate-heavy corpus (the PR-1 claim, re-measured).
* ``arena``    -- the memoised per-item tree walk (``hash_expr``) vs
                  the arena batch path (``ExprStore.hash_corpus``,
                  :mod:`repro.core.arena`) on a 600k-node duplicate-free
                  corpus: compile + kernel wall-clock, bit-identity,
                  dedup ratio.
* ``vec``      -- the vectorized vs the scalar arena kernel on the same
                  flattened arena (flatten cost excluded: this cell
                  times the kernels alone), bit-identity checked; the
                  smoke gate (``bench_store.py --smoke``) asserts >= 2x
                  when NumPy is importable.
* ``sharded``  -- flat vs lock-striped sharded interning of one corpus:
                  wall-clock, shard occupancy balance, and the
                  hits+misses conservation invariant.
* ``cluster``  -- coordinator-routing overhead: the same corpus hashed
                  against one directly-addressed ``repro serve`` node
                  vs through a ``repro cluster serve`` coordinator
                  fronting two shard nodes (all on localhost), with
                  bit-identity and folded-stats conservation checked.

``--cells`` picks a subset (default: all); ``--pr`` stamps the record
and the default output name (``BENCH_PR<n>.json``).

Speedups are *reported* for every shape and *gated* nowhere -- gating
lives in ``bench_store.py --smoke`` (CI).  The record always includes the host shape so a trajectory
file from a 1-CPU container is never misread as a regression against a
16-core workstation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_store import make_corpus, memo_hash_corpus  # noqa: E402  (sibling module)

from repro.core.cpus import available_cpus  # noqa: E402
from repro.core.hashed import alpha_hash_all  # noqa: E402
from repro.store import ExprStore, ShardedExprStore  # noqa: E402


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def store_cell(n_items: int, item_size: int, repeats: int) -> dict:
    corpus = make_corpus(n_items, item_size)
    nodes = sum(e.size for e in corpus)
    # The per-item hash_expr loop throughout: the store cell tracks the
    # memoised tree walk (the PR-1 claim); the arena cell owns the
    # batch path.
    fresh = _best_of(
        lambda: [alpha_hash_all(e).root_hash for e in corpus], repeats
    )
    cold = _best_of(lambda: memo_hash_corpus(ExprStore(), corpus), repeats)
    warm_store = ExprStore()
    memo_hash_corpus(warm_store, corpus)
    warm = _best_of(lambda: memo_hash_corpus(warm_store, corpus), repeats)
    probe = ExprStore()
    memo_hash_corpus(probe, corpus)
    return {
        "items": n_items,
        "nodes": nodes,
        "fresh_s": round(fresh, 4),
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "cold_speedup": round(fresh / cold, 3) if cold else None,
        "hit_rate": round(probe.stats.hit_rate, 4),
    }


def arena_cell(n_items: int, item_size: int, repeats: int) -> dict:
    """Memoised tree walk vs arena batch path, bit-identity checked.

    The corpus is duplicate-free, so the arena's dedup ratio reflects
    structural repetition in the expressions themselves, not
    object-identity repeats.
    """
    from repro.core.arena import flatten_corpus

    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    nodes = sum(e.size for e in corpus)
    tree_hashes = memo_hash_corpus(ExprStore(), corpus)
    arena_hashes = ExprStore().hash_corpus(corpus)
    tree_s = _best_of(lambda: memo_hash_corpus(ExprStore(), corpus), repeats)
    arena_s = _best_of(lambda: ExprStore().hash_corpus(corpus), repeats)
    arena, _roots = flatten_corpus(corpus)
    return {
        "items": n_items,
        "nodes": nodes,
        "unique_arena_nodes": len(arena),
        "dedup_ratio": round(len(arena) / nodes, 4) if nodes else None,
        "tree_s": round(tree_s, 4),
        "arena_s": round(arena_s, 4),
        "arena_speedup": round(tree_s / arena_s, 3) if arena_s else None,
        "identical": arena_hashes == tree_hashes,
    }


def vec_cell(n_items: int, item_size: int, repeats: int) -> dict:
    """Vectorized vs scalar arena kernel, same arena, flatten excluded.

    The level-batched NumPy kernel and the Python scalar loop hash the
    *same* :class:`ExprArena`, so the ratio is a pure kernel speedup --
    single-threaded, hence meaningful on any host shape (no
    ``cpu_bound`` caveat applies).  Without NumPy only the scalar side
    runs and the record says so (``"numpy": false``).
    """
    from repro.core.arena import HAVE_NUMPY, arena_hash_any, flatten_corpus

    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    nodes = sum(e.size for e in corpus)
    arena, _roots = flatten_corpus(corpus)
    scalar_s = _best_of(lambda: arena_hash_any(arena, kernel="scalar"), repeats)
    cell = {
        "items": n_items,
        "nodes": nodes,
        "unique_arena_nodes": len(arena),
        "numpy": HAVE_NUMPY,
        "scalar_s": round(scalar_s, 4),
    }
    if HAVE_NUMPY:
        vec_s = _best_of(lambda: arena_hash_any(arena, kernel="vec"), repeats)
        cell["vec_s"] = round(vec_s, 4)
        cell["vec_speedup"] = round(scalar_s / vec_s, 3) if vec_s else None
        cell["identical"] = arena_hash_any(arena, kernel="vec") == arena_hash_any(
            arena, kernel="scalar"
        )
    return cell


def sharded_cell(
    n_items: int, item_size: int, num_shards: int, repeats: int
) -> dict:
    corpus = make_corpus(n_items, item_size, seed=7)
    nodes = sum(e.size for e in corpus)
    flat_s = _best_of(lambda: ExprStore().intern_many(corpus), repeats)
    sharded_s = _best_of(
        lambda: ShardedExprStore(num_shards=num_shards).intern_many(corpus),
        repeats,
    )
    probe = ShardedExprStore(num_shards=num_shards)
    probe.intern_many(corpus)
    per_shard = probe.shard_stats()
    sizes = probe.shard_sizes()
    balance = (max(sizes) / (sum(sizes) / len(sizes))) if sum(sizes) else 1.0
    return {
        "items": n_items,
        "nodes": nodes,
        "num_shards": num_shards,
        "flat_intern_s": round(flat_s, 4),
        "sharded_intern_s": round(sharded_s, 4),
        "striping_overhead": (
            round(sharded_s / flat_s, 3) if flat_s else None
        ),
        "entries": len(probe),
        "shard_sizes": sizes,
        "max_over_mean_occupancy": round(balance, 3),
        "stats_conserved": (
            sum(s.hits for s in per_shard) == probe.stats.hits
            and sum(s.misses for s in per_shard) == probe.stats.misses
        ),
    }


def cluster_cell(n_items: int, item_size: int, repeats: int) -> dict:
    """Coordinator-routing overhead vs a directly-addressed node.

    Everything runs on localhost in this process (threaded HTTP
    servers), so the ratio isolates what the coordinator *adds*: one
    extra hop, the chunk fan-out/reassembly, and the two-phase intern's
    hash-then-route.  Bit-identity and stats conservation are gates,
    not just observations.
    """
    from repro.cluster import ClusterCoordinator
    from repro.service import ReproServer, ServiceClient

    corpus = make_corpus(n_items, item_size, seed=7)
    nodes = sum(e.size for e in corpus)
    direct = ReproServer(port=0).start()
    shard0 = ReproServer(port=0, shard_id=0, shard_count=2).start()
    shard1 = ReproServer(port=0, shard_id=1, shard_count=2).start()
    coordinator = ClusterCoordinator(
        [shard0.url, shard1.url], port=0
    ).start()
    try:
        direct_client = ServiceClient(direct.url, timeout=300.0)
        cluster_client = ServiceClient(coordinator.url, timeout=300.0)
        reference = direct_client.hash_corpus(corpus)
        routed = cluster_client.hash_corpus(corpus)
        direct_s = _best_of(
            lambda: direct_client.hash_corpus(corpus), repeats
        )
        routed_s = _best_of(
            lambda: cluster_client.hash_corpus(corpus), repeats
        )
        intern_s = _best_of(
            lambda: cluster_client.intern_many(corpus), repeats
        )
        stats = cluster_client.stats()
        conserved = stats["entries"] == sum(
            shard["entries"] for shard in stats["shards"]
        ) and all(
            total == sum(s["store"].get(key, 0) for s in stats["shards"])
            for key, total in stats["store"].items()
        )
        return {
            "items": n_items,
            "nodes": nodes,
            "shard_count": 2,
            "direct_hash_s": round(direct_s, 4),
            "cluster_hash_s": round(routed_s, 4),
            "routing_overhead": (
                round(routed_s / direct_s, 3) if direct_s else None
            ),
            "cluster_intern_s": round(intern_s, 4),
            "identical": routed == reference,
            "entries": stats["entries"],
            "shard_entries": [s["entries"] for s in stats["shards"]],
            "stats_conserved": conserved,
        }
    finally:
        coordinator.close()
        for server in (direct, shard0, shard1):
            server.close()


ALL_CELLS = ("store", "arena", "vec", "sharded", "cluster")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=None,
        help="trajectory file to write (default BENCH_PR<n>.json)",
    )
    parser.add_argument(
        "--pr", type=int, default=7, help="PR number stamped on the record"
    )
    parser.add_argument(
        "--cells",
        nargs="*",
        choices=ALL_CELLS,
        default=None,
        help="cells to run (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized corpora (seconds)"
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    out_path = args.out or f"BENCH_PR{args.pr}.json"
    cells = tuple(args.cells) if args.cells else ALL_CELLS

    if args.quick:
        store_shape = (40, 200)
        arena_shape = (1500, 60)
        shard_shape = (300, 120)
        cluster_shape = (300, 60)
    else:
        store_shape = (60, 400)
        arena_shape = (10_000, 60)
        shard_shape = (1_000, 120)
        cluster_shape = (1_000, 60)

    record = {
        "schema": "repro-bench-trajectory-v1",
        "pr": args.pr,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": available_cpus(),
        },
        "cells": {},
    }
    if "store" in cells:
        print(
            f"store cell ({store_shape[0]} items x {store_shape[1]} nodes)..."
        )
        record["cells"]["store"] = store_cell(*store_shape, args.repeats)
        print(f"  {json.dumps(record['cells']['store'])}")

    if "arena" in cells:
        print(
            f"arena cell ({arena_shape[0]} items x {arena_shape[1]} nodes)..."
        )
        record["cells"]["arena"] = arena_cell(*arena_shape, args.repeats)
        print(f"  {json.dumps(record['cells']['arena'])}")

    if "vec" in cells:
        print(f"vec cell ({arena_shape[0]} items x {arena_shape[1]} nodes)...")
        record["cells"]["vec"] = vec_cell(*arena_shape, args.repeats)
        print(f"  {json.dumps(record['cells']['vec'])}")

    if "sharded" in cells:
        print(
            f"sharded cell ({shard_shape[0]} items x {shard_shape[1]} nodes)..."
        )
        record["cells"]["sharded"] = sharded_cell(
            *shard_shape, 8, args.repeats
        )
        print(f"  {json.dumps(record['cells']['sharded'])}")

    if "cluster" in cells:
        print(
            f"cluster cell ({cluster_shape[0]} items x "
            f"{cluster_shape[1]} nodes, 2 shard nodes)..."
        )
        record["cells"]["cluster"] = cluster_cell(
            *cluster_shape, args.repeats
        )
        print(f"  {json.dumps(record['cells']['cluster'])}")

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    if not record["cells"].get("arena", {"identical": True})["identical"]:
        print("FAIL: arena kernel hashes diverged from the tree path")
        return 1
    if not record["cells"].get("vec", {}).get("identical", True):
        print("FAIL: vectorized kernel hashes diverged from the scalar kernel")
        return 1
    if not record["cells"].get("sharded", {"stats_conserved": True})[
        "stats_conserved"
    ]:
        print("FAIL: sharded stats not conserved across shards")
        return 1
    cluster_record = record["cells"].get("cluster")
    if cluster_record is not None:
        if not cluster_record["identical"]:
            print("FAIL: cluster-routed hashes diverged from the direct node")
            return 1
        if not cluster_record["stats_conserved"]:
            print("FAIL: folded cluster stats not conserved across shards")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
