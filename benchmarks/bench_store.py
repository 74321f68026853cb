"""Store benchmark: corpus re-hashing through :class:`ExprStore`.

The store's claim: a corpus whose items repeat and overlap (shared
subtree objects -- what any hash-consing pipeline produces, and what CSE
rounds leave behind after spine-only rewrites) is hashed once per unique
subtree, not once per occurrence.  This harness builds such a corpus
(>= 50% duplicate items by construction) and compares

* **fresh** -- an :func:`alpha_hash_all` pass per corpus item, the
  pre-store behaviour;
* **store (cold)** -- one memoised :meth:`ExprStore.hash_expr` per item
  over the same corpus with an empty store;
* **store (warm)** -- the same loop again, everything memoised.

Run under pytest-benchmark like the rest of the suite, or standalone as
a CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_store.py --smoke [--workers N]

which fails loudly (exit 1) unless the cold store pass beats the fresh
passes, the cache hit-rate is > 0, and the parallel engine (a) returns
hashes bit-identical to the serial path and (b) -- on machines with
enough CPUs for the question to make sense -- beats the serial path by
the expected margin (>= 1.8x for 4 workers on >= 4 CPUs, >= 1.2x for 2
workers on >= 2 CPUs; on fewer CPUs the run is marked
``"cpu_bound": true``, reported, and skipped -- not failed -- because
no engine can parallelise past the hardware).

``--arena-items N`` adds the arena-kernel gate (the PR-4 acceptance
bar): on an ``N``-item duplicate-free corpus the arena batch path
(``ExprStore.hash_corpus``) must be bit-identical to the memoised
per-item ``hash_expr`` loop and >= 2x faster, single worker --
unlike the parallel floors this gate has no CPU-count caveat, since
one worker is one worker on any host.  ``--json-out`` appends the
measured cells to a JSON trajectory file (see
``benchmarks/run_bench.py``).
"""

from __future__ import annotations

import os
import random
import tempfile
from typing import Optional

from repro.api import Session
from repro.core.cpus import available_cpus
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Expr
from repro.store import ExprStore, parallel_hash_corpus

#: Fraction of corpus items that repeat or recombine earlier items.
DUP_FRACTION = 0.6

#: The arena gate: the arena batch path must beat the memoised per-item
#: tree walk by this factor on the smoke corpus, single worker (PR-4
#: acceptance bar).
ARENA_SMOKE_FLOOR = 2.0

#: The vec gate: the vectorized kernel must beat the scalar kernel by
#: this factor on the same arena (PR-6 acceptance bar).  Single-threaded
#: by construction, so -- unlike the parallel floors -- it holds on any
#: host shape; it is only skipped when NumPy is not importable.
VEC_SMOKE_FLOOR = 2.0


def make_corpus(
    n_items: int, item_size: int, dup_fraction: float = DUP_FRACTION, seed: int = 42
) -> list[Expr]:
    """A corpus with ``dup_fraction`` duplicate/overlapping items.

    Duplicates reuse earlier items as shared objects -- half verbatim,
    half recombined under a fresh ``App`` so overlap (not just repetition)
    is exercised.  The rest are fresh random expressions in the
    Section 7.1 families.
    """
    rng = random.Random(seed)
    pool: list[Expr] = []
    for _ in range(n_items):
        if pool and rng.random() < dup_fraction:
            if rng.random() < 0.5:
                expr: Expr = rng.choice(pool)
            else:
                expr = App(rng.choice(pool), rng.choice(pool))
        else:
            expr = random_expr(
                item_size,
                rng=rng,
                shape=rng.choice(("balanced", "unbalanced")),
                p_let=0.3,
                p_lit=0.1,
            )
        pool.append(expr)
    return pool


def fresh_hash_corpus(corpus: list[Expr]) -> list[int]:
    """The pre-store behaviour: one full hashing pass per item."""
    return [alpha_hash_all(expr).root_hash for expr in corpus]


def memo_hash_corpus(store: ExprStore, corpus: list[Expr]) -> list[int]:
    """The store's memoised tree walk, one ``hash_expr`` per item."""
    return [store.hash_expr(expr) for expr in corpus]


# ---------------------------------------------------------------------------
# pytest-benchmark cells
# ---------------------------------------------------------------------------

_N_ITEMS = 60
_ITEM_SIZE = 400


def _bench_corpus() -> list[Expr]:
    return make_corpus(_N_ITEMS, _ITEM_SIZE)


def test_fresh_rehash(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)
    benchmark.pedantic(
        fresh_hash_corpus, args=(corpus,), rounds=3, iterations=1, warmup_rounds=1
    )


def test_store_rehash_cold(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)

    def cold():
        return memo_hash_corpus(ExprStore(), corpus)

    benchmark.pedantic(cold, rounds=3, iterations=1, warmup_rounds=1)
    stats = ExprStore()
    memo_hash_corpus(stats, corpus)
    benchmark.extra_info["hit_rate"] = round(stats.stats.hit_rate, 4)


def test_store_rehash_warm(benchmark):
    corpus = _bench_corpus()
    store = ExprStore()
    memo_hash_corpus(store, corpus)
    benchmark.pedantic(
        memo_hash_corpus,
        args=(store, corpus),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )


def test_session_rehash_cold(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)

    def cold():
        return Session().hash_corpus(corpus)

    benchmark.pedantic(cold, rounds=3, iterations=1, warmup_rounds=1)


def test_session_snapshot_reload(benchmark):
    """Load-from-snapshot vs re-hashing: the cross-process reuse path."""
    corpus = _bench_corpus()
    session = Session()
    session.intern_many(corpus)
    handle, path = tempfile.mkstemp(suffix=".snap")
    os.close(handle)
    try:
        session.save(path)
        benchmark.extra_info["snapshot_bytes"] = os.path.getsize(path)
        benchmark.pedantic(
            Session.load, args=(path,), rounds=3, iterations=1, warmup_rounds=1
        )
    finally:
        os.unlink(path)


def test_store_matches_fresh():
    corpus = _bench_corpus()
    assert memo_hash_corpus(ExprStore(), corpus) == fresh_hash_corpus(corpus)
    assert Session().hash_corpus(corpus) == fresh_hash_corpus(corpus)


def test_parallel_rehash(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)
    benchmark.extra_info["workers"] = 2
    benchmark.pedantic(
        parallel_hash_corpus,
        args=(corpus,),
        kwargs={"workers": 2},
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )


def test_parallel_matches_serial():
    corpus = _bench_corpus()
    assert parallel_hash_corpus(corpus, workers=2) == fresh_hash_corpus(corpus)


def test_arena_rehash_cold(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)

    def cold():
        return ExprStore().hash_corpus(corpus)

    benchmark.pedantic(cold, rounds=3, iterations=1, warmup_rounds=1)


def test_arena_matches_tree():
    corpus = _bench_corpus()
    assert ExprStore().hash_corpus(corpus) == fresh_hash_corpus(corpus)


# ---------------------------------------------------------------------------
# standalone smoke gate (CI)
# ---------------------------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def smoke(n_items: int, item_size: int, repeats: int) -> int:
    corpus = make_corpus(n_items, item_size)
    total_nodes = sum(e.size for e in corpus)

    expected = fresh_hash_corpus(corpus)
    if memo_hash_corpus(ExprStore(), corpus) != expected:
        print("FAIL: store hashes disagree with fresh AlphaHashes passes")
        return 1

    # The per-item hash_expr loop throughout: this gate protects the
    # memoised tree walk (the PR-1 claim); the arena batch path has its
    # own gate below.
    fresh_time = _best_of(lambda: fresh_hash_corpus(corpus), repeats)
    cold_time = _best_of(
        lambda: memo_hash_corpus(ExprStore(), corpus), repeats
    )
    warm_store = ExprStore()
    memo_hash_corpus(warm_store, corpus)
    warm_time = _best_of(
        lambda: memo_hash_corpus(warm_store, corpus), repeats
    )

    probe = ExprStore()
    memo_hash_corpus(probe, corpus)
    hit_rate = probe.stats.hit_rate

    print(
        f"corpus: {n_items} items, {total_nodes} nodes "
        f"({DUP_FRACTION:.0%} duplicate/overlapping items)"
    )
    print(
        f"fresh {fresh_time * 1e3:8.1f} ms   "
        f"store cold {cold_time * 1e3:8.1f} ms ({fresh_time / cold_time:.2f}x)   "
        f"store warm {warm_time * 1e3:8.1f} ms"
    )
    print(f"cache hit-rate {hit_rate:.1%}  stats {probe.stats}")

    ok = True
    if not cold_time < fresh_time:
        print("FAIL: cold store pass not faster than fresh passes")
        ok = False
    if not hit_rate > 0:
        print("FAIL: cache hit-rate is zero")
        ok = False

    # Session snapshot round-trip: a corpus hashed once must reload with
    # bit-identical root hashes and a store that already knows every class.
    session = Session()
    roots = session.hash_corpus(corpus)
    session.intern_many(corpus)
    handle, path = tempfile.mkstemp(suffix=".snap")
    os.close(handle)
    try:
        session.save(path)
        loaded = Session.load(path)
        if loaded.store.stats.as_dict() != session.store.stats.as_dict():
            print("FAIL: snapshot did not round-trip the store stats")
            ok = False
        if loaded.hash_corpus(corpus) != roots:
            print("FAIL: snapshot reload changed root hashes")
            ok = False
        elif any(loaded.store.lookup_hash(h) is None for h in roots):
            print("FAIL: reloaded store is missing interned classes")
            ok = False
        else:
            print(
                f"snapshot round-trip ok ({os.path.getsize(path)} bytes, "
                f"{len(loaded.store)} entries)"
            )
    finally:
        if os.path.exists(path):
            os.unlink(path)

    if ok:
        print("OK: store beats fresh re-hashing with a warm cache")
    return 0 if ok else 1


def required_speedup(workers: int, cpus: int) -> Optional[float]:
    """The honest parallel gate for this machine.

    A pool cannot beat the hardware: with ``c`` CPUs the best case for
    ``w`` workers is ``min(w, c)``x minus fork/IPC overhead.  We gate at
    1.8x for 4+ workers on 4+ CPUs (the PR-3 acceptance bar) and 1.2x
    for 2 workers on 2+ CPUs (the CI runner shape); on a single CPU the
    timing is reported but not gated.
    """
    effective = min(workers, cpus)
    if effective >= 4:
        return 1.8
    if effective >= 2:
        return 1.2
    return None


def arena_smoke(n_items: int, item_size: int, repeats: int) -> tuple[int, dict]:
    """Memoised tree walk vs arena batch path: bit-identity always,
    >= 2x always.

    Single worker on a duplicate-free corpus, so -- unlike the parallel
    floors -- the gate holds on any host shape: the win comes from
    array-indexed memo structure and flatten-time dedup, not from extra
    CPUs.
    """
    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    total_nodes = sum(e.size for e in corpus)

    tree_hashes = memo_hash_corpus(ExprStore(), corpus)
    arena_hashes = ExprStore().hash_corpus(corpus)
    tree_time = _best_of(
        lambda: memo_hash_corpus(ExprStore(), corpus), repeats
    )
    arena_time = _best_of(lambda: ExprStore().hash_corpus(corpus), repeats)
    speedup = tree_time / arena_time if arena_time else float("inf")
    cell = {
        "items": n_items,
        "nodes": total_nodes,
        "tree_s": round(tree_time, 4),
        "arena_s": round(arena_time, 4),
        "speedup": round(speedup, 3),
        "required_speedup": ARENA_SMOKE_FLOOR,
        "identical": arena_hashes == tree_hashes,
    }
    print(f"arena corpus: {n_items} items, {total_nodes} nodes, 1 worker")
    print(
        f"tree {tree_time * 1e3:8.1f} ms   "
        f"arena {arena_time * 1e3:8.1f} ms   ({speedup:.2f}x)"
    )
    if not cell["identical"]:
        print("FAIL: arena kernel hashes diverge from the tree path")
        return 1, cell
    print(f"arena hashes bit-identical to the tree path over {n_items} items")
    if speedup < ARENA_SMOKE_FLOOR:
        print(
            f"FAIL: arena speedup {speedup:.2f}x below the "
            f"{ARENA_SMOKE_FLOOR:.1f}x floor (single worker)"
        )
        return 1, cell
    print(f"OK: arena speedup {speedup:.2f}x >= {ARENA_SMOKE_FLOOR:.1f}x floor")
    return 0, cell


def vec_smoke(n_items: int, item_size: int, repeats: int) -> tuple[int, dict]:
    """Vectorized vs scalar arena kernel: bit-identity always, >= 2x gate.

    Both kernels hash the *same* flattened arena (flatten cost is
    excluded -- the cell times the kernels alone).  Without NumPy the
    cell reports the scalar time and skips the gate honestly.
    """
    from repro.core.arena import HAVE_NUMPY, arena_hash_any, flatten_corpus

    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    total_nodes = sum(e.size for e in corpus)
    arena, _roots = flatten_corpus(corpus)
    scalar_time = _best_of(
        lambda: arena_hash_any(arena, kernel="scalar"), repeats
    )
    cell = {
        "items": n_items,
        "nodes": total_nodes,
        "unique_arena_nodes": len(arena),
        "numpy": HAVE_NUMPY,
        "scalar_s": round(scalar_time, 4),
    }
    print(
        f"vec corpus: {n_items} items, {total_nodes} nodes "
        f"({len(arena)} unique arena nodes)"
    )
    if not HAVE_NUMPY:
        print("SKIP: NumPy not importable -- scalar time reported, not gated")
        return 0, cell
    vec_time = _best_of(lambda: arena_hash_any(arena, kernel="vec"), repeats)
    speedup = scalar_time / vec_time if vec_time else float("inf")
    cell["vec_s"] = round(vec_time, 4)
    cell["speedup"] = round(speedup, 3)
    cell["required_speedup"] = VEC_SMOKE_FLOOR
    cell["identical"] = arena_hash_any(arena, kernel="vec") == arena_hash_any(
        arena, kernel="scalar"
    )
    print(
        f"scalar {scalar_time * 1e3:8.1f} ms   "
        f"vec {vec_time * 1e3:8.1f} ms   ({speedup:.2f}x)"
    )
    if not cell["identical"]:
        print("FAIL: vectorized kernel hashes diverge from the scalar kernel")
        return 1, cell
    print(f"vec hashes bit-identical to the scalar kernel over {n_items} items")
    if speedup < VEC_SMOKE_FLOOR:
        print(
            f"FAIL: vec speedup {speedup:.2f}x below the "
            f"{VEC_SMOKE_FLOOR:.1f}x floor (single worker)"
        )
        return 1, cell
    print(f"OK: vec speedup {speedup:.2f}x >= {VEC_SMOKE_FLOOR:.1f}x floor")
    return 0, cell


def parallel_smoke(
    n_items: int, item_size: int, workers: int, repeats: int
) -> tuple[int, dict]:
    """Serial-vs-parallel corpus cell: returns (exit_code, measurements).

    The corpus is duplicate-free: flatten collapses repeats before
    fanning out, so duplicates would measure the dedup, not the
    workers.
    """
    cpus = available_cpus()
    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    total_nodes = sum(e.size for e in corpus)

    def parallel_once():
        # A fresh session per timing keeps the store memo cold; closing
        # it releases the session-owned worker pool each round.
        with Session(workers=workers) as session:
            return session.hash_corpus(corpus)

    serial_time = _best_of(lambda: Session().hash_corpus(corpus), repeats)
    serial_hashes = Session().hash_corpus(corpus)

    par_time = _best_of(parallel_once, repeats)
    par_hashes = parallel_once()

    speedup = serial_time / par_time if par_time else float("inf")
    cell = {
        "items": n_items,
        "nodes": total_nodes,
        "workers": workers,
        "cpus": cpus,
        "serial_s": round(serial_time, 4),
        "parallel_s": round(par_time, 4),
        "speedup": round(speedup, 3),
        "identical": par_hashes == serial_hashes,
        # More workers than CPUs: the run measures the hardware ceiling,
        # not the engine -- the gate below skips (never fails) it.
        "cpu_bound": workers > cpus,
    }
    print(
        f"parallel corpus: {n_items} items, {total_nodes} nodes, "
        f"{workers} workers on {cpus} CPU(s)"
    )
    print(
        f"serial {serial_time * 1e3:8.1f} ms   "
        f"parallel {par_time * 1e3:8.1f} ms   ({speedup:.2f}x)"
    )

    if not cell["identical"]:
        print("FAIL: parallel hashes diverge from the serial path")
        return 1, cell
    print(f"parallel hashes bit-identical to serial over {n_items} items")
    # cpu_bound runs are skipped outright -- their speedup measures the
    # hardware ceiling, not the engine -- so the floor only ever gates a
    # run with one CPU per worker.
    floor = None if cell["cpu_bound"] else required_speedup(workers, cpus)
    cell["required_speedup"] = floor
    if cell["cpu_bound"]:
        print(
            f"SKIP: cpu_bound run ({workers} workers on {cpus} CPU(s)) -- "
            "speedup reported, not gated (no engine can parallelise past "
            "the hardware)"
        )
        return 0, cell
    if floor is None:
        print(
            f"note: {workers} worker(s) -- too few for a speedup floor; "
            "reported, not gated"
        )
        return 0, cell
    if speedup < floor:
        print(
            f"FAIL: parallel speedup {speedup:.2f}x below the {floor:.1f}x "
            f"floor for {workers} workers on {cpus} CPUs"
        )
        return 1, cell
    print(f"OK: parallel speedup {speedup:.2f}x >= {floor:.1f}x floor")
    return 0, cell


def main(argv=None) -> int:
    import argparse
    import json
    import platform

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="quick pass/fail perf gate"
    )
    parser.add_argument("--items", type=int, default=60)
    parser.add_argument("--item-size", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="pool size for the parallel corpus cell (0 disables the cell)",
    )
    parser.add_argument(
        "--par-items",
        type=int,
        default=10_000,
        help="corpus items for the parallel cell",
    )
    parser.add_argument(
        "--par-item-size",
        type=int,
        default=60,
        help="nodes per item for the parallel cell",
    )
    parser.add_argument(
        "--arena-items",
        type=int,
        default=0,
        help="corpus items for the arena-kernel gate (0 disables the cell)",
    )
    parser.add_argument(
        "--arena-item-size",
        type=int,
        default=60,
        help="nodes per item for the arena cell",
    )
    parser.add_argument(
        "--vec-items",
        type=int,
        default=0,
        help="corpus items for the vec-kernel gate (0 disables the cell)",
    )
    parser.add_argument(
        "--vec-item-size",
        type=int,
        default=60,
        help="nodes per item for the vec cell",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write the measured cells as a JSON trajectory record",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run under pytest for full benchmarks, or pass --smoke")
    status = smoke(args.items, args.item_size, args.repeats)
    record = {
        "schema": "repro-bench-trajectory-v1",
        "bench": "bench_store",
        "python": platform.python_version(),
        "cpus": available_cpus(),
    }
    if args.workers:
        par_status, cell = parallel_smoke(
            args.par_items, args.par_item_size, args.workers, args.repeats
        )
        status = status or par_status
        record["parallel"] = cell
    if args.arena_items:
        arena_status, cell = arena_smoke(
            args.arena_items, args.arena_item_size, args.repeats
        )
        status = status or arena_status
        record["arena"] = cell
    if args.vec_items:
        vec_status, cell = vec_smoke(
            args.vec_items, args.vec_item_size, args.repeats
        )
        status = status or vec_status
        record["vec"] = cell
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote trajectory record to {args.json_out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
