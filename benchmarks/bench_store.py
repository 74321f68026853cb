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

    PYTHONPATH=src python benchmarks/bench_store.py --smoke

which fails loudly (exit 1) unless the cold store pass beats the fresh
passes and the cache hit-rate is > 0.

``--arena-items N`` adds the arena-kernel gate (the PR-4 acceptance
bar): on an ``N``-item duplicate-free corpus the arena batch path
(``ExprStore.hash_corpus``) must be bit-identical to the memoised
per-item ``hash_expr`` loop and >= 2x faster.  The gate is
single-threaded, so it holds on any host shape.  ``--json-out`` appends the
measured cells to a JSON trajectory file (see
``benchmarks/run_bench.py``).
"""

from __future__ import annotations

import os
import random
import tempfile

from repro.api import Session
from repro.core.cpus import available_cpus
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Expr
from repro.store import ExprStore

#: Fraction of corpus items that repeat or recombine earlier items.
DUP_FRACTION = 0.6

#: The arena gate: the arena batch path must beat the memoised per-item
#: tree walk by this factor on the smoke corpus (PR-4 acceptance bar).
ARENA_SMOKE_FLOOR = 2.0

#: The vec gate: the vectorized kernel must beat the scalar kernel by
#: this factor on the same arena (PR-6 acceptance bar).  Single-threaded
#: by construction, so it holds on any host shape; it is only skipped
#: when NumPy is not importable.
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


def arena_smoke(n_items: int, item_size: int, repeats: int) -> tuple[int, dict]:
    """Memoised tree walk vs arena batch path: bit-identity always,
    >= 2x always.

    Single-threaded on a duplicate-free corpus, so the gate holds on any
    host shape: the win comes from array-indexed memo structure and
    flatten-time dedup, not from extra CPUs.
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
    print(f"arena corpus: {n_items} items, {total_nodes} nodes")
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
            f"{ARENA_SMOKE_FLOOR:.1f}x floor"
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
            f"{VEC_SMOKE_FLOOR:.1f}x floor"
        )
        return 1, cell
    print(f"OK: vec speedup {speedup:.2f}x >= {VEC_SMOKE_FLOOR:.1f}x floor")
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
