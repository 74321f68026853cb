"""Parallel corpus hashing: fan a corpus out over one process pool.

The corpus workload is embarrassingly parallel -- each expression's
alpha-hash is a pure function of the tree and the combiner family -- so
:func:`parallel_hash_corpus` compiles a corpus into one arena, hashes
deterministic chunks of it in worker processes, and reassembles the
results by input position.  The result is **bit-identical** to the
serial path: same combiners, same per-expression hash, same order.

Engine design notes
-------------------

* **Arena chunks.**  The parent compiles the corpus into one
  :class:`~repro.core.arena.ExprArena` (flatten-time dedup collapses
  repeated items) and fans out *index ranges over the unique roots*;
  each worker hashes the downward closure of its roots with the arena
  kernel :func:`~repro.core.arena.choose_kernel` picked for the corpus
  size -- scalar below :data:`~repro.core.arena.VEC_MIN_NODES` nodes,
  vectorized from there when NumPy is importable.

* **Zero-copy shipping.**  Arenas are a handful of flat arrays.  Workers
  attach the columns from one shared-memory segment
  (:func:`~repro.core.arena_shm.share_arena`), so a task carries only an
  attach recipe and its roots -- under any start method and at any
  expression depth.

* **Deterministic chunking.**  Chunk boundaries depend only on the
  number of unique roots and the worker count -- never on timing --
  and results are placed by index, so the output permutation-merges
  identically on every run.

* **Store cooperation.**  When the caller owns a store, its cached
  root hashes are consulted before fanning out (a warm corpus never
  leaves the parent), and the arena work is counted in the store's
  stats.

* **One pool.**  :class:`WorkerPool` is a long-lived
  :class:`~concurrent.futures.ProcessPoolExecutor` on multiprocessing's
  default start method.  A :class:`~repro.api.Session` owns one per
  worker count and reuses it across batches; a poolless call opens a
  temporary one.

What to expect: the flatten runs serially in the parent and is most
of a batch (about 89% on the 600k-node benchmark corpus), so fanning
out the kernel alone is bounded near 1.1x by Amdahl's law, and on a
2-CPU host every measured corpus ran slower in the pool than serially
(see the README's "Scaling" section).  Interning always runs serially:
the arena bulk intern beats any worker-table merge.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Optional

from repro.core.arena import arena_hash_any, choose_kernel
from repro.core.combiners import HashCombiners, default_combiners
from repro.core.cpus import available_cpus
from repro.lang.expr import Expr
from repro.store.store import ExprStore

__all__ = [
    "parallel_hash_corpus",
    "resolve_workers",
    "WorkerPool",
]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request: ``None``/``0`` means one worker
    per *available* CPU (affinity/cgroup aware -- see
    :func:`repro.core.cpus.available_cpus`); negatives are rejected."""
    if workers is None or workers == 0:
        return available_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _chunk_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into up to ``n_chunks`` near-even spans.

    Purely arithmetic -- the same inputs always produce the same spans,
    which is half of the engine's determinism guarantee (the other half
    is placing results by index).
    """
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    ranges = []
    start = 0
    for i in range(n_chunks):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _shm_arena_tops(payload) -> list[int]:
    """Worker task: attach the shared-memory arena, hash one chunk.

    The payload carries only an attach recipe (segment name + leaf
    tables) and the chunk's roots; the columns themselves are mapped
    zero-copy from the parent's segment.
    """
    from repro.core.arena_shm import attach_arena_cached

    meta, roots, bits, seed, kernel = payload
    arena = attach_arena_cached(meta)
    tops = arena_hash_any(
        arena, HashCombiners(bits=bits, seed=seed), only=roots, kernel=kernel
    )
    return [tops[r] for r in roots]


def parallel_hash_corpus(
    exprs: Iterable[Expr],
    combiners: Optional[HashCombiners] = None,
    workers: Optional[int] = None,
    store: Optional[ExprStore] = None,
    chunks_per_worker: int = 4,
    engine: str = "auto",
    pool: Optional[WorkerPool] = None,
) -> list[int]:
    """Root alpha-hashes of a corpus, computed by a worker pool.

    Bit-identical to hashing the same corpus serially with the same
    ``combiners`` (hashing is a pure function; results are reassembled
    by input position).  See the module docstring for the engine design.

    Parameters
    ----------
    exprs:
        The corpus.  Materialised once; order defines the output order.
    combiners:
        Combiner family; taken from ``store`` when one is given,
        defaulting to the shared fixed-seed family.
    workers:
        Pool size; ``None``/``0`` means one per CPU.  ``1`` short-cuts
        to the serial path (through ``store`` when given).
    store:
        Optional parent-side store: already-cached items are answered
        locally, and the arena work is counted in ``store.stats``.
    chunks_per_worker:
        Fan-out granularity (more chunks -> better balance, more IPC).
    engine:
        Arena kernel choice, as for
        :meth:`~repro.store.ExprStore.hash_corpus`: ``"auto"`` picks by
        corpus size (:func:`~repro.core.arena.choose_kernel`),
        ``"arena-vec"`` / ``"arena-scalar"`` pin a kernel.
    pool:
        An optional long-lived :class:`WorkerPool` to run on; without
        one, a temporary pool is opened for the call and closed after.
    """
    from repro.core.arena_shm import share_arena
    from repro.store.arena_intern import hash_corpus_arena

    corpus = list(exprs)
    n_workers = resolve_workers(workers)
    if store is not None:
        combiners = store.resolve_combiners(combiners)
    elif combiners is None:
        combiners = default_combiners()

    if n_workers <= 1 or len(corpus) <= 1:
        if store is not None:
            return store.hash_corpus(corpus, engine=engine)
        return ExprStore(combiners).hash_corpus(corpus, engine=engine)

    kernel = choose_kernel(engine, sum(expr.size for expr in corpus))

    def fanout(arena, uroots):
        # Compiled once in the parent; workers hash the downward closure
        # of their roots.  Results are keyed by arena root index, which
        # the hash_corpus_arena epilogue maps back to corpus positions.
        spans = _chunk_ranges(len(uroots), n_workers * chunks_per_worker)
        if len(spans) <= 1:
            tops = arena_hash_any(arena, combiners, kernel=kernel)
            return {root: tops[root] for root in uroots}

        handle = share_arena(arena)
        try:
            meta = handle.meta()
            payloads = [
                (meta, uroots[start:stop], combiners.bits, combiners.seed,
                 kernel)
                for start, stop in spans
            ]
            if pool is not None:
                span_results = pool.map(_shm_arena_tops, payloads)
            else:
                with WorkerPool(min(n_workers, len(spans))) as temporary:
                    span_results = temporary.map(_shm_arena_tops, payloads)
        finally:
            # The parent owns the segment: unlink unconditionally,
            # including when a dead worker broke the pool mid-batch.
            handle.close_unlink()

        out = {}
        for (start, stop), tops_list in zip(spans, span_results):
            for position, top in zip(range(start, stop), tops_list):
                out[uroots[position]] = top
        return out

    return hash_corpus_arena(store, corpus, combiners=combiners, fanout=fanout)


class WorkerPool:
    """A long-lived process pool reused across ``parallel_*`` calls.

    Owned by a :class:`~repro.api.Session` (or used standalone as a
    context manager); the underlying pool is created lazily on first
    use and survives until :meth:`close`, amortising the per-call
    process start-up cost.  Tasks reach the workers through pickled
    payloads only, so the pool is agnostic to when it was created.

    The pool is a :class:`concurrent.futures.ProcessPoolExecutor` on
    multiprocessing's default start method rather than a
    ``multiprocessing.Pool``: a worker that dies mid-batch raises
    :class:`~concurrent.futures.process.BrokenProcessPool` (a clean
    error -- ``Pool.map`` would hang), the broken executor is discarded
    so the *next* call transparently gets a fresh pool, and
    ``concurrent.futures`` drains its workers through an interpreter
    atexit hook, so a never-closed pool (a dropped, un-``close()``\\ d
    Session) cannot leave orphaned children past interpreter exit.  The
    GC finalizer additionally drains the pool as soon as the owner is
    collected.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self._pool = None
        self._finalizer = None

    def _ensure(self):
        if self._pool is None:
            # The finalizer drains worker processes as soon as an
            # un-closed WorkerPool (e.g. a one-shot Session never
            # close()d) is garbage-collected; close() detaches it and
            # shuts down cleanly instead.  shutdown(wait=False) is safe
            # from a finalizer/atexit context: it signals the workers
            # and lets concurrent.futures' own exit hook join them.
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._finalizer = weakref.finalize(self, pool.shutdown, False)
            self._pool = pool
        return self._pool

    def map(self, fn, payloads) -> list:
        try:
            return list(self._ensure().map(fn, payloads))
        except BrokenProcessPool:
            # A worker died mid-batch.  Drop the broken executor so the
            # next call starts a fresh pool, then let the caller see
            # the error (its finally blocks release shared resources).
            self.close()
            raise

    @property
    def started(self) -> bool:
        return self._pool is not None

    def close(self) -> None:
        pool = self._pool
        self._pool = None
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
