"""Parallel corpus hashing: fan a corpus out over worker pools.

The corpus workload is embarrassingly parallel -- each expression's
alpha-hash is a pure function of the tree and the combiner family -- so
:func:`parallel_hash_corpus` compiles a corpus into one arena, hashes
deterministic chunks of it in workers (processes or threads), and
reassembles the results by input position.  The result is
**bit-identical** to the serial path: same combiners, same
per-expression hash, same order.

Engine design notes
-------------------

* **Arena chunks.**  The parent compiles the corpus into one
  :class:`~repro.core.arena.ExprArena` (flatten-time dedup collapses
  repeated items) and fans out *index ranges over the unique roots*;
  each worker hashes the downward closure of its roots with the arena
  kernel :func:`~repro.core.arena.choose_kernel` picked for the corpus
  size -- scalar below :data:`~repro.core.arena.VEC_MIN_NODES` nodes,
  vectorized from there when NumPy is importable.

* **Zero-copy shipping.**  Arenas are a handful of flat arrays.  Process
  workers attach the columns from one shared-memory segment (any start
  method, any expression depth); the poolless fork path publishes the
  arena in module globals instead, since the forked address space is
  already zero-copy.  Thread mode shares the arena directly.

* **Deterministic chunking.**  Chunk boundaries depend only on the
  number of unique roots and the worker count -- never on timing --
  and results are placed by index, so the output permutation-merges
  identically on every run.

* **Store cooperation.**  When the caller owns a store, its cached
  root hashes are consulted before fanning out (a warm corpus never
  leaves the parent), and the arena work is counted in the store's
  stats.  Worker *intern tables* can also be merged back -- see
  :func:`parallel_intern_corpus` -- via the snapshot wire format, which
  serialises iteratively (deep trees survive) and arrives as real
  canonical classes in the parent.

* **Persistent pools.**  :class:`WorkerPool` is a session-owned
  long-lived pool (process or thread) that amortises the per-call
  fork/spawn cost across many ``hash_corpus`` batches; data reaches the
  workers through task payloads, never through fork-inherited globals.

Threads vs processes: CPython's GIL serialises the pure-Python hashing
loops, so ``mode="thread"`` exists for API symmetry, free-threaded
builds and latency-hiding around I/O; CPU-bound corpus hashing wants
a process mode (``"process"`` = fork where available else spawn, or
explicitly ``"fork"`` / ``"spawn"``).
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Optional, Sequence

from repro.core.arena import (
    ArenaMemo,
    ExprArena,
    arena_hash_any,
    choose_kernel,
)
from repro.core.combiners import HashCombiners, default_combiners
from repro.core.cpus import available_cpus
from repro.lang.expr import Expr
from repro.store.store import ExprStore

__all__ = [
    "parallel_hash_corpus",
    "parallel_intern_corpus",
    "resolve_workers",
    "WorkerPool",
    "PARALLEL_MODES",
]

#: Accepted ``mode`` values: ``"process"`` picks fork when the platform
#: has it (falling back to spawn), ``"fork"`` / ``"spawn"`` force one
#: start method, ``"thread"`` uses an in-process pool.
PARALLEL_MODES = ("process", "fork", "spawn", "thread")


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


# -- fork-mode worker state ---------------------------------------------------
#
# Published by the parent immediately before the pool is created and
# inherited by the forked children; cleared afterwards.  The tasks on
# the wire are (start, stop) index pairs only.  _FORK_PUBLISH_LOCK makes
# concurrent parallel_* calls (several threads, or the ROADMAP's async
# sessions) safe: without it, caller B could overwrite the globals
# between caller A's publish and fork, handing A's workers B's corpus.
# Holding it for the pool's lifetime serialises process-mode calls,
# which compete for the same CPUs anyway.

_FORK_PUBLISH_LOCK = threading.Lock()
_FORK_EXPRS: Optional[Sequence[Expr]] = None  # guarded-by: _FORK_PUBLISH_LOCK
_FORK_ARENA: Optional[ExprArena] = None  # guarded-by: _FORK_PUBLISH_LOCK
_FORK_AROOTS: Optional[list] = None  # guarded-by: _FORK_PUBLISH_LOCK
_FORK_BITS = 64  # guarded-by: _FORK_PUBLISH_LOCK
_FORK_SEED: Optional[int] = None  # guarded-by: _FORK_PUBLISH_LOCK
_FORK_KERNEL = "scalar"  # guarded-by: _FORK_PUBLISH_LOCK


def _fork_intern_range(span: tuple[int, int]) -> tuple[list[int], bytes]:
    from repro.store.snapshot import snapshot_to_bytes

    start, stop = span
    assert _FORK_EXPRS is not None, "fork worker started without a corpus"
    combiners = HashCombiners(bits=_FORK_BITS, seed=_FORK_SEED)
    local = ExprStore(combiners)
    roots = local.hash_corpus(_FORK_EXPRS[start:stop])
    local.intern_many(_FORK_EXPRS[start:stop])
    return roots, snapshot_to_bytes(local)


def _fork_arena_range(span: tuple[int, int]) -> list[int]:
    start, stop = span
    assert _FORK_ARENA is not None, "fork worker started without an arena"
    roots = _FORK_AROOTS[start:stop]
    combiners = HashCombiners(bits=_FORK_BITS, seed=_FORK_SEED)
    tops = arena_hash_any(
        _FORK_ARENA, combiners, only=roots, kernel=_FORK_KERNEL
    )
    return [tops[r] for r in roots]


def _shm_arena_tops(payload) -> list[int]:
    """Spawn / persistent-pool task: attach the shared-memory arena.

    The payload carries only an attach recipe (segment name + leaf
    tables) and the chunk's roots; the columns themselves are mapped
    zero-copy from the parent's segment, replacing the per-task arena
    pickle that used to cost O(arena bytes x tasks).  Works under any
    start method and at any expression depth.
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
    mode: str = "process",
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
    mode:
        ``"process"`` (CPU-bound default) or ``"thread"``.
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
        An optional long-lived :class:`WorkerPool` to run on (its mode
        overrides ``mode``).
    """
    corpus = list(exprs)
    if pool is not None:
        mode = pool.mode
    if mode not in PARALLEL_MODES:
        raise ValueError(f"mode must be one of {PARALLEL_MODES}, got {mode!r}")
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
    return _parallel_hash_arena(
        corpus, combiners, n_workers, mode, store, chunks_per_worker, pool,
        kernel=kernel,
    )


def _parallel_hash_arena(
    corpus, combiners, n_workers, mode, store, chunks_per_worker, pool,
    kernel="scalar",
):
    """Compile once in the parent, fan out root spans.

    Workers hash the downward closure of their roots; thread mode
    shares an :class:`~repro.core.arena.ArenaMemo` across chunks (merge
    at batch boundaries), so overlapping closures are summarised once
    per batch instead of once per chunk.  Process modes attach the
    arena's columns from one shared-memory segment (zero-copy; the
    segment is unlinked in a ``finally`` even when a worker dies
    mid-batch), except the poolless fork path, where the forked address
    space is already zero-copy.  Results are keyed by arena root index,
    which the shared
    :func:`~repro.store.arena_intern.hash_corpus_arena` epilogue maps
    back to corpus positions (bit-identical to serial by construction).
    """
    from repro.store.arena_intern import hash_corpus_arena

    def fanout(arena, uroots):
        global _FORK_ARENA, _FORK_AROOTS, _FORK_BITS, _FORK_SEED, _FORK_KERNEL
        context = has_fork = None
        if mode != "thread" and pool is None:
            context, has_fork = _context_for(mode)
        # Shared memory (or the forked address space) makes per-task
        # shipping cost O(roots), so every mode can afford fine chunks.
        spans = _chunk_ranges(len(uroots), n_workers * chunks_per_worker)
        if len(spans) <= 1:
            tops = arena_hash_any(arena, combiners, kernel=kernel)
            return {root: tops[root] for root in uroots}

        if mode == "thread":
            memo = ArenaMemo(len(arena))

            def run(span):
                start, stop = span
                roots = uroots[start:stop]
                tops = arena_hash_any(
                    arena,
                    HashCombiners(bits=combiners.bits, seed=combiners.seed),
                    only=roots,
                    kernel=kernel,
                    memo=memo,
                )
                return [tops[r] for r in roots]

            if pool is not None:
                span_results = pool.map(run, spans)
            else:
                with ThreadPoolExecutor(
                    max_workers=min(n_workers, len(spans))
                ) as executor:
                    span_results = list(executor.map(run, spans))
        elif pool is not None or not has_fork:
            from repro.core.arena_shm import share_arena

            handle = share_arena(arena)
            try:
                meta = handle.meta()
                payloads = [
                    (meta, uroots[start:stop], combiners.bits,
                     combiners.seed, kernel)
                    for start, stop in spans
                ]
                if pool is not None:
                    span_results = pool.map(_shm_arena_tops, payloads)
                else:
                    n_procs = min(n_workers, len(spans))
                    with context.Pool(processes=n_procs) as procs:
                        span_results = procs.map(_shm_arena_tops, payloads)
            finally:
                # The parent owns the segment: unlink unconditionally,
                # including when a dead worker broke the pool mid-batch.
                handle.close_unlink()
        else:
            n_procs = min(n_workers, len(spans))
            with _FORK_PUBLISH_LOCK:
                _FORK_ARENA = arena
                _FORK_AROOTS = uroots
                _FORK_BITS = combiners.bits
                _FORK_SEED = combiners.seed
                _FORK_KERNEL = kernel
                try:
                    with context.Pool(processes=n_procs) as procs:
                        # repro-lint: allow[lock-blocking] reason=publish-to-fork window; the arena globals must stay pinned for the pool's whole lifetime so late-forking workers inherit them
                        span_results = procs.map(_fork_arena_range, spans)
                finally:
                    _FORK_ARENA = None
                    _FORK_AROOTS = None

        out = {}
        for (start, stop), tops_list in zip(spans, span_results):
            for position, top in zip(range(start, stop), tops_list):
                out[uroots[position]] = top
        return out

    return hash_corpus_arena(store, corpus, combiners=combiners, fanout=fanout)


def _pool_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork"), True
    return multiprocessing.get_context("spawn"), False


def _context_for(mode: str):
    """The multiprocessing context for an explicit process ``mode``."""
    import multiprocessing

    if mode == "fork":
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError("mode='fork' is unavailable on this platform")
        return multiprocessing.get_context("fork"), True
    if mode == "spawn":
        return multiprocessing.get_context("spawn"), False
    return _pool_context()


class WorkerPool:
    """A long-lived worker pool reused across ``parallel_*`` calls.

    Owned by a :class:`~repro.api.Session` (or used standalone as a
    context manager); the underlying pool is created lazily on first
    use and survives until :meth:`close`, amortising the per-call
    fork/spawn cost.  Tasks reach the workers through pickled payloads
    only, so the pool is agnostic to when it was created.

    Process mode runs on :class:`concurrent.futures.ProcessPoolExecutor`
    rather than ``multiprocessing.Pool``: a worker that dies mid-batch
    raises :class:`~concurrent.futures.process.BrokenProcessPool` (a
    clean error -- ``Pool.map`` would hang), the broken executor is
    discarded so the *next* call transparently gets a fresh pool, and
    ``concurrent.futures`` drains its workers through an interpreter
    atexit hook, so a never-closed pool (a dropped, un-``close()``\\ d
    Session) cannot leave orphaned children past interpreter exit.  The
    GC finalizer additionally drains the pool as soon as the owner is
    collected.
    """

    def __init__(self, workers: Optional[int] = None, mode: str = "process"):
        if mode not in PARALLEL_MODES:
            raise ValueError(
                f"mode must be one of {PARALLEL_MODES}, got {mode!r}"
            )
        self.workers = resolve_workers(workers)
        self.mode = mode
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
            if self.mode == "thread":
                pool = ThreadPoolExecutor(max_workers=self.workers)
            else:
                from concurrent.futures import ProcessPoolExecutor

                context, _ = _context_for(self.mode)
                pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
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


def parallel_intern_corpus(
    exprs: Iterable[Expr],
    store: ExprStore,
    workers: Optional[int] = None,
    chunks_per_worker: int = 2,
) -> list[int]:
    """Intern a corpus through process workers, merging their tables.

    Workers intern contiguous slices into fresh local stores and ship
    them back over the snapshot wire format (iterative -- deep trees
    survive); the parent folds each worker store into ``store`` (a
    :class:`~repro.store.sharded.ShardedExprStore` merges shard-by-
    shard via ``merge_store``; a flat store interns the canonical
    entries directly) and resolves every input to its node id in the
    parent table.  Node *ids* may differ from a serial
    ``store.intern_many`` -- ids encode arrival order -- but the classes
    and their hashes are bit-identical, which is the store's contract.

    Requires ``fork`` (worker results are bytes, but the corpus itself
    is inherited, never pickled); without it, falls back to the serial
    path.  The win over serial interning scales with the corpus'
    duplication factor: workers dedup their slices in parallel and the
    parent only re-interns each *unique* class once.
    """
    from repro.store.snapshot import snapshot_from_bytes

    global _FORK_EXPRS, _FORK_BITS, _FORK_SEED
    corpus = list(exprs)
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(corpus) <= 1:
        return store.intern_many(corpus)
    context, has_fork = _pool_context()
    if not has_fork:
        return store.intern_many(corpus)

    spans = _chunk_ranges(len(corpus), n_workers * chunks_per_worker)
    with _FORK_PUBLISH_LOCK:
        _FORK_EXPRS = corpus
        _FORK_BITS = store.combiners.bits
        _FORK_SEED = store.combiners.seed
        try:
            with context.Pool(processes=min(n_workers, len(spans))) as pool:
                # repro-lint: allow[lock-blocking] reason=publish-to-fork window; the corpus global must stay pinned until every worker has forked, and overlapping corpus-wide interns are meant to serialize here
                results = pool.map(_fork_intern_range, spans)
        finally:
            _FORK_EXPRS = None

    root_hashes: list[int] = []
    for roots, snapshot_bytes in results:
        worker_store, _header = snapshot_from_bytes(snapshot_bytes)
        store.merge_store(worker_store)
        root_hashes.extend(roots)

    # Spans partition the corpus in order, so root_hashes[i] is corpus[i].
    ids = []
    for index, value in enumerate(root_hashes):
        node_id = store.lookup_hash(value)
        if node_id is None:
            # An LRU-bounded parent may have evicted the class during the
            # merge; re-intern the original to restore the contract.
            node_id = store.intern(corpus[index])
        ids.append(node_id)
    return ids
