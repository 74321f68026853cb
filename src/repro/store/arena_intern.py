"""Arena-backed batch paths of the expression store.

A corpus is compiled once into an :class:`ArenaBatch`: the corpus
flattened into one :class:`~repro.core.arena.ExprArena` (duplicates
collapse at flatten time), the arena row of every item's root, and the
kernel's per-node top hashes.  The batch is a value the caller holds;
the store keeps no table of it, so once a batch verb returns the store
can reach nothing the call received.  ``kernel`` is the ``"vec"`` /
``"scalar"`` choice :func:`repro.core.arena.choose_kernel` made for the
corpus size.

* :func:`compile_batch` -- flatten plus kernel.  A pure function of the
  corpus and the combiner family; :meth:`ExprStore.compile_corpus
  <repro.store.ExprStore.compile_corpus>` wraps it and counts the work
  in ``store.stats``.  ``batch.hashes`` are the root alpha-hashes,
  bit-identical to the memoised per-item path.  ``hash_corpus`` first
  answers the items the per-object summary memo already knows (a
  snapshot-loaded or ``hash_expr``-warmed store) and compiles the rest.

* :func:`intern_batch` -- bulk interning.  Every *unique* arena row is
  resolved against the intern table directly: duplicates never reach
  ``_hash_tree``, and a class interned by an earlier batch costs one
  dict probe.  Canonical entries are built fresh from the rows, and
  hashes, ids and refcounts come out exactly as per-item ``intern``
  would produce for the same arrival order; the summary memo is not
  touched, and ``hits``/``misses`` count unique arena nodes rather than
  subtree occurrences.  A caller that needs the hashes before it writes
  (the shard node's ownership check, ``repro session``'s ``known``
  flags, a stream session's root hashes) compiles once and interns that
  batch, so one flatten and one kernel pass serve both.  Flat stores
  take a direct-dict hot loop; sharded stores take a lock-striped
  branch (writers are already serialised by the store's memo lock, but
  every table mutation still happens under the owning shard's lock so
  concurrent readers never see a torn table).  LRU-bounded stores
  enforce their bound once at the end of the batch -- mid-batch
  eviction could invalidate the arena's child-class links -- so the
  table may transiently exceed ``max_entries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.arena import (
    OP_APP,
    OP_LAM,
    OP_LET,
    OP_LIT,
    OP_VAR,
    ExprArena,
    arena_hash_any,
    flatten_corpus,
)
from repro.core.combiners import HashCombiners
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.store import ExprStore

__all__ = ["ArenaBatch", "compile_batch", "intern_batch"]

_KIND_OF_OP = ("Var", "Lit", "Lam", "App", "Let")


@dataclass(frozen=True, eq=False)
class ArenaBatch:
    """One compiled corpus: its arena, each item's root row, and the
    top hash of every row under ``combiners``."""

    arena: ExprArena
    roots: list[int]
    tops: list[int]
    combiners: HashCombiners

    @property
    def hashes(self) -> list[int]:
        """Root alpha-hash of every corpus item, in corpus order."""
        tops = self.tops
        return [tops[root] for root in self.roots]


def compile_batch(
    corpus: Sequence[Expr], combiners: HashCombiners, kernel: str = "scalar"
) -> ArenaBatch:
    """Flatten ``corpus`` into one arena and hash every row."""
    arena, roots = flatten_corpus(corpus)
    tops = arena_hash_any(arena, combiners, kernel=kernel)
    return ArenaBatch(arena, roots, tops, combiners)


def intern_batch(store: "ExprStore", batch: ArenaBatch) -> list[int]:
    """Intern a compiled batch (flat or sharded stores); one id per item."""
    arena, tops = batch.arena, batch.tops
    op = bytes(arena.op)
    left, right = arena.left.tolist(), arena.right.tolist()
    aux, sizes = arena.aux.tolist(), arena.sizes.tolist()
    names, literals = arena.names, arena.literals

    if getattr(store, "_shards", None) is not None:
        class_id = _resolve_sharded(
            store, op, left, right, aux, sizes, names, literals, tops
        )
    else:
        class_id = _resolve_flat(
            store, op, left, right, aux, sizes, names, literals, tops
        )

    # Bounded stores enforce their LRU bound once per batch: evicting
    # mid-loop could drop a class a later arena row links to as a child.
    # Protect the last root, matching the serial path's final state.
    store._evict_if_needed(protect=class_id[batch.roots[-1]])
    return [class_id[root] for root in batch.roots]


def _resolve_flat(
    store: "ExprStore", op, left, right, aux, sizes, names, literals, tops
) -> list[int]:
    """The direct-dict hot loop: one table transaction per unique node."""
    from repro.store.store import StoreCollisionError, StoreEntry

    stats = store.stats
    entries = store._entries
    by_hash = store._by_hash
    admit = store._admit
    class_id = [0] * len(op)

    for i in range(len(op)):
        top = tops[i]
        existing = by_hash.get(top)
        if existing is not None:
            entry = entries[existing]
            kind = _KIND_OF_OP[op[i]]
            if entry.kind != kind or entry.size != sizes[i]:
                raise StoreCollisionError(
                    f"alpha-hash 0x{top:x} maps both a {entry.kind} of "
                    f"size {entry.size} and a {kind} of size {sizes[i]}"
                )
            entries.move_to_end(existing)
            stats.hits += 1
            class_id[i] = existing
            continue

        opc = op[i]
        if opc == OP_VAR:
            canonical: Expr = Var(names[aux[i]])
            kid_ids: tuple[int, ...] = ()
        elif opc == OP_LIT:
            canonical = Lit(literals[aux[i]])
            kid_ids = ()
        elif opc == OP_LAM:
            kid_ids = (class_id[left[i]],)
            canonical = Lam(names[aux[i]], entries[kid_ids[0]].expr)
        elif opc == OP_APP:
            kid_ids = (class_id[left[i]], class_id[right[i]])
            canonical = App(entries[kid_ids[0]].expr, entries[kid_ids[1]].expr)
        else:
            kid_ids = (class_id[left[i]], class_id[right[i]])
            canonical = Let(
                names[aux[i]], entries[kid_ids[0]].expr, entries[kid_ids[1]].expr
            )

        node_id = store._next_id
        store._next_id += 1
        store.version += 1
        admit(
            StoreEntry(
                node_id=node_id,
                hash=top,
                kind=_KIND_OF_OP[opc],
                size=sizes[i],
                children=kid_ids,
                expr=canonical,
                version=store.version,
            )
        )
        for kid in kid_ids:
            entries[kid].refcount += 1
        stats.misses += 1
        class_id[i] = node_id

    return class_id


def _resolve_sharded(
    store, op, left, right, aux, sizes, names, literals, tops
) -> list[int]:
    """Lock-striped resolve for :class:`~repro.store.ShardedExprStore`.

    The caller (``intern_many``) already holds the store's memo lock,
    so this loop is the only writer; shard locks are still taken for
    every mutation (and only one at a time) so lock-free readers on
    other threads observe the same invariants the serial
    ``_intern_one`` path maintains.  Ids come out of the per-shard
    counters (``local * num_shards + shard``), exactly as serial
    interning would assign them.
    """
    from repro.store.store import StoreCollisionError, StoreEntry

    stats = store.stats
    num_shards = store.num_shards
    get_entry = store._get_entry
    class_id = [0] * len(op)

    for i in range(len(op)):
        top = tops[i]
        shard = store._shard_of_hash(top)
        with shard.lock:
            existing = shard.by_hash.get(top)
            if existing is not None:
                entry = shard.entries[existing]
                kind = _KIND_OF_OP[op[i]]
                if entry.kind != kind or entry.size != sizes[i]:
                    raise StoreCollisionError(
                        f"alpha-hash 0x{top:x} maps both a {entry.kind} of "
                        f"size {entry.size} and a {kind} of size {sizes[i]}"
                    )
                shard.entries.move_to_end(existing)
                shard.stats.hits += 1
                stats.hits += 1
                class_id[i] = existing
                continue

        opc = op[i]
        if opc == OP_VAR:
            canonical: Expr = Var(names[aux[i]])
            kid_ids: tuple[int, ...] = ()
        elif opc == OP_LIT:
            canonical = Lit(literals[aux[i]])
            kid_ids = ()
        elif opc == OP_LAM:
            kid_ids = (class_id[left[i]],)
            canonical = Lam(names[aux[i]], get_entry(kid_ids[0]).expr)
        elif opc == OP_APP:
            kid_ids = (class_id[left[i]], class_id[right[i]])
            canonical = App(get_entry(kid_ids[0]).expr, get_entry(kid_ids[1]).expr)
        else:
            kid_ids = (class_id[left[i]], class_id[right[i]])
            canonical = Let(
                names[aux[i]], get_entry(kid_ids[0]).expr, get_entry(kid_ids[1]).expr
            )

        with shard.lock:
            node_id = shard.next_local * num_shards + shard.index
            shard.next_local += 1
            shard.stats.misses += 1
        store.version += 1
        store._admit(
            StoreEntry(
                node_id=node_id,
                hash=top,
                kind=_KIND_OF_OP[opc],
                size=sizes[i],
                children=kid_ids,
                expr=canonical,
                version=store.version,
            )
        )
        stats.misses += 1
        # Child refcounts live in other shards: one lock at a time.
        for kid in kid_ids:
            kid_shard = store._shard_of_id(kid)
            with kid_shard.lock:
                kid_shard.entries[kid].refcount += 1
        class_id[i] = node_id

    return class_id
