"""Hash-consed expression storage built on the paper's alpha-hash.

:class:`ExprStore` interns expressions modulo alpha-equivalence (one
canonical node per class, children stored as node ids) and memoises
hashed e-summaries so repeated and overlapping corpus expressions are
hashed once.  See :mod:`repro.store.store` for the design notes.
"""

from repro.store.arena_intern import hash_corpus_arena, intern_corpus_arena
from repro.store.sharded import DEFAULT_NUM_SHARDS, ShardedExprStore
from repro.store.journal import Journal, JournalError
from repro.store.snapshot import (
    DELTA_FORMAT,
    SHARDED_SNAPSHOT_FORMAT,
    SNAPSHOT_FORMAT,
    SnapshotError,
    apply_delta_bytes,
    content_checksum,
    delta_to_bytes,
    read_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
    write_snapshot,
)
from repro.store.store import (
    ExprStore,
    StoreCollisionError,
    StoreEntry,
    StoreStats,
)

__all__ = [
    "ExprStore",
    "ShardedExprStore",
    "DEFAULT_NUM_SHARDS",
    "StoreCollisionError",
    "StoreEntry",
    "StoreStats",
    "SnapshotError",
    "SNAPSHOT_FORMAT",
    "SHARDED_SNAPSHOT_FORMAT",
    "DELTA_FORMAT",
    "read_snapshot",
    "write_snapshot",
    "snapshot_from_bytes",
    "snapshot_to_bytes",
    "delta_to_bytes",
    "apply_delta_bytes",
    "content_checksum",
    "Journal",
    "JournalError",
    "hash_corpus_arena",
    "intern_corpus_arena",
]
