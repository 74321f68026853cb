"""A hash-consed expression store keyed by alpha-hashes.

The paper's O(n log n) alpha-hash (Section 5) annotates every
subexpression with a code that is equal iff the subtrees are
alpha-equivalent -- exactly the key a content-addressed store needs.
:class:`ExprStore` builds on that in two layers:

* **Canonical entries.**  Interning an expression assigns every
  alpha-equivalence class of its subexpressions one integer node id and
  one canonical representative tree whose children are themselves
  canonical (a maximally-shared DAG).  ``\\x. x+7`` and ``\\y. y+7``
  intern to the same id.

* **Summary memo.**  Hashing is memoised per subtree *object*: the store
  remembers each node's hashed e-summary (structure hash, free-variable
  map, top hash), so a corpus that repeats or overlaps subtrees -- shared
  objects across corpus items, or the off-path subtrees a rewrite leaves
  untouched -- is hashed once, not once per occurrence.  The memoised
  summary is enough to *resume* hashing mid-tree: a parent containing an
  already-seen subtree merges the cached free-variable map upward without
  revisiting the subtree.  The single-expression verbs (:meth:`~ExprStore.
  hash_expr`, :meth:`~ExprStore.hashes`, :meth:`~ExprStore.intern`) run
  on it; streaming edits and the rewrite apps lean on its warmth.

* **Batch path.**  :meth:`~ExprStore.compile_corpus` flattens a whole
  corpus into one array arena and runs the arena kernel over it
  (:mod:`repro.store.arena_intern`); ``engine="auto"`` picks the
  vectorized kernel from :data:`repro.core.arena.VEC_MIN_NODES` corpus
  nodes up, the scalar kernel below.  The result is an
  :class:`~repro.store.arena_intern.ArenaBatch` the caller holds:
  ``batch.hashes`` are the root hashes, and ``intern_many(batch)``
  interns it without compiling again.  :meth:`~ExprStore.hash_corpus`
  and :meth:`~ExprStore.intern_many` over plain corpora compile
  internally.  The store keeps nothing of a batch.

Soundness is the paper's: equal alpha-hash == alpha-equivalent, up to
hash collisions (Theorem 6.7 bounds these below ~n/2^61 at the default
64-bit width).  A cheap structural guard (kind and size must match on
every intern hit) turns the astronomically-unlikely collision into a
loud :class:`StoreCollisionError` instead of silent conflation.

Two capacity modes:

* **eviction-free** (``max_entries=None``) -- entries live forever;
* **LRU-bounded** (``max_entries=N``) -- least-recently-used root
  entries are evicted once the table exceeds ``N``; entries still
  referenced as children of live entries are pinned.  The summary memo
  is flushed wholesale when it exceeds ``memo_limit`` objects.

Long-lived consumers (the streaming edit sessions of
:mod:`repro.api.stream`, most notably) can additionally :meth:`~ExprStore.pin`
individual classes: a pinned entry is never an eviction victim, and
neither are its descendants (children of live entries carry a positive
refcount).  Pins are counted, so overlapping sessions compose; they are
in-memory state and do not survive snapshots.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.core.arena import choose_kernel
from repro.core.combiners import HashCombiners, default_combiners
from repro.core.hashed import AlphaHashes
from repro.core.kernel import MemoRecord, summarise_tree
from repro.core.position_tree import pt_here_hash
from repro.core.statshape import StatsDictMixin
from repro.core.structure import svar_hash
from repro.core.varmap import HashedVarMap
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.traversal import preorder
from repro.store.arena_intern import ArenaBatch, compile_batch, intern_batch

__all__ = ["ExprStore", "StoreEntry", "StoreStats", "StoreCollisionError"]


class StoreCollisionError(RuntimeError):
    """Two non-alpha-equivalent subtrees produced the same alpha-hash.

    At the default 64-bit width this fires with probability ~n^3/2^61
    over the store's lifetime (Theorem 6.8); at the small widths of
    Appendix B it is expected.  Re-seed or widen the combiner family.
    """


@dataclass(repr=False)
class StoreStats(StatsDictMixin):
    """Cache accounting for one :class:`ExprStore`.

    Node-granularity counters (the hashing layer):

    * ``hashed_nodes`` -- nodes summarised from scratch;
    * ``memo_hits`` -- subtree roots served from the summary memo;
    * ``memo_skipped_nodes`` -- total nodes under those roots (work the
      memo avoided).

    Class-granularity counters (the intern table):

    * ``hits`` -- interned subtrees whose equivalence class already had
      a canonical entry;
    * ``misses`` -- fresh canonical entries created;
    * ``evictions`` -- entries dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    memo_hits: int = 0
    hashed_nodes: int = 0
    memo_skipped_nodes: int = 0
    evictions: int = 0

    _stats_properties = ("hit_rate", "intern_hit_rate", "touched_nodes")

    @property
    def hit_rate(self) -> float:
        """Fraction of node visits served by the summary memo."""
        total = self.hashed_nodes + self.memo_skipped_nodes
        return self.memo_skipped_nodes / total if total else 0.0

    @property
    def intern_hit_rate(self) -> float:
        """Fraction of interned subtrees that hit an existing class."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def touched_nodes(self) -> int:
        """Nodes actually summarised (same key as ``ReplaceStats``)."""
        return self.hashed_nodes


@dataclass
class StoreEntry:
    """One canonical node: an alpha-equivalence class representative.

    ``children`` are node ids of canonical children; ``expr`` is the
    canonical representative tree (its subtrees are the canonical
    representatives of the child entries, so entries form a DAG).
    ``refcount`` counts parent entries referencing this one -- the LRU
    mode only evicts entries with ``refcount == 0``.  ``version`` is the
    store's monotonic intern stamp at creation time: entry ``version``
    values are unique and strictly increasing in creation order, which
    is what incremental snapshot deltas
    (:func:`repro.store.snapshot.delta_to_bytes`) select on, through the
    store's version index.
    """

    node_id: int
    hash: int
    kind: str
    size: int
    children: tuple[int, ...]
    expr: Expr
    refcount: int = 0
    version: int = 0


# The record class moved to repro.core.kernel in PR 4 (the shared
# summarise loop creates it); the old private name stays importable for
# the snapshot codec and the sharded store.
_MemoRecord = MemoRecord


class ExprStore:
    """Intern expressions modulo alpha-equivalence; memoise their hashes.

    >>> store = ExprStore()
    >>> a = store.intern(parse(r"\\x. x + 7"))
    >>> b = store.intern(parse(r"\\y. y + 7"))   # alpha-equivalent copy
    >>> a == b                                    # same canonical class
    True
    >>> store.stats.hits >= 1                     # intern-table hits
    True

    Parameters
    ----------
    combiners:
        Hash-combiner family; defaults to the shared 64-bit fixed-seed
        family, so two default stores agree on every hash.
    max_entries:
        ``None`` for the eviction-free mode; an integer bounds the
        canonical-entry table with LRU eviction of unreferenced entries.
    memo_limit:
        Cap on the per-object summary memo (defaults to unbounded in
        eviction-free mode, ``64 * max_entries`` in LRU mode); when
        exceeded the memo is flushed wholesale.  Only the single-
        expression verbs fill the memo; the batch verbs leave it as
        they found it, so bounded and unbounded stores take one batch
        path.
    """

    def __init__(
        self,
        combiners: Optional[HashCombiners] = None,
        max_entries: Optional[int] = None,
        memo_limit: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.combiners = combiners if combiners is not None else default_combiners()
        self.max_entries = max_entries
        if memo_limit is None and max_entries is not None:
            memo_limit = 64 * max_entries
        self.memo_limit = memo_limit
        self.stats = StoreStats()

        self._here = pt_here_hash(self.combiners)
        self._svar = svar_hash(self.combiners)
        self._var_entry_cache: dict[str, int] = {}
        self._lit_cache: dict[tuple[type, object], int] = {}
        #: id(node) -> cached summary; holds a strong ref to the node.
        self._memo: dict[int, _MemoRecord] = {}
        #: node_id -> entry, in LRU order (oldest first).
        self._entries: "OrderedDict[int, StoreEntry]" = OrderedDict()
        #: alpha-hash -> node_id.
        self._by_hash: dict[int, int] = {}
        #: node_id -> pin count; pinned classes are never LRU victims.
        self._pinned: dict[int, int] = {}
        self._next_id = 0
        #: Monotonic intern stamp: +1 per canonical entry ever created
        #: (never reused, never decremented -- evictions leave gaps).
        #: ``delta_to_bytes(store, since)`` ships exactly the live
        #: entries with ``entry.version > since`` as a summary-free
        #: ``repro-store-delta-v2`` document; replicas track the
        #: primary's counter through snapshots and deltas.
        self.version = 0
        #: The version index: ``(entry.version, node_id)`` of every
        #: admitted entry as two parallel lists, so the entries after a
        #: stamp are a bisect plus a tail walk (``_entries`` is in LRU
        #: order, not creation order).  Evicted ids stay until
        #: :meth:`_compact_versions`; loaders and delta application
        #: admit out of version order and clear ``_versions_sorted``.
        self._versions: list[int] = []
        self._version_ids: list[int] = []
        self._versions_sorted = True

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live canonical entries."""
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def entry(self, node_id: int) -> StoreEntry:
        """The canonical entry for ``node_id`` (touches LRU recency)."""
        entry = self._entries[node_id]
        self._entries.move_to_end(node_id)
        return entry

    def expr_of(self, node_id: int) -> Expr:
        """Canonical representative tree of the class ``node_id``."""
        return self.entry(node_id).expr

    def hash_of(self, node_id: int) -> int:
        """The alpha-hash keying the class ``node_id``."""
        return self.entry(node_id).hash

    def size_of(self, node_id: int) -> int:
        """Node count of any member of the class ``node_id``."""
        return self.entry(node_id).size

    def lookup_hash(self, hash_value: int) -> Optional[int]:
        """Node id of the class with this alpha-hash, if interned."""
        return self._by_hash.get(hash_value)

    def entries(self) -> Iterator[StoreEntry]:
        """All live entries, least-recently-used first."""
        return iter(list(self._entries.values()))

    # -- pinning ---------------------------------------------------------------

    def pin(self, node_id: int) -> None:
        """Exempt the class ``node_id`` from LRU eviction.

        Pins are counted (a class pinned twice needs two unpins) and
        protect the whole canonical subtree: descendants of a live entry
        already carry a positive refcount, so only roots need pinning.
        Raises ``KeyError`` if the class is not (or no longer) live --
        callers that may race eviction should re-intern first.
        """
        if node_id not in self:
            raise KeyError(node_id)
        self._pinned[node_id] = self._pinned.get(node_id, 0) + 1

    def unpin(self, node_id: int) -> bool:
        """Drop one pin from ``node_id``; ``True`` if a pin was held.

        Forgiving on unknown ids (a crashed session may unpin classes
        that were never successfully pinned)."""
        count = self._pinned.get(node_id)
        if count is None:
            return False
        if count <= 1:
            del self._pinned[node_id]
        else:
            self._pinned[node_id] = count - 1
        return True

    def is_pinned(self, node_id: int) -> bool:
        return node_id in self._pinned

    @property
    def pinned_count(self) -> int:
        """Number of distinct pinned classes."""
        return len(self._pinned)

    def cached_summary(
        self, node: Expr
    ) -> Optional[tuple[int, HashedVarMap, int]]:
        """``(structure_hash, owned varmap copy, top_hash)`` for a subtree
        object this store has hashed before, else ``None``.

        The returned map is an independent copy: callers (the incremental
        hasher's ancestor re-summarise, most notably) may consume it
        destructively.
        """
        rec = self._memo.get(id(node))
        if rec is None:
            return None
        return rec.s_hash, HashedVarMap(dict(rec.vm_entries), rec.vm_hash), rec.top

    def cached_top(self, node: Expr) -> Optional[int]:
        """The memoised top-level alpha-hash of ``node``, if any."""
        rec = self._memo.get(id(node))
        return None if rec is None else rec.top

    def clear_memo(self) -> None:
        """Drop the per-object summary memo (canonical entries survive).

        Only the single-expression verbs fill the memo; the batch verbs
        keep nothing of their input, so there is nothing else to drop.
        """
        self._memo.clear()

    def prune_memo(self, roots: Iterable[Expr]) -> int:
        """Drop memo records unreachable from ``roots``; return the count.

        The memo pins every expression object it has summarised, so
        long-running rewrite loops (CSE most notably) call this between
        rounds with the current program as the root: dead spines from
        earlier rounds are released while everything still in the program
        stays warm.  Reachability is closed over children, which
        preserves the record-implies-full-subtree-coverage invariant the
        resume-above-cached-roots optimisation relies on.  The batch
        verbs add no records, so only single-expression work is pruned.
        """
        keep: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if id(node) in keep:
                continue
            keep.add(id(node))
            stack.extend(node.children())
        before = len(self._memo)
        self._memo = {
            key: rec for key, rec in self._memo.items() if key in keep
        }
        return before - len(self._memo)

    def resolve_combiners(
        self, combiners: Optional[HashCombiners]
    ) -> HashCombiners:
        """The effective combiner family for a consumer attached to this
        store: the store's own, after checking that any explicitly
        requested family agrees with it (same bits and seed)."""
        if combiners is not None and (
            combiners.bits != self.combiners.bits
            or combiners.seed != self.combiners.seed
        ):
            raise ValueError(
                "combiners disagree with the attached store's family"
            )
        return self.combiners

    # -- hashing (memoised) ----------------------------------------------------

    def hash_expr(self, expr: Expr) -> int:
        """The root alpha-hash of ``expr``, reusing every cached subtree."""
        top = self._hash_tree(expr).top
        self._maybe_flush_memo()
        return top

    def compile_corpus(
        self, exprs: Iterable[Expr], engine: str = "auto"
    ) -> ArenaBatch:
        """Flatten a corpus into one arena and hash every unique node.

        Returns the :class:`~repro.store.arena_intern.ArenaBatch` the
        caller holds: ``batch.hashes`` are the root alpha-hashes
        (bit-identical to :meth:`hash_expr`), and
        ``intern_many(batch)`` interns the corpus without compiling it
        again.  ``engine`` picks the kernel: ``"auto"`` (default) runs
        the vectorized kernel from :data:`repro.core.arena.VEC_MIN_NODES`
        corpus nodes up when NumPy is importable, the scalar kernel
        below; ``"arena-vec"`` / ``"arena-scalar"`` pin one.
        ``stats.hashed_nodes`` counts the unique arena nodes and
        ``memo_skipped_nodes`` the repeats flatten collapsed.
        """
        corpus = exprs if isinstance(exprs, list) else list(exprs)
        walked = sum(expr.size for expr in corpus)
        batch = compile_batch(
            corpus, self.combiners, choose_kernel(engine, walked)
        )
        unique = len(batch.arena)
        self.stats.hashed_nodes += unique
        self.stats.memo_skipped_nodes += walked - unique
        return batch

    def hash_corpus(self, exprs: Iterable[Expr], engine: str = "auto") -> list[int]:
        """Root alpha-hashes of a corpus.

        Items the summary memo already knows (the store hashed them
        through :meth:`hash_expr`, or loaded them from a snapshot) are
        answered from it; the rest go through one
        :meth:`compile_corpus`.  ``engine`` is as there.
        """
        corpus = exprs if isinstance(exprs, list) else list(exprs)
        results = [self.cached_top(expr) for expr in corpus]
        pending = []
        for expr, top in zip(corpus, results):
            if top is None:
                pending.append(expr)
            else:
                self.stats.memo_hits += 1
                self.stats.memo_skipped_nodes += expr.size
        fresh = iter(self.compile_corpus(pending, engine).hashes)
        return [next(fresh) if top is None else top for top in results]

    def hashes(self, expr: Expr) -> AlphaHashes:
        """An :class:`AlphaHashes` view over ``expr`` computed through the
        memo -- a drop-in replacement for
        :func:`repro.core.hashed.alpha_hash_all` for equivalence-class
        clients that rehash overlapping trees repeatedly."""
        self._hash_tree(expr)
        memo = self._memo
        by_id: dict[int, int] = {}
        for node in preorder(expr):
            rec = memo.get(id(node))
            if rec is None:  # pragma: no cover - coverage-invariant breach
                # Defensive: never hand out a partial view.
                from repro.core.hashed import alpha_hash_all

                return alpha_hash_all(expr, self.combiners)
            by_id[id(node)] = rec.top
        self._maybe_flush_memo()
        return AlphaHashes(expr, self.combiners, by_id)

    def _hash_tree(self, expr: Expr) -> _MemoRecord:
        """Summarise ``expr`` bottom-up, skipping memoised subtrees.

        Delegates to the shared :func:`repro.core.kernel.summarise_tree`
        loop (the same one :func:`repro.core.hashed.alpha_hash_all`
        runs, so hashes agree bit-for-bit) with the memo hooks enabled:
        the walk (a) resumes from cached summaries and (b) snapshots
        every node's map into the memo -- the same one-copy-per-node
        cost the Section 6.3 incremental hasher pays, bought back many
        times over on corpus reuse.
        """
        memo = self._memo
        root = memo.get(id(expr))
        if root is not None:
            self.stats.memo_hits += 1
            self.stats.memo_skipped_nodes += expr.size
            return root

        summarise_tree(
            expr,
            self.combiners,
            here=self._here,
            svar=self._svar,
            var_entry_cache=self._var_entry_cache,
            lit_cache=self._lit_cache,
            memo=memo,
            store_stats=self.stats,
        )
        return memo[id(expr)]

    def _maybe_flush_memo(self) -> None:
        """Wholesale memo flush at public-operation boundaries.

        Never called mid-operation: :meth:`intern` reads every node's
        record right after hashing.  The memo is a pure cache, so losing
        warmth is the only cost of a flush.
        """
        if self.memo_limit is not None and len(self._memo) > self.memo_limit:
            self._memo.clear()

    # -- persistence -----------------------------------------------------------

    def save(self, path: str, meta: Optional[dict] = None) -> None:
        """Snapshot this store to ``path`` (intern table + summary memo).

        See :mod:`repro.store.snapshot` for the versioned, checksummed
        JSON-lines format; ``meta`` rides along in the header.
        """
        from repro.store.snapshot import write_snapshot

        write_snapshot(self, path, meta)

    @classmethod
    def load(cls, path: str) -> "ExprStore":
        """Rebuild a store saved with :meth:`save` (fully warm)."""
        from repro.store.snapshot import read_snapshot

        store, _header = read_snapshot(path)
        return store

    # -- interning -------------------------------------------------------------

    def intern(self, expr: Expr) -> int:
        """Intern ``expr``, returning the node id of its class.

        Every subexpression of ``expr`` is interned along the way; two
        alpha-equivalent subtrees (within one call or across calls) map
        to the same id.
        """
        self._hash_tree(expr)
        memo = self._memo
        ids: list[int] = []
        stack: list[tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, visited = stack.pop()
            rec = memo[id(node)]
            if not visited:
                if rec.node_id is not None and rec.node_id in self._entries:
                    self._entries.move_to_end(rec.node_id)
                    self.stats.hits += 1
                    ids.append(rec.node_id)
                    continue
                stack.append((node, True))
                for child in reversed(node.children()):
                    stack.append((child, False))
                continue

            arity = len(node.children())
            kid_ids = tuple(ids[len(ids) - arity :]) if arity else ()
            if arity:
                del ids[len(ids) - arity :]
            rec.node_id = self._intern_one(node, rec, kid_ids)
            ids.append(rec.node_id)
        assert len(ids) == 1
        # Evict only once the whole tree is interned: children created
        # moments ago must not vanish before their parent references them.
        self._evict_if_needed(protect=ids[0])
        self._maybe_flush_memo()
        return ids[0]

    def intern_many(
        self, exprs: "Iterable[Expr] | ArenaBatch", engine: str = "auto"
    ) -> list[int]:
        """Batch :meth:`intern`: one id per input, duplicates collapse.

        ``exprs`` is a corpus, which is compiled here exactly as
        :meth:`compile_corpus` would (``engine`` as there), or a batch
        that :meth:`compile_corpus` already returned, which is interned
        as it is.  Every unique subtree class is resolved against the
        intern table directly -- same classes, hashes and ids as
        per-item :meth:`intern`, with ``hits``/``misses`` counted per
        unique class instead of per occurrence (see
        :mod:`repro.store.arena_intern`).  LRU-bounded stores enforce
        their bound once at the end of the batch (arena child links
        need every class live mid-batch), so the table may transiently
        exceed ``max_entries`` by the batch's unique-class count.
        """
        if isinstance(exprs, ArenaBatch):
            batch = exprs
            self.resolve_combiners(batch.combiners)
        else:
            batch = self.compile_corpus(exprs, engine)
        if not batch.roots:
            return []
        return intern_batch(self, batch)

    def _intern_one(
        self, node: Expr, rec: _MemoRecord, kid_ids: tuple[int, ...]
    ) -> int:
        existing = self._by_hash.get(rec.top)
        if existing is not None:
            entry = self._entries[existing]
            if entry.kind != node.kind or entry.size != node.size:
                raise StoreCollisionError(
                    f"alpha-hash 0x{rec.top:x} maps both a {entry.kind} of "
                    f"size {entry.size} and a {node.kind} of size {node.size}"
                )
            self._entries.move_to_end(existing)
            self.stats.hits += 1
            return existing

        canonical = self._canonical_expr(node, kid_ids)
        node_id = self._next_id
        self._next_id += 1
        self.version += 1
        for kid in kid_ids:
            self._entries[kid].refcount += 1
        self._admit(
            StoreEntry(
                node_id=node_id,
                hash=rec.top,
                kind=node.kind,
                size=node.size,
                children=kid_ids,
                expr=canonical,
                version=self.version,
            )
        )
        self.stats.misses += 1
        # The canonical tree is made of canonical subtrees, so hashing it
        # later can be a pure memo hit: seed its summary from this one.
        # Only when the memo still covers every canonical child, though --
        # a record must always imply full-subtree coverage (hashing and
        # interning resume above cached roots without descending), and a
        # flush may have dropped the children's records.
        if id(canonical) not in self._memo and all(
            id(self._entries[kid].expr) in self._memo for kid in kid_ids
        ):
            self._memo[id(canonical)] = _MemoRecord(
                canonical, rec.s_hash, dict(rec.vm_entries), rec.vm_hash, rec.top
            )
            self._memo[id(canonical)].node_id = node_id
        return node_id

    def merge_store(self, other: "ExprStore") -> dict[int, int]:
        """Fold every canonical class of ``other`` into this store.

        Returns the id remapping ``{other_node_id: self_node_id}``.
        Interning the canonical representatives largest-first lets the
        smaller classes resolve as memo/intern hits inside the larger
        trees; hashes are preserved bit-for-bit, ids are re-assigned by
        this store.  ``other`` is not modified.  (The sharded store
        inherits this as-is -- ``self.intern`` is the override point
        that routes every class through its lock-striped shards; the
        service's snapshot-upload endpoint merges client stores through
        it.)
        """
        self.resolve_combiners(other.combiners)
        mapping: dict[int, int] = {}
        for entry in sorted(
            other.entries(), key=lambda e: e.size, reverse=True
        ):
            mapping[entry.node_id] = self.intern(entry.expr)
        return mapping

    def _get_entry(self, node_id: int) -> Optional[StoreEntry]:
        """Entry lookup without LRU side effects, ``None`` if not live
        (overridable storage hook)."""
        return self._entries.get(node_id)

    def _admit(self, entry: StoreEntry) -> None:
        """Insert a new live entry: the table, its hash key, the id
        high-water mark and the version index.

        Every canonical entry enters through here -- interning, bulk
        interning, both snapshot loaders and delta application.  Child
        refcounts and hit/miss counters stay with the callers.
        """
        self._entries[entry.node_id] = entry
        self._by_hash[entry.hash] = entry.node_id
        self._next_id = max(self._next_id, entry.node_id + 1)
        self._index_version(entry)

    def _index_version(self, entry: StoreEntry) -> None:
        versions = self._versions
        if versions and entry.version <= versions[-1]:
            self._versions_sorted = False
        versions.append(entry.version)
        self._version_ids.append(entry.node_id)

    def _entries_since(self, since: int) -> list[StoreEntry]:
        """The live entries with ``version > since``, in version order.

        A bisect into the version index plus a walk of its tail: the
        cost follows the window, not the store.  A slot whose id was
        evicted (or re-admitted under another stamp) is skipped.
        """
        if not self._versions_sorted:
            self._compact_versions()
        start = bisect_right(self._versions, since)
        fresh = []
        for version, node_id in zip(
            self._versions[start:], self._version_ids[start:]
        ):
            entry = self._get_entry(node_id)
            if entry is not None and entry.version == version:
                fresh.append(entry)
        return fresh

    def _compact_versions(self) -> None:
        """Rebuild the version index from its live slots, sorted and
        without repeats (an entry evicted on a replica can be
        re-admitted by an overlapping delta).  Stamps are unique, so
        keying by stamp drops the repeats; only stamp-0 entries (from
        snapshots older than stamps) collapse, and no delta ships them.
        """
        live = {
            version: node_id
            for version, node_id in zip(self._versions, self._version_ids)
            if (entry := self._get_entry(node_id)) is not None
            and entry.version == version
        }
        self._versions = sorted(live)
        self._version_ids = [live[version] for version in self._versions]
        self._versions_sorted = True

    def _bound_version_index(self) -> None:
        """Called after each eviction pass: compact once evicted slots
        outnumber live ones, so an LRU store's index stays within 2x
        its live entries."""
        if len(self._version_ids) > 2 * len(self):
            self._compact_versions()

    def _canonical_expr(self, node: Expr, kid_ids: tuple[int, ...]) -> Expr:
        if isinstance(node, (Var, Lit)):
            return node
        kids = tuple(self._get_entry(kid).expr for kid in kid_ids)
        if isinstance(node, Lam):
            return Lam(node.binder, kids[0])
        if isinstance(node, App):
            return App(kids[0], kids[1])
        assert isinstance(node, Let)
        return Let(node.binder, kids[0], kids[1])

    # -- eviction --------------------------------------------------------------

    def _evict_if_needed(self, protect: Optional[int] = None) -> None:
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            victim = None
            for node_id, entry in self._entries.items():
                if (
                    entry.refcount == 0
                    and node_id != protect
                    and node_id not in self._pinned
                ):
                    victim = node_id
                    break
            if victim is None:
                # Every remaining entry is either the protected fresh root,
                # pinned by a session, or referenced by a live parent; the
                # table cannot shrink further without breaking child links.
                break
            entry = self._entries.pop(victim)
            del self._by_hash[entry.hash]
            for kid in entry.children:
                self._entries[kid].refcount -= 1
            rec = self._memo.get(id(entry.expr))
            if rec is not None:
                rec.node_id = None
            self.stats.evictions += 1
        self._bound_version_index()
