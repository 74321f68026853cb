"""Structure sharing / hash-consing (Sections 1, 2.2, 2.3).

Represent "all occurrences of the same subexpression by a pointer to a
single shared tree".  Two flavours:

* :func:`share_syntactic` -- classic hash-consing on *syntactic*
  equality ("perfect for structure sharing", Section 2.2).  The unique
  table memoises node constructors, exactly as Section 2.3 describes.
* :func:`share_alpha` -- sharing modulo *alpha*-equivalence, the
  stronger variant Weirich et al. note falls out of a nameless body
  representation; driven by :class:`repro.store.ExprStore`, whose
  canonical entries *are* the shared DAG: every subexpression is
  replaced by the canonical representative of its alpha-equivalence
  class, so ``\\x.x+1`` and ``\\y.y+1`` share.  (The shared tree keeps
  the representative's binder names; that is sound for read-only
  consumers, which is what structure sharing is for.)  Pass a store to
  share across many expressions -- repeated calls reuse its canonical
  table and summary memo.

Both return a :class:`SharingResult` with the DAG root and occupancy
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.apps._session_args import resolve_session
from repro.core.combiners import HashCombiners
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.traversal import postorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Session
    from repro.store import ExprStore

__all__ = ["SharingResult", "share_syntactic", "share_alpha", "share_alpha_corpus"]


@dataclass
class SharingResult:
    """A DAG-ified expression plus sharing statistics.

    ``root`` is semantically identical to the input but subtree objects
    are shared: DAG occupancy is ``unique_nodes`` while the unfolded tree
    still has ``total_nodes``.
    """

    root: Expr
    total_nodes: int
    unique_nodes: int

    @property
    def sharing_ratio(self) -> float:
        """total/unique: >1 means memory was saved."""
        return self.total_nodes / self.unique_nodes if self.unique_nodes else 1.0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SharingResult({self.total_nodes} tree nodes -> "
            f"{self.unique_nodes} DAG nodes, x{self.sharing_ratio:.2f})"
        )


def _dag_size(root: Expr) -> int:
    """Number of *distinct* node objects reachable from ``root``."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children())
    return len(seen)


def share_syntactic(expr: Expr) -> SharingResult:
    """Hash-cons ``expr``: syntactically identical subtrees become one
    object.  Keys are (constructor, payload, child identities), so the
    table is exact -- this is memoising the node constructors, with no
    collision risk to manage."""
    table: dict[tuple, Expr] = {}
    rebuilt: list[Expr] = []
    for node in postorder(expr):
        arity = len(node.children())
        kids = tuple(rebuilt[len(rebuilt) - arity :]) if arity else ()
        if arity:
            del rebuilt[len(rebuilt) - arity :]
        if isinstance(node, Var):
            key: tuple = ("v", node.name)
            fresh: Expr = node
        elif isinstance(node, Lit):
            key = ("c", type(node.value).__name__, node.value)
            fresh = node
        elif isinstance(node, Lam):
            key = ("l", node.binder, id(kids[0]))
            fresh = Lam(node.binder, kids[0])
        elif isinstance(node, App):
            key = ("a", id(kids[0]), id(kids[1]))
            fresh = App(kids[0], kids[1])
        else:
            assert isinstance(node, Let)
            key = ("t", node.binder, id(kids[0]), id(kids[1]))
            fresh = Let(node.binder, kids[0], kids[1])
        canonical = table.get(key)
        if canonical is None:
            canonical = fresh
            table[key] = canonical
        rebuilt.append(canonical)
    root = rebuilt[0]
    return SharingResult(root, expr.size, _dag_size(root))


def share_alpha(
    expr: Expr,
    combiners: Optional[HashCombiners] = None,
    store: Optional["ExprStore"] = None,
    session: Optional["Session"] = None,
) -> SharingResult:
    """Share subtrees modulo alpha-equivalence using the paper's hash.

    Every subexpression is replaced by the canonical representative of
    its alpha-equivalence class (first occurrence in postorder), giving
    strictly more sharing than :func:`share_syntactic` whenever the
    expression contains alpha-equivalent-but-not-identical subterms.

    Interning into an :class:`~repro.store.ExprStore` *is* this
    transformation, so the pass is a thin wrapper: a private store per
    call by default, or a caller-supplied one to pool sharing (and hash
    memoisation) across a whole corpus.  Passing a
    :class:`~repro.api.Session` pools through its store (equivalent to
    ``session.share(expr)``).
    """
    combiners, store = resolve_session(session, combiners, store)
    if store is None:
        from repro.store import ExprStore

        store = ExprStore(combiners)
    else:
        store.resolve_combiners(combiners)
    root = store.expr_of(store.intern(expr))
    return SharingResult(root, expr.size, _dag_size(root))


def share_alpha_corpus(
    exprs: list[Expr],
    combiners: Optional[HashCombiners] = None,
    store: Optional["ExprStore"] = None,
    session: Optional["Session"] = None,
    engine: str = "auto",
) -> list[SharingResult]:
    """Batch :func:`share_alpha`: one result per input, one shared pool.

    Equivalent to calling :func:`share_alpha` per item against one
    store, but the corpus is interned in a single batch through the
    store's arena bulk-intern path (one compile, one kernel pass,
    duplicates never re-walked) instead of one tree walk per item.  The canonical DAG is pooled across items:
    sharing spans the whole corpus, exactly as with a shared store.
    """
    combiners, store = resolve_session(session, combiners, store)
    if store is None:
        from repro.store import ExprStore

        store = ExprStore(combiners)
    else:
        store.resolve_combiners(combiners)
    if store.max_entries is not None:
        # An LRU-bounded store may evict early roots (refcount 0)
        # before a batch-then-resolve loop reads them back: share item
        # by item so every root is resolved while it is still pinned.
        return [
            share_alpha(expr, combiners=combiners, store=store)
            for expr in exprs
        ]
    ids = store.intern_many(exprs, engine=engine)
    results = []
    for expr, node_id in zip(exprs, ids):
        root = store.expr_of(node_id)
        results.append(SharingResult(root, expr.size, _dag_size(root)))
    return results
