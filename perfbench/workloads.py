"""Seeded inputs for the four benchmark workloads.

Every input is a pure function of ``(seed, index)``: the load
generator builds its requests from these functions, and the oracle
workers rebuild the very same inputs from the same arguments instead of
receiving them over a pipe.  ``random.Random`` seeded with a string is
stable across processes and Python runs (it hashes the string with
SHA-512, not with the salted ``hash()``).

Items are "fresh" by construction: every generated item ends in a
literal that is unique within the run, so no two generated items are
alpha-equivalent, within a batch or across batches.  The only repeats a
server ever sees are the alpha-renamed copies a workload asks for.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.gen.random_exprs import alpha_rename, random_expr
from repro.lang.expr import App, Expr, Lit
from repro.lang.traversal import preorder_with_paths

#: Nodes per generated item; ``random_expr(ITEM_NODES - 2)`` plus the
#: ``App(_, Lit(uid))`` freshness tag.
ITEM_NODES = 60

# Literal namespaces keep uids of different input streams disjoint.
_NS_WARM = 1
_NS_TIMED = 2
_NS_PRELOAD = 3
_NS_STRIDE = 10_000_000


def _rng(seed: int, *parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed, *parts)))


def fresh_items(seed: int, stream: str, index: int, count: int) -> list[Expr]:
    """``count`` fresh ``ITEM_NODES``-node items of batch ``index`` of
    ``stream`` (``"warm"``, ``"timed"`` or ``"preload"``)."""
    namespace = {"warm": _NS_WARM, "timed": _NS_TIMED, "preload": _NS_PRELOAD}[
        stream
    ]
    rng = _rng(seed, stream, index)
    base = namespace * _NS_STRIDE + index * 10_000
    return [
        App(random_expr(ITEM_NODES - 2, rng=rng), Lit(base + k))
        for k in range(count)
    ]


def renamed(original: Expr, seed: int, index: int, k: int) -> Expr:
    """The alpha-renamed copy of ``original`` used as item ``k`` of
    batch ``index``: same class, different binder names."""
    return alpha_rename(original, seed=(seed % 997) * 1_000_000 + index * 1000 + k)


def mixed_refs(
    seed: int, index: int, count: int, dup_share: float, pool: list
) -> list:
    """Per position of batch ``index``: the reference (drawn from
    ``pool``) of the earlier item it copies, or ``None`` for a fresh
    item.  ``round(count * dup_share)`` positions are copies, shuffled
    among the fresh ones."""
    rng = _rng(seed, "mix", index)
    dups = round(count * dup_share)
    refs: list = [rng.choice(pool) for _ in range(dups)] + [None] * (count - dups)
    rng.shuffle(refs)
    return refs


def build_mixed(
    seed: int, index: int, refs: list, original_of: Callable[[tuple], Expr]
) -> list[Expr]:
    """The batch :func:`mixed_refs` describes: alpha-renamed copies of
    the referenced originals, and ``fresh_items(seed, "timed", index,
    ...)`` in the ``None`` positions."""
    fresh = iter(fresh_items(seed, "timed", index, refs.count(None)))
    return [
        next(fresh) if ref is None else renamed(original_of(ref), seed, index, k)
        for k, ref in enumerate(refs)
    ]


class ItemCache:
    """Resolve ``(stream, index, j)`` references to generated items,
    regenerating (and keeping) whole batches on demand.

    ``batch_sizes`` maps each stream to its items per batch; for
    ``"timed"`` that is the fresh-item count of a mixed batch.
    """

    def __init__(self, seed: int, batch_sizes: dict):
        self.seed = seed
        self.batch_sizes = batch_sizes
        self._batches: dict[tuple, list] = {}

    def __call__(self, ref: tuple) -> Expr:
        stream, index, j = ref
        batch = self._batches.get((stream, index))
        if batch is None:
            batch = fresh_items(self.seed, stream, index, self.batch_sizes[stream])
            self._batches[(stream, index)] = batch
        return batch[j]


# -- the streaming-session corpus (the session lab's 12 x 8192 corpus) ---------


def session_item(seed: int, item: int, item_nodes: int) -> Expr:
    """Item ``item`` of the session corpus (each item has its own
    stream, so an oracle worker rebuilds one item without the rest)."""
    rng = _rng(seed, "session-corpus", item)
    return random_expr(item_nodes, rng=rng, shape="balanced", p_let=0.1, p_lit=0.1)


def session_corpus(seed: int, items: int, item_nodes: int) -> list[Expr]:
    return [session_item(seed, item, item_nodes) for item in range(items)]


def deep_paths(expr: Expr, min_depth: int) -> list[tuple]:
    """Paths of ``expr`` at spine depth >= ``min_depth`` (the deepest
    decile when the item is too shallow to have any)."""
    every = [path for path, _node in preorder_with_paths(expr)]
    deep = [path for path in every if len(path) >= min_depth]
    if deep:
        return deep
    every.sort(key=len)
    return every[-max(1, len(every) // 10):]


def session_edit(seed: int, index: int, items: int, paths_of, item=None) -> tuple:
    """Edit ``index`` of the stream: ``(item, path, replacement)``.

    The item is drawn from ``range(items)`` unless given;
    ``paths_of(item)`` returns its current deep paths.  The replacement
    is an alpha-renamed random 4-16-node term, with binder names unique
    to this edit.
    """
    rng = _rng(seed, "edit", index)
    drawn = rng.randrange(items)
    item = drawn if item is None else item
    path = rng.choice(paths_of(item))
    replacement = alpha_rename(
        random_expr(rng.randint(4, 16), rng=rng), seed=500_000 + index
    )
    return item, path, replacement
