"""Nothing a request decodes outlives the request.

Each ``/v1/hash`` and ``/v1/intern`` call decodes fresh expression
trees.  After a node has served a run of such batches -- directly, or
as a shard behind a :class:`~repro.cluster.ClusterCoordinator` -- the
only expression objects its store may still reach are the canonical
representatives of its intern table.  A side table keyed by the
objects a request handed in would keep every decoded tree alive for
the life of the process.  Replies must still match ``alpha_hash_all``
and a fresh store fed the same batches.
"""

import gc
import random
import types

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.arena import flatten_corpus
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import alpha_rename, random_expr
from repro.lang.expr import Expr
from repro.lang.sexpr import to_wire
from repro.lang.traversal import preorder
from repro.service import ReproServer, ServiceClient
from repro.store import ExprStore

BATCHES = 4

_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
)


def batches(seed=5, items=30, size=40):
    """``BATCHES`` batches; later ones repeat earlier items alpha-renamed
    (fresh objects, known classes), so the intern hit path runs too."""
    rng = random.Random(seed)
    seen: list[Expr] = []
    out = []
    for _ in range(BATCHES):
        batch = []
        for _ in range(items):
            if seen and rng.random() < 0.4:
                source = rng.choice(seen)
                batch.append(alpha_rename(source, seed=rng.randrange(1 << 16)))
            else:
                expr = random_expr(size, rng=rng, p_let=0.2, p_lit=0.2)
                seen.append(expr)
                batch.append(expr)
        out.append(batch)
    return out


def reachable_exprs(store) -> dict[int, Expr]:
    """Every expression object reachable from ``store``'s object graph
    (without walking into classes, modules or functions)."""
    found: dict[int, Expr] = {}
    seen: set[int] = set()
    stack = [store]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, Expr):
            found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return found


def canonical_exprs(store) -> set[int]:
    return {
        id(node) for entry in store.entries() for node in preorder(entry.expr)
    }


def assert_holds_no_request_tree(store) -> None:
    stray = set(reachable_exprs(store)) - canonical_exprs(store)
    assert not stray, f"the store still reaches {len(stray)} decoded nodes"
    assert store._memo == {}


def expected_ids(parts) -> list[list[int]]:
    reference = ExprStore()
    return [reference.intern_many(part) for part in parts]


class TestRequestScope:
    def test_plain_node(self):
        work = batches()
        with ReproServer(port=0) as server:
            client = ServiceClient(server.url)
            store = server.session.store
            replies = []
            for batch in work:
                docs = [to_wire(expr) for expr in batch]
                hashed = client.hash_wire(docs)["hashes"]
                before = store.stats.hashed_nodes
                replies.append((hashed, client.intern_wire(docs)))
                # One flatten and one kernel pass serve the ownership
                # hashes and the write.
                unique = len(flatten_corpus(batch)[0])
                assert store.stats.hashed_nodes - before == unique
        assert len(store) > 0
        assert_holds_no_request_tree(store)
        for batch, ids, (hashed, reply) in zip(
            work, expected_ids(work), replies
        ):
            oracle = [alpha_hash_all(expr).root_hash for expr in batch]
            assert hashed == oracle
            assert reply["hashes"] == oracle
            assert reply["ids"] == ids

    def test_cluster_shards(self):
        work = batches(seed=6)
        nodes = [
            ReproServer(port=0, shard_id=i, shard_count=2).start()
            for i in range(2)
        ]
        try:
            with ClusterCoordinator(
                [node.url for node in nodes], port=0, retries=1, timeout=30.0
            ) as coordinator:
                client = ServiceClient(coordinator.url)
                replies = []
                for batch in work:
                    docs = [to_wire(expr) for expr in batch]
                    hashed = client.hash_wire(docs)["hashes"]
                    replies.append((hashed, client.intern_wire(docs)))
        finally:
            for node in nodes:
                node.close()
        for node in nodes:
            assert len(node.session.store) > 0
            assert_holds_no_request_tree(node.session.store)
        per_owner: dict[int, list[list[Expr]]] = {0: [], 1: []}
        for batch, (hashed, reply) in zip(work, replies):
            oracle = [alpha_hash_all(expr).root_hash for expr in batch]
            assert hashed == oracle
            assert reply["hashes"] == oracle
            assert reply["owners"] == [digest % 2 for digest in oracle]
            for owner in (0, 1):
                per_owner[owner].append(
                    [e for e, o in zip(batch, reply["owners"]) if o == owner]
                )
        for owner in (0, 1):
            ids = iter(
                i for part in expected_ids(per_owner[owner]) for i in part
            )
            for batch, (_hashed, reply) in zip(work, replies):
                for got, o in zip(reply["ids"], reply["owners"]):
                    if o == owner:
                        assert got == next(ids)

    @pytest.mark.parametrize("shards", [None, 4], ids=["flat", "sharded"])
    def test_batch_verbs_keep_nothing(self, shards):
        """The same invariant without HTTP: hash, compile and intern
        batches, on flat and sharded stores, bounded or not."""
        from repro.api import Session

        for max_entries in (None, 64):
            session = Session(num_shards=shards, max_entries=max_entries)
            store = session.store
            for batch in batches(seed=7):
                store.hash_corpus(batch)
                store.intern_many(store.compile_corpus(batch))
                store.intern_many(batch)
            assert_holds_no_request_tree(store)
