"""Parallel corpus engine: serial/parallel differential + determinism.

The engine's contract is *bit-identity*: ``hash_corpus(workers=N)``
must agree hash-for-hash, position-for-position with ``workers=1`` over
any corpus -- random, adversarial, duplicate-heavy, or degenerate-deep
-- on the one process pool.  The 1k mixed-corpus differential below is
the PR-3 satellite contract; the rest pins the engine's mechanics
(deterministic chunking, dedup, store stat accounting).
"""

import random

import pytest

from repro.api import HashRequest, InternRequest, Session
from repro.core.combiners import HashCombiners
from repro.core.hashed import alpha_hash_all
from repro.gen.adversarial import adversarial_pair
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Lam, Var
from repro.store import (
    ExprStore,
    ShardedExprStore,
    WorkerPool,
    parallel_hash_corpus,
    resolve_workers,
)
from repro.store.parallel import _chunk_ranges


def mixed_corpus(n_items: int, seed: int = 5, size: int = 50):
    """Random + adversarial generators with object-identity duplicates:
    the satellite's "1k mixed corpus" diet."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < n_items:
        roll = rng.random()
        if roll < 0.2 and corpus:
            corpus.append(rng.choice(corpus))
        elif roll < 0.4:
            a, b = adversarial_pair(size, seed=rng.randrange(1 << 30))
            corpus.extend((a, b))
        else:
            corpus.append(
                random_expr(
                    size,
                    rng=rng,
                    shape=rng.choice(("balanced", "unbalanced")),
                    p_let=0.25,
                    p_lit=0.15,
                )
            )
    return corpus[:n_items]


class TestDifferential:
    """The satellite contract: workers=4 == workers=1, bit for bit."""

    @pytest.fixture(scope="class")
    def corpus_1k(self):
        return mixed_corpus(1000)

    @pytest.fixture(scope="class")
    def serial_hashes(self, corpus_1k):
        return Session().execute(HashRequest(corpus_1k, workers=1))

    def test_process_workers_bit_identical(self, corpus_1k, serial_hashes):
        assert (
            Session().execute(HashRequest(corpus_1k, workers=4))
            == serial_hashes
        )

    def test_parallel_runs_are_deterministic(self, corpus_1k):
        first = parallel_hash_corpus(corpus_1k, workers=3)
        second = parallel_hash_corpus(corpus_1k, workers=3)
        assert first == second

    def test_worker_count_never_changes_results(self, corpus_1k, serial_hashes):
        for workers in (2, 3, 5):
            assert (
                parallel_hash_corpus(corpus_1k[:200], workers=workers)
                == serial_hashes[:200]
            )

    def test_nondefault_combiners(self):
        corpus = mixed_corpus(60, seed=8)
        combiners = HashCombiners(bits=32, seed=123)
        serial = [
            ExprStore(HashCombiners(bits=32, seed=123)).hash_expr(e)
            for e in corpus
        ]
        assert (
            parallel_hash_corpus(corpus, combiners=combiners, workers=3)
            == serial
        )


class TestPoolWidths:
    """The one pool, sessioned and poolless, against the tree oracle at
    every width the API accepts for corpus work."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(120, seed=11)

    @pytest.mark.parametrize("bits", [16, 32, 64, 96, 128])
    def test_pool_matches_alpha_hash_all(self, corpus, bits):
        combiners = HashCombiners(bits=bits)
        oracle = [alpha_hash_all(e, combiners).root_hash for e in corpus]
        with Session(bits=bits, workers=2) as session:
            assert session.hash_corpus(corpus) == oracle
            assert session.stats()["live_pools"] == [2]
        assert (
            parallel_hash_corpus(corpus, combiners=combiners, workers=2)
            == oracle
        )


class TestEngineMechanics:
    def test_chunk_ranges_partition_exactly(self):
        for n_items in (0, 1, 7, 100, 1001):
            for n_chunks in (1, 3, 8, 200):
                spans = _chunk_ranges(n_items, n_chunks)
                covered = [i for a, b in spans for i in range(a, b)]
                assert covered == list(range(n_items))

    def test_dedup_maps_every_position(self):
        """Repeats collapse in the arena; every input position still
        gets its own item's hash."""
        a, b = Var("x"), Var("y")
        ha, hb = ExprStore().hash_corpus([a, b])
        got = parallel_hash_corpus([a, b, a, a, b], workers=2)
        assert got == [ha, hb, ha, ha, hb]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_invalid_mode_rejected(self):
        """One pool, no flavours: any ``mode`` is an unknown argument."""
        with pytest.raises(TypeError):
            parallel_hash_corpus([Var("x")], workers=2, mode="thread")
        with pytest.raises(TypeError):
            WorkerPool(2, "spawn")

    def test_workers_one_uses_store_serially(self):
        store = ExprStore()
        corpus = mixed_corpus(20)
        result = parallel_hash_corpus(corpus, workers=1, store=store)
        assert result == ExprStore().hash_corpus(corpus)
        assert store.stats.hashed_nodes > 0

    def test_warm_store_answers_locally(self):
        store = ExprStore()
        corpus = mixed_corpus(30)
        store.hash_corpus(corpus)
        hashed_before = store.stats.hashed_nodes
        result = parallel_hash_corpus(corpus, workers=4, store=store)
        assert result == ExprStore().hash_corpus(corpus)
        # every unique object was memoised: nothing left to fan out
        assert store.stats.hashed_nodes == hashed_before

    def test_worker_counters_fold_into_store(self):
        store = ExprStore()
        corpus = mixed_corpus(40)
        parallel_hash_corpus(corpus, workers=3, store=store)
        # the delegated hashing work is visible in the parent's stats
        assert store.stats.hashed_nodes > 0

    def test_deep_corpus_depth_5000(self):
        """Workers attach the arena, never the trees, so degenerate
        depth parallelises (pickling a tree would recurse)."""
        deep = Var("x")
        for i in range(5000):
            deep = Lam(f"x{i}", deep)
        corpus = [deep] + mixed_corpus(10)
        assert parallel_hash_corpus(corpus, workers=2) == ExprStore(
        ).hash_corpus(corpus)


class TestSessionIntegration:
    def test_session_configured_workers(self):
        corpus = mixed_corpus(60)
        serial = Session().hash_corpus(corpus)
        session = Session(workers=3)
        assert session.hash_corpus(corpus) == serial

    def test_session_sharded_store_with_workers(self):
        corpus = mixed_corpus(60)
        session = Session(num_shards=4, workers=3)
        assert isinstance(session.store, ShardedExprStore)
        assert session.hash_corpus(corpus) == Session().hash_corpus(corpus)
        ids = session.intern_many(corpus)
        assert len(ids) == len(corpus)
        stats = session.stats()
        assert stats["num_shards"] == 4
        assert sum(stats["shard_sizes"]) == stats["entries"]

    def test_session_intern_many_workers_matches_serial_classes(self):
        corpus = mixed_corpus(80)
        serial_ids = Session().intern_many(corpus)
        par_ids = Session(num_shards=4).execute(
            InternRequest(corpus, workers=3)
        )
        assert [par_ids.index(i) for i in par_ids] == [
            serial_ids.index(i) for i in serial_ids
        ]

    def test_non_store_backend_stays_serial_and_correct(self):
        corpus = mixed_corpus(20)
        session = Session(backend="debruijn", workers=4)
        assert session.hash_corpus(corpus) == Session(
            backend="debruijn"
        ).hash_corpus(corpus)

    def test_sharded_session_snapshot_round_trip(self, tmp_path):
        corpus = mixed_corpus(40)
        session = Session(num_shards=4)
        hashes = session.hash_corpus(corpus)
        session.intern_many(corpus)
        path = str(tmp_path / "sharded_session.snap")
        session.save(path)
        restored = Session.load(path)
        assert isinstance(restored.store, ShardedExprStore)
        assert restored.store.num_shards == 4
        assert restored.hash_corpus(corpus) == hashes

    def test_invalid_parallel_mode_rejected(self):
        with pytest.raises(TypeError):
            Session(parallel_mode="process")

    def test_session_workers_intern_many_matches_serial(self):
        """Interning always runs serially: a ``workers=2`` session gets
        the very same ids, and the same classes, as a serial one."""
        corpus = mixed_corpus(80)
        serial_ids = Session().intern_many(corpus)
        with Session(workers=2) as session:
            assert session.intern_many(corpus) == serial_ids
            assert session.stats()["live_pools"] == []


class TestAppleToAppleAdversarial:
    def test_adversarial_pairs_stay_distinct_in_parallel(self):
        """Near-colliding pairs must come back distinct and identical to
        the serial path (the engine must not perturb hashing)."""
        pairs = [adversarial_pair(120, seed=s) for s in range(20)]
        corpus = [e for pair in pairs for e in pair]
        hashes = parallel_hash_corpus(corpus, workers=4)
        assert hashes == ExprStore().hash_corpus(corpus)
        for left, right in zip(hashes[::2], hashes[1::2]):
            assert left != right
