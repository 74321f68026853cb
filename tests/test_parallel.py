"""The retired corpus fan-out: one in-process batch path, old knobs inert.

Corpus hashing used to fan out over a worker pool when a caller asked
for ``workers > 1``.  Every batch now runs in-process through
``ExprStore.hash_corpus`` / ``intern_many``, so this wall pins two
things.  First, that path is bit-identical to the tree oracle
(:func:`~repro.core.hashed.alpha_hash_all`) and to per-item hashing
over any corpus -- random, adversarial, duplicate-heavy or
degenerate-deep -- at every width the API accepts.  Second, callers
still passing the retired ``workers`` keyword to :class:`Session` get
exactly the hashes and ids of a plain session and start no process;
a ``workers`` request hint is an unknown hint.
"""

import multiprocessing
import random

import pytest

from repro.api import HashRequest, InternRequest, Session
from repro.core.arena import HAVE_NUMPY, flatten_corpus
from repro.core.combiners import HashCombiners
from repro.core.hashed import alpha_hash_all
from repro.gen.adversarial import adversarial_pair
from repro.gen.random_exprs import random_expr
from repro.lang.expr import Lam, Var
from repro.store import ExprStore, ShardedExprStore

#: The batch kernels every width is checked on.
KERNELS = ("arena-scalar",) + (("arena-vec",) if HAVE_NUMPY else ())


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
    """A retired ``workers`` value never changes a hash."""

    @pytest.fixture(scope="class")
    def corpus_1k(self):
        return mixed_corpus(1000)

    @pytest.fixture(scope="class")
    def serial_hashes(self, corpus_1k):
        return Session().execute(HashRequest(corpus_1k))

    def test_process_workers_bit_identical(self, corpus_1k, serial_hashes):
        assert Session(workers=4).hash_corpus(corpus_1k) == serial_hashes
        oracle = [alpha_hash_all(e).root_hash for e in corpus_1k[:200]]
        assert serial_hashes[:200] == oracle

    def test_parallel_runs_are_deterministic(self, corpus_1k):
        session = Session()
        first = session.hash_corpus(corpus_1k)
        assert session.hash_corpus(corpus_1k) == first
        assert Session().hash_corpus(corpus_1k) == first

    def test_worker_count_never_changes_results(self, corpus_1k, serial_hashes):
        for workers in (0, 2, 3, 5):
            assert (
                Session(workers=workers).hash_corpus(corpus_1k[:200])
                == serial_hashes[:200]
            )

    def test_nondefault_combiners(self):
        corpus = mixed_corpus(60, seed=8)
        per_item = ExprStore(HashCombiners(bits=32, seed=123))
        serial = [per_item.hash_expr(e) for e in corpus]
        batch = ExprStore(HashCombiners(bits=32, seed=123))
        assert batch.hash_corpus(corpus) == serial


class TestPoolWidths:
    """The one batch path against the tree oracle at every width the
    API accepts for corpus work, on each kernel."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(120, seed=11)

    @pytest.mark.parametrize("bits", [16, 32, 64, 96, 128])
    def test_pool_matches_alpha_hash_all(self, corpus, bits):
        combiners = HashCombiners(bits=bits)
        oracle = [alpha_hash_all(e, combiners).root_hash for e in corpus]
        session = Session(bits=bits, workers=2)
        assert session.hash_corpus(corpus) == oracle
        assert "workers" not in session.stats()
        for engine in KERNELS:
            store = ExprStore(HashCombiners(bits=bits))
            assert store.hash_corpus(corpus, engine=engine) == oracle


class TestEngineMechanics:
    def test_dedup_maps_every_position(self):
        """Repeats collapse in the arena; every input position still
        gets its own item's hash."""
        a, b = Var("x"), Var("y")
        ha, hb = ExprStore().hash_corpus([a, b])
        got = ExprStore().hash_corpus([a, b, a, a, b])
        assert got == [ha, hb, ha, ha, hb]

    def test_invalid_mode_rejected(self):
        """The retired fan-out hints are unknown request hints."""
        for hint in ("mode", "workers"):
            for request in (HashRequest, InternRequest):
                with pytest.raises(TypeError, match="unknown request hint"):
                    request([Var("x")], **{hint: 2})

    def test_workers_one_uses_store_serially(self):
        session = Session(workers=1)
        corpus = mixed_corpus(20)
        assert session.hash_corpus(corpus) == ExprStore().hash_corpus(corpus)
        assert session.store.stats.hashed_nodes > 0

    def test_warm_store_answers_locally(self):
        store = ExprStore()
        corpus = mixed_corpus(30)
        store.hash_corpus(corpus)
        hashed_before = store.stats.hashed_nodes
        result = store.hash_corpus(corpus)
        assert result == ExprStore().hash_corpus(corpus)
        # every corpus root was cached: nothing left to hash
        assert store.stats.hashed_nodes == hashed_before

    def test_worker_counters_fold_into_store(self):
        """The arena work is counted in the store: one hashed node per
        unique arena node, the flatten-dedup savings as skipped."""
        store = ExprStore()
        corpus = mixed_corpus(40)
        store.hash_corpus(corpus)
        arena, _roots = flatten_corpus(corpus)
        assert store.stats.hashed_nodes == len(arena)
        walked = sum(expr.size for expr in corpus)
        assert store.stats.memo_skipped_nodes == walked - len(arena)

    def test_deep_corpus_depth_5000(self):
        """Degenerate depth runs through the iterative flatten and
        kernels, on both kernels, against the tree oracle."""
        deep = Var("x")
        for i in range(5000):
            deep = Lam(f"x{i}", deep)
        corpus = [deep] + mixed_corpus(10)
        oracle = [alpha_hash_all(e).root_hash for e in corpus]
        for engine in KERNELS:
            assert ExprStore().hash_corpus(corpus, engine=engine) == oracle


class TestSessionIntegration:
    def test_session_configured_workers(self):
        """``workers`` is accepted and ignored: it is not config."""
        corpus = mixed_corpus(60)
        serial = Session().hash_corpus(corpus)
        session = Session(workers=3)
        assert not hasattr(session.config, "workers")
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
        sharded_ids = Session(num_shards=4, workers=3).intern_many(corpus)
        assert [sharded_ids.index(i) for i in sharded_ids] == [
            serial_ids.index(i) for i in serial_ids
        ]

    def test_non_store_backend_stays_serial_and_correct(self):
        corpus = mixed_corpus(20)
        session = Session(backend="debruijn", workers=4)
        assert session.plan(HashRequest(corpus)).executor == "serial"
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
        """A ``workers=2`` session gets the very same ids as a plain
        one, and starts no child process."""
        corpus = mixed_corpus(80)
        serial_ids = Session().intern_many(corpus)
        children = set(multiprocessing.active_children())
        session = Session(workers=2)
        assert session.intern_many(corpus) == serial_ids
        session.hash_corpus(corpus)
        assert set(multiprocessing.active_children()) <= children


class TestAppleToAppleAdversarial:
    def test_adversarial_pairs_stay_distinct_in_parallel(self):
        """Near-colliding pairs must come back distinct, and identical
        to per-item hashing (batching must not perturb hashing)."""
        pairs = [adversarial_pair(120, seed=s) for s in range(20)]
        corpus = [e for pair in pairs for e in pair]
        hashes = Session(workers=4).hash_corpus(corpus)
        store = ExprStore()
        assert hashes == [store.hash_expr(e) for e in corpus]
        for left, right in zip(hashes[::2], hashes[1::2]):
            assert left != right
