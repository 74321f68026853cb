"""Arena kernel wall: array-speed hashing must be bit-identical.

The arena engine (:mod:`repro.core.arena`) re-implements the paper's
single-pass hashing over a post-order struct-of-arrays compilation of
the corpus.  Its one contract is *bit-identity* with the tree oracle --
:func:`repro.core.hashed.alpha_hash_all` -- on every input, at every
combiner width.  This wall pins that contract on adversarial corpora
(deep chains, heavy sharing, shadowed binders, a depth-5000 degenerate
case), plus the arena's own mechanics: flatten-time dedup,
``flatten -> rebuild`` round-trips, incremental flattening and
pickling.
"""

import multiprocessing

import pickle
import random

import pytest

from repro.api import HashRequest, Session
from repro.core.arena import (
    HAVE_NUMPY,
    VEC_MIN_NODES,
    ExprArena,
    arena_hash,
    choose_kernel,
    flatten_corpus,
)
from repro.core.combiners import HashCombiners, default_combiners
from repro.core.hashed import alpha_hash_all
from repro.gen.adversarial import adversarial_pair
from repro.gen.random_exprs import alpha_rename, random_expr
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.store import ExprStore, ShardedExprStore, hash_corpus_arena

DEPTH_DEEP = 5000

#: Every accepted engine value: the batch verbs must agree across all.
ENGINE_CHOICES_HERE = ("auto", "arena-scalar") + (
    ("arena-vec",) if HAVE_NUMPY else ()
)


def tree_hashes(corpus, combiners=None):
    """The reference: one alpha_hash_all pass per corpus item."""
    return [alpha_hash_all(e, combiners).root_hash for e in corpus]


def memo_hashes(corpus):
    """The per-item memoised store path (``hash_expr``), one store."""
    store = ExprStore()
    return [store.hash_expr(e) for e in corpus]


def memo_intern(store, corpus):
    """Per-item ``intern`` on ``store``: the batch path's id reference."""
    return [store.intern(e) for e in corpus]


def kernel_hashes(corpus, combiners=None):
    """The subject: flatten once, run the array kernel, read the roots."""
    arena, roots = flatten_corpus(corpus)
    tops = arena_hash(arena, combiners)
    return [tops[r] for r in roots]


def mixed_corpus(n_items: int, seed: int = 5, size: int = 50):
    """Random + adversarial + alpha-renamed items with object-identity
    duplicates: the differential wall's diet."""
    rng = random.Random(seed)
    corpus: list[Expr] = []
    while len(corpus) < n_items:
        roll = rng.random()
        if roll < 0.2 and corpus:
            corpus.append(rng.choice(corpus))
        elif roll < 0.3 and corpus:
            corpus.append(alpha_rename(rng.choice(corpus), seed=rng.randrange(1 << 16)))
        elif roll < 0.5:
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


def left_skewed_app(depth: int) -> Expr:
    expr: Expr = Var("x")
    for _ in range(depth):
        expr = App(expr, Var("y"))
    return expr


def right_skewed_app(depth: int) -> Expr:
    expr: Expr = Var("x")
    for _ in range(depth):
        expr = App(Var("y"), expr)
    return expr


def lam_chain(depth: int) -> Expr:
    expr: Expr = Var("v0")
    for i in range(depth):
        expr = Lam(f"v{i % 7}", expr)
    return expr


def let_chain(depth: int) -> Expr:
    expr: Expr = Var("x0")
    for i in range(depth):
        expr = Let(f"x{i % 5}", Var(f"x{(i + 1) % 5}"), expr)
    return expr


class TestDifferential:
    """Bit-identity with alpha_hash_all, corpus shape by corpus shape."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(600)

    def test_mixed_corpus_bit_identity(self, corpus):
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    @pytest.mark.parametrize("bits", [16, 32, 64, 96, 128])
    def test_bit_identity_at_every_width(self, bits):
        """bits <= 64 runs the inlined lane-1 kernel, wider runs the
        generic combine_chain kernel -- both must agree with the tree."""
        corpus = mixed_corpus(120, seed=bits, size=40)
        combiners = HashCombiners(bits=bits)
        assert kernel_hashes(corpus, combiners) == tree_hashes(corpus, combiners)

    def test_deep_chains(self):
        corpus = [
            left_skewed_app(2000),
            right_skewed_app(2000),
            lam_chain(2000),
            let_chain(2000),
        ]
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    def test_depth_5000_degenerate(self):
        """The degenerate ceiling: flatten and kernel are iterative, so
        a depth-5000 spine neither recurses nor diverges from the tree."""
        corpus = [left_skewed_app(DEPTH_DEEP), lam_chain(DEPTH_DEEP)]
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    def test_heavy_sharing(self):
        """One shared subtree object referenced massively: the arena
        visits it once, the hashes must not notice."""
        shared = random_expr(60, seed=11, p_let=0.3)
        expr: Expr = shared
        for _ in range(200):
            expr = App(expr, shared)
        corpus = [expr, shared, App(shared, shared)]
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    def test_shadowed_binders(self):
        x = Var("x")
        corpus = [
            Lam("x", Lam("x", x)),
            Lam("x", App(x, Lam("x", x))),
            Let("x", x, Let("x", x, x)),
            Lam("x", Let("x", App(x, x), App(x, x))),
        ]
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    def test_alpha_equivalent_items_collide(self):
        """Alpha-equivalent-but-renamed items keep distinct arena nodes
        yet must still hash equal -- the collapse happens in hash space."""
        base = random_expr(80, seed=3, p_let=0.3)
        renamed = alpha_rename(base, seed=9)
        hashes = kernel_hashes([base, renamed])
        assert hashes[0] == hashes[1]

    def test_literal_types_not_conflated(self):
        corpus = [Lit(1), Lit(True), Lit(1.0), Lit("1"), Lit(0), Lit(False)]
        hashes = kernel_hashes(corpus)
        assert hashes == tree_hashes(corpus)
        assert len(set(hashes)) == len(corpus)


class TestFlatten:
    """The compile step's own invariants."""

    def test_dedup_collapses_structural_repeats(self):
        shared = random_expr(40, seed=2)
        corpus = [App(shared, shared), shared, App(shared, shared)]
        arena, roots = flatten_corpus(corpus)
        # Both App(shared, shared) items -- distinct calls, identical
        # structure -- land on one arena node.
        assert roots[0] == roots[2]
        assert len(arena) <= shared.size + 1

    def test_incremental_flatten_reuses_nodes(self):
        corpus = mixed_corpus(50, seed=21)
        arena, roots = flatten_corpus(corpus)
        before = len(arena)
        # Re-flattening the same corpus -- and structurally identical
        # *fresh* objects -- adds nothing: dedup is structural, not
        # object-identity.
        clone = pickle.loads(pickle.dumps(corpus[0]))
        again = arena.flatten([clone, *corpus])
        assert len(arena) == before
        assert again == [roots[0], *roots]

    def test_postorder_invariant(self):
        arena, _ = flatten_corpus(mixed_corpus(80, seed=13))
        for i in range(len(arena)):
            assert arena.left[i] < i
            assert arena.right[i] < i

    def test_stats_and_max_depth(self):
        corpus = [left_skewed_app(100), Var("x")]
        arena, roots = flatten_corpus(corpus)
        stats = arena.stats()
        assert stats["nodes"] == len(arena)
        assert stats["bytes"] > 0
        assert arena.max_depth() == 101
        assert arena.max_depth([roots[1]]) == 1

    def test_unknown_node_kind_rejected(self):
        arena = ExprArena()
        with pytest.raises(TypeError):
            arena.flatten([object()])

    def test_failed_flatten_rolls_back_completely(self):
        """A foreign node mid-corpus must leave no trace: no columns, no
        leaf-table entries, no dangling structural-index rows."""
        arena = ExprArena()
        good = App(Var("x"), Lit(5))
        with pytest.raises(TypeError):
            arena.flatten([good, object()])
        assert len(arena) == 0
        assert arena.names == [] and arena.literals == []
        roots = arena.flatten([good])
        tops = arena_hash(arena, default_combiners())
        assert tops[roots[0]] == alpha_hash_all(good).root_hash

    def test_failed_flatten_preserves_existing_nodes(self):
        arena, roots0 = flatten_corpus([App(Var("x"), Var("y"))])
        n0, names0 = len(arena), list(arena.names)
        with pytest.raises(TypeError):
            arena.flatten([Lam("z", Var("w")), object()])
        assert len(arena) == n0 and arena.names == names0
        assert arena.flatten([App(Var("x"), Var("y"))]) == roots0


class TestRoundTrip:
    """flatten -> rebuild preserves alpha-hashes and sharing."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rebuild_preserves_alpha_hash(self, seed):
        corpus = mixed_corpus(60, seed=seed)
        arena, roots = flatten_corpus(corpus)
        for expr, root in zip(corpus, roots):
            rebuilt = arena.rebuild(root)
            assert (
                alpha_hash_all(rebuilt).root_hash
                == alpha_hash_all(expr).root_hash
            )

    def test_rebuild_is_maximally_shared(self):
        shared = random_expr(30, seed=4)
        arena, roots = flatten_corpus([App(shared, shared)])
        rebuilt = arena.rebuild(roots[0])
        assert rebuilt.fn is rebuilt.arg

    def test_rebuild_deep_chain(self):
        arena, roots = flatten_corpus([lam_chain(DEPTH_DEEP)])
        rebuilt = arena.rebuild(roots[0])
        assert rebuilt.size == DEPTH_DEEP + 1


class TestKernelMechanics:
    def test_pickle_round_trip(self):
        """Flat arrays survive pickling; the revived arena hashes
        identically and keeps growing."""
        corpus = mixed_corpus(60, seed=17)
        arena, roots = flatten_corpus(corpus)
        revived = pickle.loads(pickle.dumps(arena))
        assert len(revived) == len(arena)
        tops = arena_hash(revived, default_combiners())
        assert [tops[r] for r in roots] == tree_hashes(corpus)
        # The structural index is rebuilt lazily: flattening the same
        # corpus into the revived arena must add nothing.
        again = revived.flatten(corpus)
        assert len(revived) == len(arena)
        assert again == roots

    def test_deep_arena_pickles_iteratively(self):
        """Depth-5000 trees cannot be pickled directly (recursion), but
        their arena can."""
        arena, roots = flatten_corpus([left_skewed_app(DEPTH_DEEP)])
        revived = pickle.loads(pickle.dumps(arena))
        tops = arena_hash(revived, default_combiners())
        assert tops == arena_hash(arena, default_combiners())

    def test_choose_kernel(self):
        vec = "vec" if HAVE_NUMPY else "scalar"
        assert choose_kernel("auto", VEC_MIN_NODES) == vec
        assert choose_kernel("auto", VEC_MIN_NODES - 1) == "scalar"
        assert choose_kernel("arena-scalar", 10**9) == "scalar"
        for retired in ("tree", "arena", "warp", 7):
            with pytest.raises(ValueError, match="engine must be one of"):
                choose_kernel(retired, 100)


class TestStoreIntegration:
    """engine= plumbing through ExprStore / Session / sharing.

    The reference is the memoised per-item path (``hash_expr`` /
    ``intern``), which the batch verbs must match exactly."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(300, seed=31)

    def test_store_hash_corpus_engines_agree(self, corpus):
        ref = memo_hashes(corpus)
        for engine in ENGINE_CHOICES_HERE:
            assert ExprStore().hash_corpus(corpus, engine=engine) == ref

    def test_store_arena_root_memo_answers_repeats(self, corpus):
        store = ExprStore()
        first = store.hash_corpus(corpus)
        hits_before = store.stats.memo_hits
        second = store.hash_corpus(corpus)
        assert second == first
        assert store.stats.memo_hits > hits_before

    def test_pure_function_mode(self, corpus):
        combiners = default_combiners()
        assert (
            hash_corpus_arena(None, corpus, combiners=combiners)
            == tree_hashes(corpus, combiners)
        )

    def test_intern_after_hash_reuses_compile(self, corpus):
        """The repro-session flow: hash_corpus then intern_many of the
        same corpus must not flatten and hash the arena twice."""
        store = ExprStore()
        hashes = store.hash_corpus(corpus)
        hashed_before = store.stats.hashed_nodes
        ids = store.intern_many(corpus)
        assert store.stats.hashed_nodes == hashed_before
        assert [store.hash_of(i) for i in ids] == hashes
        assert ids == memo_intern(ExprStore(), corpus)

    def test_intern_many_engines_agree(self, corpus):
        by_item = memo_intern(ExprStore(), corpus)
        for engine in ENGINE_CHOICES_HERE:
            assert ExprStore().intern_many(corpus, engine=engine) == by_item

    def test_intern_many_arena_store_state_matches(self, corpus):
        tree_store, arena_store = ExprStore(), ExprStore()
        memo_intern(tree_store, corpus)
        arena_store.intern_many(corpus)
        assert len(arena_store) == len(tree_store)
        for entry in tree_store.entries():
            other = arena_store.lookup_hash(entry.hash)
            assert other is not None
            assert arena_store.entry(other).kind == entry.kind

    def test_lru_bounded_store_keeps_tree_path(self, corpus):
        bounded = ExprStore(max_entries=64)
        ids = bounded.intern_many(corpus)
        assert len(ids) == len(corpus)
        assert len(bounded) <= 64

    def test_sharded_store_hash_corpus_arena(self, corpus):
        sharded = ShardedExprStore(num_shards=4)
        assert (
            sharded.hash_corpus(corpus)
            == memo_hashes(corpus)
        )

    def test_sharded_intern_stays_lock_striped(self, corpus):
        """Sharded ids encode the shard, so compare classes by hash:
        same classes, same per-item resolution as flat per-item intern."""
        sharded = ShardedExprStore(num_shards=4)
        flat = ExprStore()
        sharded_ids = sharded.intern_many(corpus)
        flat_ids = memo_intern(flat, corpus)
        assert [sharded.hash_of(i) for i in sharded_ids] == [
            flat.hash_of(i) for i in flat_ids
        ]

    def test_session_engine_plumbing(self, corpus):
        ref = memo_hashes(corpus)
        for engine in ENGINE_CHOICES_HERE:
            assert Session(engine=engine).hash_corpus(corpus) == ref
            assert Session().execute(HashRequest(corpus, engine=engine)) == ref

    def test_session_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            Session(engine="warp")

    def test_share_corpus_through_arena(self):
        corpus = mixed_corpus(40, seed=41)
        session = Session()
        results = session.share(corpus)
        assert len(results) == len(corpus)
        for expr, result in zip(corpus, results):
            assert (
                alpha_hash_all(result.root).root_hash
                == alpha_hash_all(expr).root_hash
            )

    def test_share_corpus_on_lru_bounded_store(self):
        """Eviction must not strand batch-interned roots: bounded
        stores share item by item (regression: KeyError in expr_of)."""
        corpus = mixed_corpus(50, seed=43)
        results = Session(max_entries=10).share(corpus)
        assert len(results) == len(corpus)
        for expr, result in zip(corpus, results):
            assert (
                alpha_hash_all(result.root).root_hash
                == alpha_hash_all(expr).root_hash
            )

    def test_snapshot_round_trips_engine(self, tmp_path):
        session = Session(engine="arena-scalar")
        session.intern_many(mixed_corpus(5, seed=3))
        path = str(tmp_path / "s.snap")
        session.save(path)
        assert Session.load(path).config.engine == "arena-scalar"


class TestSpawnParallel:
    """What the retired process fan-out promised, kept on the one
    in-process batch path: bit-identity, depth 5000, reuse across
    batches, safe concurrent batches, and no process ever started."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(400, seed=51)

    @pytest.fixture(scope="class")
    def serial(self, corpus):
        return memo_hashes(corpus)

    def test_pool_bit_identity(self, corpus, serial):
        assert ExprStore().hash_corpus(corpus, engine="auto") == serial
        assert Session(workers=2, engine="auto").hash_corpus(corpus) == serial

    def test_pool_depth_5000(self):
        """Depth-5000 trees on every kernel and through a session that
        still passes the retired ``workers`` keyword."""
        corpus = [left_skewed_app(DEPTH_DEEP), lam_chain(DEPTH_DEEP)] * 3
        oracle = tree_hashes(corpus)
        assert kernel_hashes(corpus) == oracle
        for engine in ENGINE_CHOICES_HERE:
            assert ExprStore().hash_corpus(corpus, engine=engine) == oracle
        assert Session(workers=2).hash_corpus(corpus) == oracle

    def test_persistent_pool_reuse(self, corpus, serial):
        """One session across batches: the second batch is answered from
        the arena root cache without hashing a node."""
        session = Session(engine="auto")
        assert session.hash_corpus(corpus) == serial
        hashed = session.store.stats.hashed_nodes
        assert session.hash_corpus(corpus) == serial
        assert session.store.stats.hashed_nodes == hashed

    def test_pool_close_is_idempotent(self, corpus, serial):
        with Session() as session:
            assert session.hash_corpus(corpus) == serial
        session.close()
        session.close()
        assert session.hash_corpus(corpus) == serial

    def test_session_owns_pools_and_closes(self, corpus, serial):
        children = set(multiprocessing.active_children())
        with Session(workers=2, engine="auto") as session:
            assert session.hash_corpus(corpus) == serial
            stats = session.stats()
        assert "workers" not in stats
        assert set(multiprocessing.active_children()) <= children

    def test_store_stats_fold_back(self, corpus):
        store = ExprStore()
        store.hash_corpus(corpus, engine="auto")
        assert store.stats.hashed_nodes > 0

    def test_concurrent_parallel_calls_on_shared_sharded_store(
        self, corpus, serial
    ):
        """The arena path takes the sharded store's memo lock: several
        threads hashing batches on one store at once must not corrupt
        it."""
        import threading

        store = ShardedExprStore(num_shards=4)
        outputs: dict[int, list] = {}

        def run(slot):
            outputs[slot] = store.hash_corpus(corpus, engine="auto")

        threads = [threading.Thread(target=run, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(outputs[t] == serial for t in range(3))
