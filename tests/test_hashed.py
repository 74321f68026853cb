"""Tests for the fast Step-2 algorithm (Section 5).

The two-step correctness argument, made executable: the fast path must
produce *bit-identical* hashes to hashing the materialised Step-1
summaries, and those summaries are provably faithful (test_esummary /
test_rebuild).  Plus the end-to-end properties: alpha-invariance,
discrimination, the Lemma 6.1 op-count bound, and container behaviour.
"""

import math

import pytest
from hypothesis import given

from repro.core.combiners import HashCombiners
from repro.core.esummary import hash_esummary_tree, summarise_all_tagged
from repro.core.hashed import alpha_hash_all, alpha_hash_root, summarise_node
from repro.core.varmap import MapOpStats
from repro.gen.random_exprs import alpha_rename, random_expr
from repro.lang.alpha import alpha_equivalent
from repro.lang.expr import App, Lam, Lit, Var
from repro.lang.parser import parse
from repro.lang.traversal import preorder

from strategies import exprs


class TestStepAgreement:
    """Fast hashed path == hash of materialised Step-1 summary."""

    @given(exprs(max_size=60))
    def test_bit_identical_on_every_node(self, e):
        combiners = HashCombiners(seed=13)
        fast = alpha_hash_all(e, combiners)
        summaries = summarise_all_tagged(e)
        for node in preorder(e):
            expected = hash_esummary_tree(combiners, summaries[id(node)])
            assert fast.hash_of(node) == expected

    def test_bit_identical_at_16_bits(self):
        combiners = HashCombiners(bits=16, seed=13)
        e = random_expr(80, seed=4, p_let=0.3, p_lit=0.2)
        fast = alpha_hash_all(e, combiners)
        summaries = summarise_all_tagged(e)
        for node in preorder(e):
            expected = hash_esummary_tree(combiners, summaries[id(node)])
            assert fast.hash_of(node) == expected


class TestAlphaInvariance:
    @given(exprs(max_size=80))
    def test_renaming_preserves_root_hash(self, e):
        assert alpha_hash_root(e) == alpha_hash_root(alpha_rename(e))

    def test_paper_intro_lambdas(self):
        e = parse(r"foo (\x. x + 7) (\y. y + 7)")
        hashes = alpha_hash_all(e)
        assert hashes.hash_of(e.fn.arg) == hashes.hash_of(e.arg)

    def test_paper_intro_lets(self):
        e = parse(
            "(a + (let x = exp z in x + 7)) * (let y = exp z in y + 7)"
        )
        hashes = alpha_hash_all(e)
        let1 = e.fn.arg.arg  # ((mul (add a L1)) L2): L1 = fn.arg.arg
        let2 = e.arg
        assert let1.kind == "Let" and let2.kind == "Let"
        assert hashes.hash_of(let1) == hashes.hash_of(let2)

    def test_shadowing_handled(self):
        a = parse(r"\x. x (\x2. x2)")
        b = parse(r"\x. x (\x. x)")
        assert alpha_hash_root(a) == alpha_hash_root(b)


class TestDiscrimination:
    def test_free_names_distinguish(self):
        assert alpha_hash_root(parse(r"\x. x + y")) != alpha_hash_root(
            parse(r"\x. x + z")
        )

    def test_structure_distinguishes(self):
        assert alpha_hash_root(parse(r"\x. x (x x)")) != alpha_hash_root(
            parse(r"\x. (x x) x")
        )

    def test_add_x_y_vs_x_x(self):
        assert alpha_hash_root(parse("add x y")) != alpha_hash_root(
            parse("add x x")
        )

    def test_bound_vs_free(self):
        assert alpha_hash_root(parse(r"\x. x")) != alpha_hash_root(
            parse(r"\x. y")
        )

    def test_lam_vs_let(self):
        a = parse(r"(\x. x) 1")
        b = parse("let x = 1 in x")
        assert alpha_hash_root(a) != alpha_hash_root(b)

    @given(exprs(max_size=40), exprs(max_size=40))
    def test_distinct_iff_non_equivalent_at_64_bits(self, e1, e2):
        # At 64 bits the collision probability over this sample count is
        # ~2^-50, so equality of hashes == alpha-equivalence in practice.
        same_hash = alpha_hash_root(e1) == alpha_hash_root(e2)
        assert same_hash == alpha_equivalent(e1, e2)


class TestOpCounts:
    @pytest.mark.parametrize("shape", ["balanced", "unbalanced"])
    @pytest.mark.parametrize("n", [64, 512, 4096])
    def test_lemma_6_1_bound(self, shape, n):
        expr = random_expr(n, seed=n, shape=shape)
        stats = MapOpStats()
        alpha_hash_all(expr, stats=stats)
        # Lemma 6.1 merges (<= n log2 n with C=1) plus Lemma 6.2's one op
        # per Var/Lam/Let node (<= n).
        assert stats.merge_entries <= n * math.log2(n)
        assert stats.singleton + stats.remove <= n
        assert stats.total <= n * math.log2(n) + n

    def test_singleton_per_var(self):
        e = parse("f x y")
        stats = MapOpStats()
        alpha_hash_all(e, stats=stats)
        assert stats.singleton == 3

    def test_remove_per_binder(self):
        e = parse(r"\x. let y = x in y")
        stats = MapOpStats()
        alpha_hash_all(e, stats=stats)
        assert stats.remove == 2


class TestContainer:
    def test_hash_of_foreign_node_raises(self):
        hashes = alpha_hash_all(parse("a b"))
        with pytest.raises(KeyError):
            hashes.hash_of(Var("a"))

    def test_items_yields_every_occurrence(self):
        e = parse("f x x")
        hashes = alpha_hash_all(e)
        items = list(hashes.items())
        assert len(items) == e.size
        x_hashes = {h for _, node, h in items if getattr(node, "name", "") == "x"}
        assert len(x_hashes) == 1

    def test_root_hash(self):
        e = parse("a b")
        hashes = alpha_hash_all(e)
        assert hashes.root_hash == hashes.hash_of(e)

    def test_len(self):
        e = parse("a b c")
        assert len(alpha_hash_all(e)) == e.size

    def test_getitem_alias(self):
        e = parse("a")
        hashes = alpha_hash_all(e)
        assert hashes[e] == hashes.hash_of(e)

    def test_summaries_require_flag(self):
        e = parse("a")
        with pytest.raises(ValueError):
            alpha_hash_all(e).summary_of(e)
        kept = alpha_hash_all(e, keep_summaries=True)
        summary = kept.summary_of(e)
        assert summary.top == kept.root_hash
        assert summary.varmap_len == 1

    def test_summarise_node_helper(self):
        e = parse(r"\x. x + y")
        summary = summarise_node(e)
        assert summary.varmap_len == 2  # add, y

    def test_shared_node_objects_are_safe(self):
        # the alpha hash of a subtree is context-independent, so a
        # shared subtree object gets one consistent hash.
        shared = parse(r"\x. x + q")
        tree = App(App(Var("f"), shared), shared)
        hashes = alpha_hash_all(tree)
        assert hashes.hash_of(shared) == alpha_hash_root(shared)


class TestScale:
    def test_deep_unbalanced(self):
        e = random_expr(50_000, seed=9, shape="unbalanced")
        hashes = alpha_hash_all(e)
        assert len(hashes) == 50_000

    def test_deep_manual_chain(self):
        e = Var("z")
        for i in range(30_000):
            e = Lam(f"v{i}", e) if i % 2 else App(e, Lit(i))
        assert alpha_hash_root(e) is not None


class TestLitCacheBitExactness:
    """The literal-hash cache must key on bit patterns, not == (PR 3).

    ``hash_lit`` distinguishes -0.0 from 0.0 (IEEE bit patterns), while
    ``-0.0 == 0.0`` as a dict key: a value-keyed cache would make a
    literal's hash depend on hashing *history*.
    """

    def test_negative_zero_vs_zero_order_independent(self):
        tree_pos_first = App(Lit(0.0), Lit(-0.0))
        tree_neg_first = App(Lit(-0.0), Lit(0.0))
        a = alpha_hash_all(tree_pos_first)
        b = alpha_hash_all(tree_neg_first)
        assert a.hash_of(tree_pos_first.fn) == b.hash_of(tree_neg_first.arg)
        assert a.hash_of(tree_pos_first.arg) == b.hash_of(tree_neg_first.fn)
        assert a.hash_of(tree_pos_first.fn) != a.hash_of(tree_pos_first.arg)

    def test_in_tree_matches_standalone(self):
        tree = App(Lit(0.0), Lit(-0.0))
        hashes = alpha_hash_all(tree)
        assert hashes.hash_of(tree.arg) == alpha_hash_root(Lit(-0.0))

    def test_store_corpus_matches_fresh_and_parallel(self):
        from repro.api import Session
        from repro.core.arena import ENGINE_CHOICES, HAVE_NUMPY
        from repro.store import ExprStore

        corpus = [Lit(0.0), Lit(-0.0), App(Lit(0.0), Lit(-0.0))]
        fresh = [alpha_hash_root(e) for e in corpus]
        for engine in ENGINE_CHOICES:
            if engine == "arena-vec" and not HAVE_NUMPY:
                continue
            assert ExprStore().hash_corpus(corpus, engine=engine) == fresh
        assert Session(workers=2).hash_corpus(corpus) == fresh
        store = ExprStore()
        assert store.intern(Lit(0.0)) != store.intern(Lit(-0.0))
