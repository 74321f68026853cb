"""Vectorized arena kernel wall + in-process batch hygiene.

Three legs, each pinned here:

* **Differential wall** -- :func:`repro.core.arena.arena_hash_vec` is
  bit-identical to the scalar kernel (and through it to
  ``alpha_hash_all``) at every combiner width, on mixed/adversarial/
  depth-5000 corpora.
* **No-NumPy fallback** -- ``engine="auto"`` degrades to the scalar
  kernel, and forcing ``arena-vec`` fails loudly (``ValueError`` at the
  kernel layer, :class:`~repro.api.PlanError` at the planner).
* **Hygiene** -- a batch runs in-process: it leaves no shared-memory
  segment behind and starts no child process, even for a caller that
  still passes the retired ``workers`` keyword.
"""

import glob
import os
import subprocess
import sys
import textwrap

import pytest

from repro.api import HashRequest, PlanError, Session
from repro.core import arena as arena_mod
from repro.core.arena import (
    ENGINE_CHOICES,
    HAVE_NUMPY,
    VEC_MIN_NODES,
    arena_hash,
    arena_hash_any,
    arena_hash_vec,
    choose_kernel,
    flatten_corpus,
)
from repro.core.combiners import HashCombiners
from repro.gen.random_exprs import random_expr
from repro.store import ExprStore

from test_arena import (
    DEPTH_DEEP,
    lam_chain,
    left_skewed_app,
    let_chain,
    mixed_corpus,
    right_skewed_app,
    tree_hashes,
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="vec kernel needs NumPy")

WIDTHS = [16, 32, 64, 96, 128]


def vec_root_hashes(corpus, combiners=None):
    arena, roots = flatten_corpus(corpus)
    tops = arena_hash_vec(arena, combiners)
    return [tops[r] for r in roots]


@needs_numpy
class TestVecDifferential:
    """Bit-identity of the vectorized kernel against the scalar oracle."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(400, seed=11)

    @pytest.fixture(scope="class")
    def flat(self, corpus):
        return flatten_corpus(corpus)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_every_width_matches_scalar(self, flat, bits):
        arena, _roots = flat
        combiners = HashCombiners(bits=bits)
        assert arena_hash_vec(arena, combiners) == arena_hash(arena, combiners)

    def test_tree_oracle(self, corpus):
        assert vec_root_hashes(corpus) == tree_hashes(corpus)

    def test_depth_5000_chains(self):
        corpus = [
            left_skewed_app(DEPTH_DEEP),
            right_skewed_app(DEPTH_DEEP),
            lam_chain(DEPTH_DEEP),
            let_chain(DEPTH_DEEP),
        ]
        arena, roots = flatten_corpus(corpus)
        assert arena_hash_vec(arena) == arena_hash(arena)

    def test_adversarial_corpus(self):
        corpus = mixed_corpus(120, seed=31, size=120)
        assert vec_root_hashes(corpus) == tree_hashes(corpus)

    def test_empty_and_tiny_corpora(self):
        from repro.lang.expr import Lit, Var

        assert arena_hash_vec(flatten_corpus([])[0]) == []
        for item in (Var("x"), Lit(7)):
            assert vec_root_hashes([item]) == tree_hashes([item])


def crossover_corpus(total_nodes: int, seed: int) -> list:
    """Random items summing to exactly ``total_nodes`` nodes."""
    corpus = []
    remaining = total_nodes
    while remaining:
        size = min(40, remaining)
        corpus.append(random_expr(size, seed=seed * 10_000 + len(corpus)))
        remaining -= size
    assert sum(e.size for e in corpus) == total_nodes
    return corpus


class TestCrossoverDifferential:
    """Both kernels, every width, on corpora just below, at and just
    above :data:`VEC_MIN_NODES`: the store's batch path must match
    ``alpha_hash_all`` whichever kernel ``auto`` picks there."""

    @pytest.fixture(scope="class", params=[-1, 0, 1], ids=["below", "at", "above"])
    def corpus(self, request):
        return crossover_corpus(VEC_MIN_NODES + request.param, seed=61)

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize(
        "engine", ["auto", "arena-scalar", pytest.param("arena-vec", marks=needs_numpy)]
    )
    def test_store_batch_matches_oracle(self, corpus, bits, engine):
        combiners = HashCombiners(bits=bits)
        want = tree_hashes(corpus, combiners)
        assert ExprStore(combiners).hash_corpus(corpus, engine=engine) == want

    @pytest.mark.parametrize(
        "engine", ["auto", "arena-scalar", pytest.param("arena-vec", marks=needs_numpy)]
    )
    def test_intern_hashes_match_oracle(self, corpus, engine):
        store = ExprStore()
        ids = store.intern_many(corpus, engine=engine)
        assert [store.hash_of(i) for i in ids] == tree_hashes(corpus)


class TestScalarFallback:
    """Behaviour of every layer when NumPy is (simulated) absent."""

    def test_resolve_kernel_auto_degrades(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        assert choose_kernel("auto", 10 * VEC_MIN_NODES) == "scalar"

    def test_forced_vec_is_an_error(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        with pytest.raises(ValueError, match="requires NumPy"):
            choose_kernel("arena-vec", 10)

    def test_arena_hash_any_auto_falls_back(self, monkeypatch):
        corpus = mixed_corpus(40, seed=3)
        arena, roots = flatten_corpus(corpus)
        reference = arena_hash(arena)
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        kernel = choose_kernel("auto", 10 * VEC_MIN_NODES)
        assert arena_hash_any(arena, kernel=kernel) == reference
        assert ExprStore().hash_corpus(corpus * 40) == tree_hashes(corpus * 40)

    def test_planner_rejects_forced_vec(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        with Session() as session:
            with pytest.raises(PlanError, match="requires NumPy"):
                session.plan(
                    HashRequest(mixed_corpus(4, seed=1), engine="arena-vec")
                )

    def test_planner_auto_reason_records_fallback(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        with Session() as session:
            plan = session.plan(
                HashRequest(mixed_corpus(4, seed=1), engine="auto")
            )
        assert plan.kernel == "scalar"
        assert any("scalar fallback" in reason for reason in plan.reasons)


class TestEngineSurface:
    """The engine/kernel naming layer the API and CLI share."""

    def test_engine_choices_cover_the_family(self):
        assert ENGINE_CHOICES == ("auto", "arena-scalar", "arena-vec")

    @pytest.mark.parametrize(
        "engine,nodes,kernel",
        [
            ("auto", VEC_MIN_NODES - 1, "scalar"),
            ("auto", VEC_MIN_NODES, "vec" if HAVE_NUMPY else "scalar"),
            ("arena-scalar", 10 * VEC_MIN_NODES, "scalar"),
        ],
    )
    def test_choose_kernel(self, engine, nodes, kernel):
        assert choose_kernel(engine, nodes) == kernel

    @pytest.mark.parametrize("engine", ["tree", "arena", "warp", 7, None])
    def test_retired_and_unknown_engines_rejected(self, engine):
        with pytest.raises(ValueError, match="auto, arena-scalar, arena-vec"):
            choose_kernel(engine, 100)
        with pytest.raises(ValueError, match="engine must be one of"):
            ExprStore().hash_corpus([], engine=engine)

    def test_session_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            Session(engine="arena-warp")

    @needs_numpy
    def test_store_accepts_kernel_engines(self):
        corpus = mixed_corpus(60, seed=13)
        store = ExprStore()
        want = [store.hash_expr(e) for e in corpus]
        for engine in ENGINE_CHOICES:
            assert ExprStore().hash_corpus(corpus, engine=engine) == want

    @needs_numpy
    def test_forced_kernels_agree_through_the_session(self):
        corpus = mixed_corpus(60, seed=13)
        with Session() as session:
            vec = session.execute(HashRequest(corpus, engine="arena-vec"))
            scalar = session.execute(HashRequest(corpus, engine="arena-scalar"))
        assert vec == scalar


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory required"
)
class TestSharedMemoryHygiene:
    """Batches run in-process: no shared-memory segment appears."""

    @staticmethod
    def _segments() -> set:
        return set(glob.glob("/dev/shm/psm_*"))

    def test_parallel_batches_leave_no_segments(self):
        corpus = mixed_corpus(80, seed=23)
        want = [ExprStore().hash_expr(e) for e in corpus]
        before = self._segments()
        session = Session(workers=2, engine="auto")
        assert session.hash_corpus(corpus) == want
        session.intern_many(corpus)
        assert self._segments() <= before


class TestSessionLifecycle:
    """A script still passing the retired ``workers`` keyword starts no
    child process and exits cleanly without ``close()``."""

    def test_dropped_session_leaves_no_children_past_exit(self, tmp_path):
        script = textwrap.dedent(
            """
            import multiprocessing
            import sys

            from repro.api import HashRequest, Session
            from repro.gen.random_exprs import random_expr

            corpus = [random_expr(40, seed=i) for i in range(40)]
            session = Session(workers=2)
            session.execute(HashRequest(corpus, engine="auto"))
            session.intern_many(corpus)
            print("CHILDREN", len(multiprocessing.active_children()), flush=True)
            # Neither close() nor __exit__: the session is simply
            # dropped on interpreter exit.
            sys.exit(0)
            """
        )
        path = tmp_path / "drop_session.py"
        path.write_text(script)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CHILDREN 0" in proc.stdout.splitlines(), proc.stdout
