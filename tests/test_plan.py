"""Tests for the request -> plan -> execute pipeline.

The contract under test: the ``HashRequest`` -> ``ExecutionPlan`` ->
execute path is bit-identical to ``alpha_hash_all`` across arena
kernels (scalar/vec) and executors (serial/async), ``engine="auto"``
picks the kernel at the one measured crossover, and third-party
backends register through the ``repro.backends`` entry-point group.
"""

import random

import pytest

from repro.api import (
    BACKENDS,
    EXECUTORS,
    AsyncExecutor,
    ExecutionPlan,
    HashRequest,
    InternRequest,
    PlanError,
    Planner,
    Session,
    get_backend,
    get_executor,
)
from repro.api.backends import _ALIASES, load_entry_point_backends
from repro.core import arena as arena_mod
from repro.core.arena import HAVE_NUMPY, VEC_MIN_NODES
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.parser import parse


def small_corpus(n_items: int = 40, seed: int = 3):
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_items):
        if corpus and rng.random() < 0.2:
            corpus.append(rng.choice(corpus))
        else:
            corpus.append(random_expr(30, rng=rng, p_let=0.2, p_lit=0.2))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return small_corpus()


@pytest.fixture(scope="module")
def expected(corpus):
    return [alpha_hash_all(e).root_hash for e in corpus]


class TestRequests:
    def test_request_freezes_corpus(self, corpus):
        request = HashRequest(iter(corpus))
        assert len(request) == len(corpus)
        assert request.total_nodes == sum(e.size for e in corpus)

    def test_request_rejects_bad_hints(self, corpus):
        with pytest.raises(ValueError, match="engine"):
            HashRequest(corpus, engine="warp")
        for retired in ("mode", "workers"):
            with pytest.raises(TypeError, match="unknown request hint"):
                HashRequest(corpus, **{retired: 2})
        with pytest.raises(TypeError, match="unknown request hint"):
            HashRequest(corpus, warp_factor=9)
        with pytest.raises(TypeError, match="expressions"):
            HashRequest(["not an expr"])

    def test_hints_view(self, corpus):
        assert HashRequest(corpus).hints() == {}
        assert HashRequest(corpus, engine="arena-scalar").hints() == {
            "engine": "arena-scalar",
        }

    def test_intern_request_kind(self, corpus):
        assert HashRequest(corpus).kind == "hash"
        assert InternRequest(corpus).kind == "intern"


class TestPlanner:
    def test_auto_engine_consults_the_one_threshold(self, corpus):
        session = Session()
        total = sum(e.size for e in corpus)
        assert total < VEC_MIN_NODES  # the module corpus is small
        plan = session.plan(HashRequest(corpus))
        assert plan.engine == "arena" and plan.kernel == "scalar"
        if HAVE_NUMPY:
            assert any(f"crossover {VEC_MIN_NODES}" in r for r in plan.reasons)
        big = corpus * (VEC_MIN_NODES // total + 1)
        replanned = session.plan(HashRequest(big))
        assert replanned.engine == "arena"
        assert replanned.kernel == ("vec" if HAVE_NUMPY else "scalar")

    @pytest.mark.parametrize("numpy", [True, False])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_auto_kernel_around_the_crossover(self, monkeypatch, numpy, offset):
        """Just below, at and above the constant, with and without NumPy."""
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", numpy)
        leaf = parse("a")
        corpus = [leaf] * (VEC_MIN_NODES + offset)
        plan = Session().plan(HashRequest(corpus))
        want = "vec" if numpy and offset >= 0 else "scalar"
        assert (plan.engine, plan.kernel) == ("arena", want)

    def test_choose_kernel_matches_planner(self, corpus):
        # Store/parallel layers resolve "auto" through the same rule.
        session = Session()
        for items in (corpus, corpus * 100):
            total = sum(e.size for e in items)
            assert (
                arena_mod.choose_kernel("auto", total)
                == session.plan(HashRequest(items)).kernel
            )

    def test_planner_takes_no_threshold(self):
        with pytest.raises(TypeError):
            Planner(arena_threshold=1)

    def test_plan_is_concrete_and_inspectable(self, corpus):
        plan = Session().plan(HashRequest(corpus))
        assert isinstance(plan, ExecutionPlan)
        assert plan.engine == "arena" and plan.kernel in ("vec", "scalar")
        assert plan.executor == "serial"
        assert plan.corpus_items == len(corpus)
        text = plan.explain()
        assert "engine=" in text and "executor=serial" in text
        as_dict = plan.as_dict()
        assert as_dict["executor"] == "serial"
        assert "workers" not in as_dict
        assert isinstance(as_dict["reasons"], list) or isinstance(
            as_dict["reasons"], tuple
        )

    def test_workers_hint_overrides_session_default(self, corpus):
        """Neither a request nor a session carries a pool size any more:
        the retired session keyword leaves the plan unchanged."""
        with pytest.raises(TypeError, match="unknown request hint"):
            HashRequest(corpus, workers=1)
        request = HashRequest(corpus)
        assert Session(workers=4).plan(request) == Session().plan(request)

    def test_single_item_stays_serial(self):
        plan = Session().plan(HashRequest([parse("a b")]))
        assert plan.executor == "serial" and plan.corpus_items == 1

    def test_non_store_backend_stays_serial(self, corpus):
        plan = Session(backend="debruijn").plan(HashRequest(corpus))
        assert plan.executor == "serial"
        assert not plan.store_backed
        assert any("its own pass" in r for r in plan.reasons)

    def test_determinism_hints_enforced(self, corpus):
        session = Session(bits=64)
        ok = HashRequest(corpus, bits=64)
        assert session.plan(ok).bits == 64
        with pytest.raises(PlanError, match="bits"):
            session.plan(HashRequest(corpus, bits=32))
        with pytest.raises(PlanError, match="seed"):
            session.plan(HashRequest(corpus, seed=123))

    def test_intern_plans_run_serially(self, corpus):
        plan = Session().plan(InternRequest(corpus))
        assert plan.executor == "serial" and plan.store_backed
        assert "mode" not in plan.as_dict()
        assert "workers" not in plan.as_dict()

    def test_intern_needs_store(self, corpus):
        with pytest.raises(PlanError, match="use_store"):
            Session(use_store=False).plan(InternRequest(corpus))

    def test_unknown_backend_is_a_plan_error(self, corpus):
        with pytest.raises(PlanError, match="unknown backend"):
            Session().plan(HashRequest(corpus, backend="warp"))

    def test_sharded_session_plan_reports_shards(self, corpus):
        plan = Session(num_shards=4).plan(HashRequest(corpus))
        assert plan.num_shards == 4


class TestExecuteBitIdentity:
    """The acceptance matrix: engines x executors == alpha_hash_all."""

    @pytest.mark.parametrize("engine", ["auto", "arena-scalar", "arena-vec"])
    def test_serial_executor(self, corpus, expected, engine):
        if engine == "arena-vec" and not HAVE_NUMPY:
            pytest.skip("NumPy not importable")
        session = Session()
        assert session.execute(HashRequest(corpus, engine=engine)) == expected

    @pytest.mark.parametrize("engine", ["auto", "arena-scalar", "arena-vec"])
    def test_pool_executor(self, corpus, expected, engine):
        """The pool executor is gone: a session passed the retired
        ``workers`` keyword plans and runs serially, bit-identically."""
        if engine == "arena-vec" and not HAVE_NUMPY:
            pytest.skip("NumPy not importable")
        session = Session(workers=2)
        request = HashRequest(corpus, engine=engine)
        plan = session.plan(request)
        assert plan.executor == "serial"
        assert session.execute(request, plan=plan) == expected
        with pytest.raises(KeyError, match="unknown executor"):
            get_executor("pool")

    def test_async_executor_runs_the_plan(self, corpus, expected):
        session = Session()
        request = HashRequest(corpus)
        plan = session.plan(request)
        with AsyncExecutor(max_workers=2) as bridge:
            assert bridge.run(session, request, plan) == expected

    def test_execute_without_store(self, corpus, expected):
        assert Session(use_store=False).execute(HashRequest(corpus)) == expected

    def test_intern_request_matches_intern_many(self, corpus):
        serial = Session()
        ids = serial.execute(InternRequest(corpus))
        assert ids == Session().intern_many(corpus)
        hashes = [serial.store.entry(i).hash for i in ids]
        assert hashes == [alpha_hash_all(e).root_hash for e in corpus]

    def test_executor_registry(self):
        assert get_executor("serial") is get_executor("serial")
        assert sorted(EXECUTORS) == ["async", "serial"]
        assert get_executor("async") is not get_executor("async")  # stateful
        with pytest.raises(KeyError, match="unknown executor"):
            get_executor("warp")


class TestLegacyKwargShim:
    """The per-call ``workers=`` / ``mode=`` / ``engine=`` kwargs of
    ``Session.hash_corpus`` / ``intern_many`` are gone: the engine hint
    rides on a request passed to ``execute``."""

    def test_hash_corpus_kwargs_are_rejected(self, corpus, expected):
        session = Session()
        with pytest.raises(TypeError):
            session.hash_corpus(corpus, engine="arena-scalar")
        with pytest.raises(TypeError):
            session.hash_corpus(corpus, workers=2)
        with pytest.raises(TypeError):
            session.hash_corpus(corpus, mode="thread")
        request = HashRequest(corpus, engine="arena-scalar")
        assert session.execute(request) == expected

    def test_intern_many_kwargs_are_rejected(self, corpus):
        reference = Session().intern_many(corpus)
        session = Session()
        with pytest.raises(TypeError):
            session.intern_many(corpus, engine="arena-scalar")
        with pytest.raises(TypeError):
            session.intern_many(corpus, workers=2)
        request = InternRequest(corpus, engine="arena-scalar")
        assert session.execute(request) == reference

    def test_plain_calls_do_not_warn(self, corpus, expected):
        import warnings

        session = Session()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert session.hash_corpus(corpus) == expected
            session.intern_many(corpus)


class _EntryPointStub:
    def __init__(self, name, target):
        self.name = name
        self._target = target

    def load(self):
        if isinstance(self._target, Exception):
            raise self._target
        return self._target


@pytest.fixture
def clean_registry():
    """Let a test register plugin backends and always clean them up."""
    added = []
    yield added
    for name in added:
        BACKENDS.pop(name, None)
        _ALIASES.pop(name, None)


class TestEntryPointBackends:
    def test_plain_callable_is_wrapped(self, monkeypatch, clean_registry):
        import repro.api.backends as backends_module

        def fake_hash_all(expr, combiners=None):
            return alpha_hash_all(expr, combiners)

        monkeypatch.setattr(
            backends_module,
            "_iter_entry_points",
            lambda: (_EntryPointStub("plugin_hash", fake_hash_all),),
        )
        clean_registry.append("plugin_hash")
        loaded = load_entry_point_backends(refresh=True)
        assert loaded == ("plugin_hash",)
        backend = get_backend("plugin_hash")
        assert backend.kind == "plugin"
        assert not backend.store_backed
        expr = parse(r"\x. x + 7")
        assert (
            backend.hash_all(expr).root_hash == alpha_hash_all(expr).root_hash
        )
        # The Session front door sees it like any registered backend.
        assert Session(backend="plugin_hash").hash(expr) == alpha_hash_all(
            expr
        ).root_hash

    def test_ready_backend_passes_through(self, monkeypatch, clean_registry):
        import repro.api.backends as backends_module
        from repro.api import FunctionBackend

        ready = FunctionBackend(
            name="plugin_ready",
            label="ready-made",
            kind="plugin",
            section="entry-point",
            store_backed=False,
            run=lambda e, c=None: alpha_hash_all(e, c),
        )
        monkeypatch.setattr(
            backends_module,
            "_iter_entry_points",
            lambda: (_EntryPointStub("plugin_ready", ready),),
        )
        clean_registry.append("plugin_ready")
        assert load_entry_point_backends(refresh=True) == ("plugin_ready",)
        assert get_backend("plugin_ready") is ready

    def test_broken_plugin_warns_and_is_skipped(
        self, monkeypatch, clean_registry
    ):
        import repro.api.backends as backends_module

        monkeypatch.setattr(
            backends_module,
            "_iter_entry_points",
            lambda: (
                _EntryPointStub("plugin_broken", RuntimeError("boom")),
                _EntryPointStub("plugin_shapeless", object()),
            ),
        )
        with pytest.warns(RuntimeWarning):
            assert load_entry_point_backends(refresh=True) == ()
        assert "plugin_broken" not in BACKENDS
        assert "plugin_shapeless" not in BACKENDS

    def test_builtins_are_never_clobbered(self, monkeypatch, clean_registry):
        import repro.api.backends as backends_module

        monkeypatch.setattr(
            backends_module,
            "_iter_entry_points",
            lambda: (_EntryPointStub("ours", lambda e, c=None: None),),
        )
        assert load_entry_point_backends(refresh=True) == ()
        assert get_backend("ours").kind == "table1"

    def test_scan_is_lazy_and_idempotent(self, monkeypatch, clean_registry):
        import repro.api.backends as backends_module

        calls = []

        def fake_iter():
            calls.append(1)
            return ()

        monkeypatch.setattr(
            backends_module, "_iter_entry_points", fake_iter
        )
        load_entry_point_backends(refresh=True)
        load_entry_point_backends()
        assert len(calls) == 1  # second call short-circuits
