"""Tests for :class:`repro.api.AsyncSession` (ISSUE 5).

The contract: async results == serial results bit-for-bit, concurrent
corpus jobs interleave safely, cancellation leaves the session (and its
worker pools) reusable, and in-flight jobs are bounded.
"""

import asyncio
import random
import threading

import pytest

from repro.api import AsyncSession, HashRequest, Session
from repro.api.backends import _ALIASES, BACKENDS, FunctionBackend, register_backend
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.parser import parse


def mixed_corpus(n_items: int, seed: int = 9, size: int = 40):
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_items):
        if corpus and rng.random() < 0.2:
            corpus.append(rng.choice(corpus))
        else:
            corpus.append(random_expr(size, rng=rng, p_let=0.2, p_lit=0.2))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return mixed_corpus(120)


@pytest.fixture(scope="module")
def expected(corpus):
    return [alpha_hash_all(e).root_hash for e in corpus]


class TestAsyncBitIdentity:
    def test_hash_corpus_async_equals_serial(self, corpus, expected):
        async def main():
            async with AsyncSession() as asession:
                return await asession.hash_corpus_async(corpus)

        assert asyncio.run(main()) == expected

    def test_async_pool_plan_equals_serial(self, corpus, expected):
        async def main():
            async with AsyncSession() as asession:
                plan = asession.session.plan(HashRequest(corpus))
                assert plan.executor == "serial"
                return await asession.execute_async(HashRequest(corpus), plan)

        assert asyncio.run(main()) == expected

    def test_hash_async_single(self):
        expr = parse(r"\x. x + 7")

        async def main():
            async with AsyncSession() as asession:
                return await asession.hash_async(expr)

        assert asyncio.run(main()) == alpha_hash_all(expr).root_hash

    def test_intern_many_async_equals_serial(self, corpus):
        reference = Session().intern_many(corpus)

        async def main():
            async with AsyncSession() as asession:
                return await asession.intern_many_async(corpus)

        assert asyncio.run(main()) == reference

    def test_engine_hints_flow_through(self, corpus, expected):
        async def main():
            async with AsyncSession() as asession:
                scalar = await asession.hash_corpus_async(
                    corpus, engine="arena-scalar"
                )
                auto = await asession.hash_corpus_async(corpus, engine="auto")
                return scalar, auto

        scalar, auto = asyncio.run(main())
        assert scalar == expected and auto == expected


class TestConcurrentJobs:
    def test_gathered_jobs_all_match(self, expected, corpus):
        corpora = [corpus, list(reversed(corpus)), corpus[:60]]
        wanted = [expected, list(reversed(expected)), expected[:60]]

        async def main():
            async with AsyncSession(max_in_flight=3) as asession:
                return await asyncio.gather(
                    *(asession.hash_corpus_async(c) for c in corpora)
                )

        assert asyncio.run(main()) == wanted

    def test_shared_session_store_accumulates(self, corpus):
        session = Session()

        async def main():
            async with AsyncSession(session) as asession:
                await asyncio.gather(
                    asession.intern_many_async(corpus[:60]),
                    asession.intern_many_async(corpus[60:]),
                )

        asyncio.run(main())
        # The borrowed session survives the async wrapper's close().
        assert len(session.store) > 0
        assert session.hash_corpus(corpus) == [
            alpha_hash_all(e).root_hash for e in corpus
        ]

    def test_bounded_in_flight(self, corpus):
        """At most max_in_flight jobs touch the session at once."""
        active = 0
        peak = 0
        gate = threading.Lock()

        def slow_hash_all(expr, combiners=None):
            nonlocal active, peak
            with gate:
                active += 1
                peak = max(peak, active)
            try:
                return alpha_hash_all(expr, combiners)
            finally:
                with gate:
                    active -= 1

        name = "_test_slow_backend"
        register_backend(
            FunctionBackend(
                name=name,
                label="slow test backend",
                kind="plugin",
                section="test",
                store_backed=False,
                run=slow_hash_all,
            )
        )
        try:

            async def main():
                async with AsyncSession(
                    backend=name, use_store=False, max_in_flight=2
                ) as asession:
                    jobs = [
                        asession.hash_corpus_async(corpus[:10])
                        for _ in range(6)
                    ]
                    await asyncio.gather(*jobs)

            asyncio.run(main())
            assert peak <= 2
        finally:
            BACKENDS.pop(name, None)
            _ALIASES.pop(name, None)


class TestCancellation:
    def test_cancelled_pending_job_never_runs(self, corpus, expected):
        """Cancel jobs queued behind max_in_flight=1; the session and its
        pools stay reusable and later jobs still agree with serial."""

        async def main():
            async with AsyncSession(max_in_flight=1) as asession:
                first = asyncio.ensure_future(
                    asession.hash_corpus_async(corpus)
                )
                pending = [
                    asyncio.ensure_future(asession.hash_corpus_async(corpus))
                    for _ in range(3)
                ]
                await asyncio.sleep(0)  # let the first job enter the bridge
                for job in pending:
                    job.cancel()
                results = await asyncio.gather(
                    first, *pending, return_exceptions=True
                )
                assert results[0] == expected
                assert all(
                    isinstance(r, asyncio.CancelledError) for r in results[1:]
                )
                # The wrapper is still usable after cancellations.
                return await asession.hash_corpus_async(corpus)

        assert asyncio.run(main()) == expected

    def test_pool_reusable_after_cancellation(self, corpus, expected):
        """A borrowed session keeps working across a cancelled job."""
        session = Session()

        async def main():
            async with AsyncSession(session, max_in_flight=1) as asession:
                running = asyncio.ensure_future(
                    asession.hash_corpus_async(corpus)
                )
                victim = asyncio.ensure_future(
                    asession.hash_corpus_async(corpus)
                )
                await asyncio.sleep(0)
                victim.cancel()
                first, second = await asyncio.gather(
                    running, victim, return_exceptions=True
                )
                assert first == expected
                assert isinstance(second, asyncio.CancelledError)
                return await asession.hash_corpus_async(corpus)

        assert asyncio.run(main()) == expected
        # ...and the synchronous session still works afterwards.
        assert session.execute(HashRequest(corpus)) == expected


class TestLifecycle:
    def test_owned_session_closes_with_wrapper(self):
        asession = AsyncSession(engine="auto")
        inner = asession.session
        asession.close()
        asession.close()  # idempotent
        assert asession._bridge._threads is None
        expr = parse("x")
        assert inner.hash_corpus([expr]) == [alpha_hash_all(expr).root_hash]

    def test_borrow_xor_kwargs(self):
        with pytest.raises(TypeError, match="not both"):
            AsyncSession(Session(), engine="auto")

    def test_max_in_flight_validated(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            AsyncSession(max_in_flight=0)

    def test_apps_accept_async_session(self):
        from repro.apps.cse import cse

        from repro.apps._session_args import resolve_session

        expr = parse("(a + (v + 7)) * (v + 7)")
        with AsyncSession() as asession:
            # The shared resolver unwraps to the inner session's pieces.
            combiners, store = resolve_session(asession, None, None)
            assert combiners is asession.session.combiners
            assert store is asession.session.store
            result = cse(expr, session=asession)
        assert result.final_size <= expr.size
