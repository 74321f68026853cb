"""``AsyncSession``: the asyncio front end over the Session pipeline.

The ROADMAP's "async sessions" item: a server (or any event loop) wants
to interleave several corpus jobs without blocking on them.
:class:`AsyncSession` wraps a synchronous :class:`~repro.api.session.
Session` and exposes awaitable corpus operations::

    async with AsyncSession(engine="auto") as asession:
        hashes = await asession.hash_corpus_async(corpus)
        ids = await asession.intern_many_async(corpus)

        jobs = [asession.hash_corpus_async(c) for c in corpora]
        results = await asyncio.gather(*jobs)      # interleaved

Semantics:

* **Same bits.**  Every job goes through the same request -> plan ->
  execute pipeline as the synchronous session, so results are
  bit-identical to ``Session.hash_corpus`` / ``intern_many``.
* **Bounded in-flight.**  At most ``max_in_flight`` jobs run at once
  (an ``asyncio.Semaphore``); further submissions queue as awaitables
  without spawning threads.
* **Cancellation.**  Cancelling a pending job (still waiting on the
  semaphore, or queued behind the thread bridge) prevents it from ever
  touching the session; cancelling a *running* job lets the worker
  thread finish its store transaction and discards the result -- the
  store is never left mid-write and the session stays reusable.
  (Hashing is pure; interning is transactional per call.)
* **One loop at a time.**  The semaphore binds to the first event loop
  that awaits a job; use one ``AsyncSession`` per loop (they are cheap
  -- the expensive part, the store, lives on the inner session,
  which may be shared sequentially across loops).

The blocking work runs on an :class:`~repro.api.executors.AsyncExecutor`
thread bridge.  Jobs against one session are serialised at the store
boundary (the summary memo is the shared mutable resource), so the
bridge buys responsiveness for the event loop, not parallel hashing.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Optional

from repro.api.executors import AsyncExecutor
from repro.api.plan import ExecutionPlan
from repro.api.request import HashRequest, InternRequest
from repro.api.session import Session
from repro.lang.expr import Expr

__all__ = ["AsyncSession"]


class AsyncSession:
    """Awaitable corpus hashing/interning over a synchronous session.

    Construct around an existing session (shared store)
    or from :class:`~repro.api.session.SessionConfig` keywords, which
    build a private session that :meth:`close` tears down::

        AsyncSession(session)                  # borrow
        AsyncSession(engine="auto")            # own
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        *,
        max_in_flight: int = 4,
        **session_kwargs,
    ):
        if session is not None and session_kwargs:
            raise TypeError(
                "pass either an existing session or Session keywords, not both"
            )
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.session = Session(**session_kwargs) if session is None else session
        self._owns_session = session is None
        self.max_in_flight = max_in_flight
        self._bridge = AsyncExecutor(max_workers=max_in_flight)
        self._semaphore: Optional[asyncio.Semaphore] = None

    # -- submission ------------------------------------------------------------

    def _sem(self) -> asyncio.Semaphore:
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.max_in_flight)
        return self._semaphore

    async def execute_async(
        self, request: HashRequest, plan: Optional[ExecutionPlan] = None
    ) -> list[int]:
        """Awaitable :meth:`Session.execute`: plan (cheap, inline) then
        run the executor off-loop, bounded by ``max_in_flight``."""
        if plan is None:
            plan = self.session.plan(request)
        async with self._sem():
            future = self._bridge.submit(self.session, request, plan)
            try:
                # wrap_future propagates asyncio-side cancellation to the
                # concurrent future: a not-yet-started job is withdrawn
                # before it touches the session.
                return await asyncio.wrap_future(future)
            except asyncio.CancelledError:
                future.cancel()
                raise

    async def hash_corpus_async(
        self,
        exprs: Iterable[Expr],
        *,
        backend: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> list[int]:
        """Awaitable corpus hashing; bit-identical to the sync path."""
        return await self.execute_async(
            HashRequest(exprs, backend=backend, engine=engine)
        )

    async def intern_many_async(
        self,
        exprs: Iterable[Expr],
        *,
        engine: Optional[str] = None,
    ) -> list[int]:
        """Awaitable batch interning (same contract as
        :meth:`Session.intern_many`)."""
        return await self.execute_async(InternRequest(exprs, engine=engine))

    async def hash_async(self, expr: Expr) -> int:
        """Awaitable single-expression root hash."""
        return (await self.hash_corpus_async([expr]))[0]

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut down the thread bridge (and the session, if owned).

        Idempotent.  A borrowed session is left running -- its owner
        closes it.
        """
        self._bridge.close()
        if self._owns_session:
            self.session.close()

    async def aclose(self) -> None:
        """Awaitable :meth:`close` (runs the blocking shutdown off-loop)."""
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    def __enter__(self) -> "AsyncSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    async def __aenter__(self) -> "AsyncSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AsyncSession({self.session!r}, "
            f"max_in_flight={self.max_in_flight})"
        )
