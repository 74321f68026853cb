"""Executors: the things that actually run an :class:`ExecutionPlan`.

The third stage of the request -> plan -> execute pipeline.  An
executor receives the session, the original request and the resolved
plan, and drives the store's batch verbs (``ExprStore.hash_corpus`` /
``intern_many``) in-process, so results are bit-identical to calling
those verbs directly.

Two executors ship:

* :class:`SerialExecutor` (``"serial"``) -- in-process, store-batched
  when the backend is store-backed, otherwise one backend pass per
  expression;
* :class:`AsyncExecutor` (``"async"``) -- a thread bridge that runs
  the serial executor off the calling thread and returns a
  ``concurrent.futures.Future``; :class:`~repro.api.aio.AsyncSession`
  builds its asyncio surface on it.

The registry is pluggable like the backend registry: third parties may
:func:`register_executor` their own (a tracing executor, a remote
dispatcher) and select it by name.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.plan import ExecutionPlan
    from repro.api.request import HashRequest
    from repro.api.session import Session

__all__ = [
    "Executor",
    "SerialExecutor",
    "AsyncExecutor",
    "EXECUTORS",
    "get_executor",
    "register_executor",
]


@runtime_checkable
class Executor(Protocol):
    """What the execute stage needs: a named ``run`` over (session,
    request, plan) returning one result per corpus item."""

    name: str

    def run(
        self, session: "Session", request: "HashRequest", plan: "ExecutionPlan"
    ) -> list[int]:
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Run the plan in-process, through the store when possible."""

    name = "serial"

    def run(self, session, request, plan) -> list[int]:
        corpus = list(request.exprs)
        engine = f"arena-{plan.kernel}"
        if plan.kind == "intern":
            store = session._require_store("intern requests")
            return store.intern_many(corpus, engine=engine)
        if plan.store_backed:
            return session.store.hash_corpus(corpus, engine=engine)
        from repro.api.backends import get_backend

        backend = get_backend(plan.backend)
        return [
            backend.hash_all(e, session.combiners).root_hash for e in corpus
        ]


class AsyncExecutor:
    """A thread bridge over the serial executor.

    ``submit`` runs the plan through :class:`SerialExecutor` on a
    private thread pool and returns a ``concurrent.futures.Future``;
    ``run`` blocks on it, satisfying the :class:`Executor` protocol.
    Jobs against one session are serialised with a lock -- the store's
    summary memo is the shared resource.  A bounded ``max_workers``
    caps the threads; :class:`~repro.api.aio.AsyncSession` adds the
    asyncio semantics (awaitables, cancellation, bounded in-flight
    jobs) on top.
    """

    name = "async"

    def __init__(self, max_workers: int = 4):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._threads: Optional[ThreadPoolExecutor] = None
        self._session_lock = threading.Lock()

    def _ensure(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-async",
            )
        return self._threads

    def submit(self, session, request, plan) -> "Future[list[int]]":
        def job() -> list[int]:
            with self._session_lock:
                return _SERIAL.run(session, request, plan)

        return self._ensure().submit(job)

    def run(self, session, request, plan) -> list[int]:
        return self.submit(session, request, plan).result()

    def close(self) -> None:
        threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=True)

    def __enter__(self) -> "AsyncExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: The executor registry: name -> zero-argument factory.  Stateless
#: executors are shared singletons; the async executor owns threads, so
#: every lookup builds a fresh one for its caller to manage.
EXECUTORS: dict[str, Callable[[], Executor]] = {}


def register_executor(name: str, factory: Callable[[], Executor]) -> None:
    """Add an executor factory under ``name`` (duplicates are errors)."""
    if name in EXECUTORS:
        raise ValueError(f"executor name {name!r} is already registered")
    EXECUTORS[name] = factory


# lint: returns SerialExecutor|AsyncExecutor
def get_executor(name: str) -> Executor:
    """Build/fetch the executor registered under ``name``."""
    factory = EXECUTORS.get(name)
    if factory is None:
        raise KeyError(
            f"unknown executor {name!r}; available: {sorted(EXECUTORS)}"
        )
    return factory()


_SERIAL = SerialExecutor()
register_executor("serial", lambda: _SERIAL)
register_executor("async", AsyncExecutor)
