"""The planning stage: resolve a request into an inspectable plan.

The :class:`Planner` turns a declarative :class:`~repro.api.request.
HashRequest` / :class:`~repro.api.request.InternRequest` plus a
:class:`~repro.api.session.Session` into an :class:`ExecutionPlan` --
every decision the scattered kwargs of PRs 3-4 used to make inline
(backend, arena kernel, executor) is made **here, once**, and the
result is a frozen record the caller can inspect, log, or ship over
the wire before anything runs::

    plan = session.plan(HashRequest(corpus, engine="auto"))
    print(plan.explain())       # why each choice was made
    session.execute(request, plan=plan)

Engine policy
-------------

The arena kernel is the one batch engine.  ``engine="auto"`` picks its
kernel by the corpus' total node count: the vectorized kernel from
:data:`~repro.core.arena.VEC_MIN_NODES` nodes up when NumPy is
importable, the scalar kernel otherwise.  The rule lives in
:func:`repro.core.arena.choose_kernel`, which the store's batch entry
points call too, so a planned request and a direct
``ExprStore.hash_corpus`` call can never disagree.

Executor policy
---------------

Every request runs in-process on the serial executor: hash batches
through ``ExprStore.hash_corpus``, intern batches through
``ExprStore.intern_many``.  There is no process fan-out.  Flatten runs
in the caller and is most of a batch (about 89% on the 600k-node
benchmark corpus), so fanning out the kernel alone is capped near 1.1x
by Amdahl's law, and on a 2-CPU host a worker pool measured slower
than serial at every corpus size (see the README's "Scaling" section).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from repro.core import arena
from repro.core.arena import VEC_MIN_NODES, choose_kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.request import HashRequest
    from repro.api.session import Session

__all__ = ["ExecutionPlan", "Planner", "PlanError"]


class PlanError(ValueError):
    """A request cannot be planned against this session."""


@dataclass(frozen=True)
class ExecutionPlan:
    """Every resolved decision for one request, before anything runs.

    ``engine`` and ``kernel`` are concrete (no ``"auto"``);
    ``executor`` names the registered
    executor that will carry the plan out (:mod:`repro.api.executors`);
    ``reasons`` records one line per decision for :meth:`explain`.
    """

    kind: str  #: ``"hash"`` or ``"intern"``
    backend: str  #: resolved unified-registry backend name
    store_backed: bool  #: whether the store's memo serves this backend
    engine: str  #: always ``"arena"``, the one batch engine
    executor: str  #: always ``"serial"``
    corpus_items: int  #: expressions in the request
    total_nodes: int  #: total AST nodes across the corpus
    bits: int  #: combiner width the job will run at
    seed: int  #: combiner seed the job will run at
    num_shards: Optional[int] = None  #: sharded-store fan-in, if any
    kernel: str = "scalar"  #: arena kernel: ``"vec"`` or ``"scalar"``
    reasons: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        """A JSON-compatible view (the service API returns this)."""
        return asdict(self)

    def explain(self) -> str:
        """A human-readable account of every planning decision."""
        head = (
            f"{self.kind} {self.corpus_items} expression(s), "
            f"{self.total_nodes} nodes -> engine={self.engine}, "
            f"kernel={self.kernel}, "
            f"executor={self.executor}, "
            f"backend={self.backend}"
        )
        return "\n".join([head, *(f"  - {r}" for r in self.reasons)])


class Planner:
    """Resolves requests against a session into :class:`ExecutionPlan`s.

    Stateless; a session owns one and consults it from
    :meth:`~repro.api.session.Session.plan`.
    """

    def plan(self, session: "Session", request: "HashRequest") -> "ExecutionPlan":
        reasons: list[str] = []
        combiners = session.combiners

        # Determinism hints: a request pinned to one hash family must
        # never silently run under another.
        if request.bits is not None and request.bits != combiners.bits:
            raise PlanError(
                f"request pins bits={request.bits} but the session hashes "
                f"at {combiners.bits} bits"
            )
        if request.seed is not None and request.seed != combiners.seed:
            raise PlanError(
                f"request pins seed={request.seed} but the session hashes "
                f"with seed {combiners.seed}"
            )

        backend = session.backend
        if request.backend is not None:
            from repro.api.backends import get_backend

            try:
                backend = get_backend(request.backend)
            except KeyError as exc:
                raise PlanError(str(exc)) from None
            if backend is not session.backend:
                reasons.append(
                    f"backend {backend.name!r} overrides the session's "
                    f"{session.backend.name!r}"
                )

        store = session.store
        store_backed = store is not None and backend.store_backed
        if request.kind == "intern":
            if store is None:
                raise PlanError(
                    "intern requests need a store; this session was built "
                    "with use_store=False"
                )
            store_backed = True  # interning is defined over the store
        elif not store_backed:
            reasons.append(
                f"backend {backend.name!r} times its own pass per expression"
            )

        # The engine hint falls back to the session's configured default.
        engine_hint = request.engine or session.config.engine

        total_nodes = request.total_nodes
        try:
            kernel = choose_kernel(engine_hint, total_nodes)
        except ValueError as exc:
            raise PlanError(str(exc)) from None
        if engine_hint != "auto":
            reasons.append(f"kernel {kernel!r} forced by engine {engine_hint!r}")
        elif not arena.HAVE_NUMPY:
            reasons.append("auto kernel -> scalar: NumPy missing, scalar fallback")
        else:
            reasons.append(
                f"auto kernel -> {kernel}: {total_nodes} nodes "
                f"{'>=' if kernel == 'vec' else '<'} crossover {VEC_MIN_NODES}"
            )

        num_shards = getattr(store, "num_shards", None)
        return ExecutionPlan(
            kind=request.kind,
            backend=backend.name,
            store_backed=store_backed,
            engine="arena",
            executor="serial",
            corpus_items=len(request.exprs),
            total_nodes=total_nodes,
            bits=combiners.bits,
            seed=combiners.seed,
            num_shards=num_shards,
            kernel=kernel,
            reasons=tuple(reasons),
        )
