"""Declarative work requests: what to run, not how to run it.

PRs 3 and 4 grew the execution knobs (``engine``, shard counts)
organically onto every call site; this module
is the other half of the redesign that pulls them back behind one
declarative record.  A request carries *intent* only:

* :class:`HashRequest` -- "alpha-hash this corpus", plus optional
  backend, determinism hints (``bits``/``seed``, validated against the
  executing session) and the arena kernel hint (``engine``);
* :class:`InternRequest` -- "intern this corpus", same hints.

``None`` for any hint means "the session's configured default".  A
:class:`~repro.api.plan.Planner` resolves a request against a session
into an inspectable :class:`~repro.api.plan.ExecutionPlan`, and an
executor (:mod:`repro.api.executors`) runs the plan::

    request = HashRequest(corpus, engine="auto")
    plan = session.plan(request)        # look before you leap
    hashes = session.execute(request)   # or execute(request, plan)

Requests are frozen: the same request can be planned against several
sessions, logged, or shipped over the wire (the :mod:`repro.service`
server reconstructs one per HTTP call).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

from repro.core.arena import ENGINE_CHOICES
from repro.lang.expr import Expr

__all__ = ["HashRequest", "InternRequest", "ENGINES"]

#: Accepted ``engine`` hints (``None`` defers to the session default).
#: One tuple with the kernel layer (``repro.core.arena``): ``"auto"``
#: picks the arena kernel by corpus size, ``"arena-vec"`` forces the
#: vectorized kernel and ``"arena-scalar"`` the pure-Python one.
ENGINES = ENGINE_CHOICES


def _freeze_corpus(exprs: Iterable[Expr]) -> tuple[Expr, ...]:
    corpus = tuple(exprs)
    for item in corpus:
        if not isinstance(item, Expr):
            raise TypeError(
                f"corpus items must be expressions, got {type(item).__name__}"
            )
    return corpus


@dataclass(frozen=True, init=False, repr=False)
class HashRequest:
    """One corpus-hashing job, declaratively.

    Parameters
    ----------
    exprs:
        The corpus (materialised into a tuple; order defines the output
        order).
    backend:
        Unified-registry backend name; ``None`` means the session's.
    engine:
        Arena kernel hint (:data:`ENGINES`): ``"auto"`` /
        ``"arena-scalar"`` / ``"arena-vec"``; ``None`` defers to the
        session default.
    bits / seed:
        Determinism hints: when set, planning fails loudly unless the
        executing session's combiner family matches -- a request built
        for one hash family can never silently run under another.
    """

    exprs: tuple[Expr, ...] = field(repr=False)
    backend: Optional[str] = None
    engine: Optional[str] = None
    bits: Optional[int] = None
    seed: Optional[int] = None

    #: What the planner plans this request as (subclasses override).
    kind = "hash"

    def __init__(self, exprs: Iterable[Expr], **hints):
        object.__setattr__(self, "exprs", _freeze_corpus(exprs))
        allowed = {f.name for f in fields(self)} - {"exprs"}
        for name in allowed:
            object.__setattr__(self, name, hints.pop(name, None))
        if hints:
            raise TypeError(
                f"unknown request hint(s): {sorted(hints)} "
                f"(accepted: {sorted(allowed)})"
            )
        self._validate()

    def _validate(self) -> None:
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINES)}, "
                f"got {self.engine!r}"
            )
        if self.bits is not None and self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")

    def __len__(self) -> int:
        return len(self.exprs)

    @property
    def total_nodes(self) -> int:
        """Total AST nodes in the corpus (``Expr.size`` is O(1))."""
        return sum(expr.size for expr in self.exprs)

    def hints(self) -> dict:
        """The non-default hints, for logging and wire encoding."""
        out = {}
        for f in fields(self):
            if f.name == "exprs":
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out

    def __repr__(self) -> str:
        hints = ", ".join(f"{k}={v!r}" for k, v in self.hints().items())
        return (
            f"{type(self).__name__}({len(self.exprs)} exprs"
            + (f", {hints}" if hints else "")
            + ")"
        )


class InternRequest(HashRequest):
    """One corpus-interning job: same hints, interning semantics.

    Interning always needs a store (planning fails on store-less
    sessions) and runs through the arena bulk intern (see
    :mod:`repro.api.plan`).
    """

    kind = "intern"
