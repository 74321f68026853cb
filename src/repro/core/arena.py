"""Arena-compiled corpora: post-order struct-of-arrays + an array-speed kernel.

The serial hashing paths walk a Python object graph: every node costs
attribute lookups, a tuple push/pop on an explicit stack, and dict-keyed
memo probes by ``id()``.  For large corpora that interpreter overhead --
not the O(n log n) map work the paper bounds -- dominates wall time.
This module *compiles* a corpus once into an :class:`ExprArena`:

* **Post-order struct-of-arrays.**  One flat index space; node ``i``'s
  children always sit at indices ``< i``.  Per node the arena stores an
  opcode (``op``), child indices (``left``/``right``), an interned
  name/literal id (``aux``), and the subtree's ``sizes``/``depths`` --
  six contiguous arrays instead of a tree of objects.

* **Flatten-time deduplication.**  Structurally identical subtrees
  collapse to one arena node while flattening (alpha-hash summaries are
  compositional, Section 3, so hashing each structural class once is
  sound).  Real corpora repeat small subtrees massively -- the 600k-node
  benchmark corpus compiles to ~41% unique nodes -- and every duplicate
  is work the kernel never does.

* **An iterative single-pass kernel.**  :func:`arena_hash` runs the
  paper's Section 5 algorithm over the arrays: integer-indexed memo
  lists instead of ``id()``-keyed dicts, no recursion, no per-node
  memo-record snapshots, and (at the default single-lane widths) the
  splitmix64 combiner chains inlined into the loop.  Hashes are
  **bit-identical** to :func:`repro.core.hashed.alpha_hash_all` -- the
  test wall checks this on adversarial corpora at several widths.

* **One engine, two kernels.**  Every batch hash and intern runs
  through an arena; only the kernel varies.  :func:`arena_hash_vec`
  runs each tree level as NumPy array operations and wins once a
  corpus reaches :data:`VEC_MIN_NODES` nodes; below that the scalar
  :func:`arena_hash` is faster.  :func:`choose_kernel` is the one place
  that rule lives (``engine="auto"``); ``"arena-scalar"`` and
  ``"arena-vec"`` pin a kernel.

Arenas also pickle cheaply: a handful of flat arrays, so arbitrarily
deep corpora round-trip iteratively in O(bytes), where pickling the
trees themselves would overflow the C stack.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

from repro.core.combiners import (
    _GOLDEN,
    _M0,
    _M1,
    _MASK64,
    HashCombiners,
    default_combiners,
)
from repro.core.kernel import combine_chain
from repro.core.position_tree import pt_here_hash
from repro.core.structure import slit_hash, svar_hash
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var

try:  # NumPy is an optional extra (``repro[vec]``): the vectorized
    import numpy as _np  # kernel needs it, everything else falls back.
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None

#: True when the vectorized kernel is available in this interpreter.
HAVE_NUMPY = _np is not None

__all__ = [
    "ExprArena",
    "arena_hash",
    "arena_hash_vec",
    "arena_hash_any",
    "flatten_corpus",
    "ENGINE_CHOICES",
    "HAVE_NUMPY",
    "VEC_MIN_NODES",
    "choose_kernel",
    "OP_VAR",
    "OP_LIT",
    "OP_LAM",
    "OP_APP",
    "OP_LET",
]

OP_VAR, OP_LIT, OP_LAM, OP_APP, OP_LET = 0, 1, 2, 3, 4

#: Every value accepted where an ``engine`` is requested (CLI, requests,
#: session config, wire hints).  The arena kernel is the one batch
#: engine; ``"auto"`` picks its kernel by corpus size (see
#: :func:`choose_kernel`), the other two pin one -- ``arena-vec``
#: errors without NumPy, ``arena-scalar`` runs anywhere.
ENGINE_CHOICES = ("auto", "arena-scalar", "arena-vec")

#: Total corpus nodes from which ``engine="auto"`` runs the vectorized
#: kernel.  Below it the scalar kernel wins: the vectorized kernel pays
#: a fixed per-level NumPy set-up that a small arena cannot amortise.
#: Measured crossover (2 CPUs, NumPy 2.4, ``ExprStore.hash_corpus`` and
#: hash-then-``intern_many`` on duplicate-free 60-node items): scalar
#: is ahead up to ~1.8k nodes, the two meet near 2k-2.4k, and vec leads
#: by 1.7x at 6k.
VEC_MIN_NODES = 2_000


def choose_kernel(engine: str, total_nodes: int) -> str:
    """The arena kernel (``"vec"`` / ``"scalar"``) that runs a corpus of
    ``total_nodes`` nodes under ``engine``.

    ``"auto"`` takes the vectorized kernel at or above
    :data:`VEC_MIN_NODES` when NumPy is importable, the scalar kernel
    otherwise.  Forcing ``"arena-vec"`` without NumPy is an error
    rather than a silent fallback (the caller asked for a specific
    performance envelope).
    """
    if engine == "auto":
        if HAVE_NUMPY and total_nodes >= VEC_MIN_NODES:
            return "vec"
        return "scalar"
    if engine == "arena-scalar":
        return "scalar"
    if engine == "arena-vec":
        if not HAVE_NUMPY:
            raise ValueError(
                "engine 'arena-vec' requires NumPy; install the repro[vec] "
                "extra or use 'arena-scalar'"
            )
        return "vec"
    raise ValueError(
        f"engine must be one of {', '.join(ENGINE_CHOICES)}, got {engine!r}"
    )


class ExprArena:
    """A corpus compiled to post-order struct-of-arrays form.

    Node ``i`` is described by:

    ``op[i]``
        One of :data:`OP_VAR`, :data:`OP_LIT`, :data:`OP_LAM`,
        :data:`OP_APP`, :data:`OP_LET`.
    ``left[i]`` / ``right[i]``
        Child arena indices (always ``< i``); ``-1`` when absent.  Lam
        keeps its body in ``left``; Let keeps ``bound`` in ``left`` and
        ``body`` in ``right``.
    ``aux[i]``
        Interned id: a ``names`` index for Var occurrences and Lam/Let
        binders, a ``literals`` index for Lit, ``-1`` for App.
    ``sizes[i]`` / ``depths[i]``
        Node count and height of the subtree (the structure tag of
        Section 4.8 is ``sizes[i]``; ``depths`` orders the vectorized
        kernel's levels and lets binder-depth diagnostics stay O(1)).

    Structurally identical subtrees share one index, so the arena is a
    maximally-shared DAG over *syntactic* classes (finer than the
    store's alpha-classes: two alpha-equivalent-but-renamed subtrees
    keep distinct arena nodes and collapse later, at intern time).

    Instances grow append-only through :meth:`flatten` and may be reused
    across corpora; the structural intern index is rebuilt lazily after
    unpickling, so the wire form is just the flat arrays and leaf
    tables.
    """

    __slots__ = (
        "op",
        "left",
        "right",
        "aux",
        "sizes",
        "depths",
        "names",
        "literals",
        "_name_ids",
        "_lit_ids",
        "_struct",
    )

    def __init__(self) -> None:
        self.op = bytearray()
        self.left = array("q")
        self.right = array("q")
        self.aux = array("q")
        self.sizes = array("q")
        self.depths = array("q")
        self.names: list[str] = []
        self.literals: list = []
        self._name_ids: dict[str, int] = {}
        self._lit_ids: dict[tuple, int] = {}
        self._struct: Optional[dict] = {}

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        # The structural index is derivable from the arrays; shipping it
        # would double the wire size for nothing.
        return (
            bytes(self.op),
            self.left,
            self.right,
            self.aux,
            self.sizes,
            self.depths,
            self.names,
            self.literals,
        )

    def __setstate__(self, state):
        op, self.left, self.right, self.aux, self.sizes, self.depths, names, lits = state
        self.op = bytearray(op)
        self.names = names
        self.literals = lits
        self._name_ids = {name: i for i, name in enumerate(names)}
        from repro.core.hashed import lit_cache_key

        self._lit_ids = {lit_cache_key(v): i for i, v in enumerate(lits)}
        self._struct = None  # rebuilt lazily if this arena keeps growing

    def _ensure_index(self) -> dict:
        """The structural intern index, rebuilt from the arrays if needed."""
        struct = self._struct
        if struct is None:
            struct = {}
            op, left, right, aux = self.op, self.left, self.right, self.aux
            for i in range(len(op)):
                opc = op[i]
                if opc == OP_VAR:
                    struct[aux[i] * 8] = i
                elif opc == OP_LIT:
                    struct[aux[i] * 8 + 1] = i
                elif opc == OP_LAM:
                    struct[(OP_LAM, aux[i], left[i])] = i
                elif opc == OP_APP:
                    struct[(OP_APP, left[i], right[i])] = i
                else:
                    struct[(OP_LET, aux[i], left[i], right[i])] = i
            self._struct = struct
        return struct

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of unique arena nodes."""
        return len(self.op)

    def stats(self) -> dict:
        """Shape accounting: unique nodes and leaf-table sizes."""
        return {
            "nodes": len(self.op),
            "names": len(self.names),
            "literals": len(self.literals),
            "bytes": (
                len(self.op)
                + sum(
                    arr.itemsize * len(arr)
                    for arr in (self.left, self.right, self.aux, self.sizes, self.depths)
                )
            ),
        }

    def max_depth(self, roots: Optional[Iterable[int]] = None) -> int:
        """Deepest subtree among ``roots`` (default: all nodes)."""
        depths = self.depths
        if roots is None:
            return max(depths) if depths else 0
        return max((depths[i] for i in roots), default=0)

    # -- compilation ---------------------------------------------------------

    def flatten(self, exprs: Iterable[Expr]) -> list[int]:
        """Compile ``exprs`` into the arena; return one root index each.

        Deduplicates three ways while walking: by object identity within
        the call (shared subtree objects are visited once), by
        structural identity against everything already in the arena, and
        by leaf-table interning of names and literal values.  The walk
        is iterative, so degenerate depth-50k chains compile fine.

        The stack holds bare nodes (no visited flags): a node whose
        children are not all interned yet re-pushes itself below them
        and is resolved on its second pop.  Columns are buffered in
        plain lists and flushed into the arrays once at the end (list
        appends are cheaper), and the structural index and leaf tables
        roll back on error -- a failed flatten (a foreign node kind)
        leaves the arena exactly as it was, safe to keep using.
        """
        struct = self._ensure_index()
        count0 = len(self.op)
        n_names0 = len(self.names)
        n_lits0 = len(self.literals)

        buffers: tuple[list[int], ...] = ([], [], [], [], [], [])
        roots: list[int] = []
        try:
            self._flatten_walk(exprs, roots, *buffers)
        except BaseException:
            # Roll back the shared tables: the buffered columns are
            # simply dropped, but the structural index and leaf tables
            # were written inline and would otherwise point at rows
            # that never get flushed.
            from repro.core.hashed import lit_cache_key

            for name in self.names[n_names0:]:
                del self._name_ids[name]
            del self.names[n_names0:]
            for value in self.literals[n_lits0:]:
                del self._lit_ids[lit_cache_key(value)]
            del self.literals[n_lits0:]
            self._struct = {
                key: idx for key, idx in struct.items() if idx < count0
            }
            raise

        op_b, left_b, right_b, aux_b, sizes_b, depths_b = buffers
        self.op.extend(op_b)
        self.left.extend(left_b)
        self.right.extend(right_b)
        self.aux.extend(aux_b)
        self.sizes.extend(sizes_b)
        self.depths.extend(depths_b)
        return roots

    def _flatten_walk(
        self, exprs, roots, op_b, left_b, right_b, aux_b, sizes_b, depths_b
    ) -> None:
        """The flatten loop proper, writing into the column buffers.

        Mutates the structural index and leaf tables inline;
        :meth:`flatten` owns the flush-or-rollback around it.
        """
        from repro.core.hashed import lit_cache_key

        struct = self._ensure_index()
        struct_get = struct.get
        name_ids, names = self._name_ids, self.names
        lit_ids, literals = self._lit_ids, self.literals
        idmemo: dict[int, int] = {}
        idmemo_get = idmemo.get
        count = len(self.op)

        for root in exprs:
            cached_root = idmemo_get(id(root))
            if cached_root is not None:
                roots.append(cached_root)
                continue
            stack: list[Expr] = [root]
            push = stack.append
            while stack:
                node = stack.pop()
                node_key = id(node)
                if node_key in idmemo:
                    continue
                cls = type(node)
                if cls is App:
                    fn = idmemo_get(id(node.fn))
                    arg = idmemo_get(id(node.arg))
                    if fn is None or arg is None:
                        push(node)
                        if arg is None:
                            push(node.arg)
                        if fn is None:
                            push(node.fn)
                        continue
                    key = (OP_APP, fn, arg)
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_APP)
                        left_b.append(fn)
                        right_b.append(arg)
                        aux_b.append(-1)
                        sizes_b.append(node.size)
                        depths_b.append(node.depth)
                    idmemo[node_key] = idx
                elif cls is Var:
                    name = node.name
                    nid = name_ids.get(name)
                    if nid is None:
                        name_ids[name] = nid = len(names)
                        names.append(name)
                    key = nid * 8
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_VAR)
                        left_b.append(-1)
                        right_b.append(-1)
                        aux_b.append(nid)
                        sizes_b.append(1)
                        depths_b.append(1)
                    idmemo[node_key] = idx
                elif cls is Lam:
                    body = idmemo_get(id(node.body))
                    if body is None:
                        push(node)
                        push(node.body)
                        continue
                    binder = node.binder
                    nid = name_ids.get(binder)
                    if nid is None:
                        name_ids[binder] = nid = len(names)
                        names.append(binder)
                    key = (OP_LAM, nid, body)
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_LAM)
                        left_b.append(body)
                        right_b.append(-1)
                        aux_b.append(nid)
                        sizes_b.append(node.size)
                        depths_b.append(node.depth)
                    idmemo[node_key] = idx
                elif cls is Let:
                    bound = idmemo_get(id(node.bound))
                    body = idmemo_get(id(node.body))
                    if bound is None or body is None:
                        push(node)
                        if body is None:
                            push(node.body)
                        if bound is None:
                            push(node.bound)
                        continue
                    binder = node.binder
                    nid = name_ids.get(binder)
                    if nid is None:
                        name_ids[binder] = nid = len(names)
                        names.append(binder)
                    key = (OP_LET, nid, bound, body)
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_LET)
                        left_b.append(bound)
                        right_b.append(body)
                        aux_b.append(nid)
                        sizes_b.append(node.size)
                        depths_b.append(node.depth)
                    idmemo[node_key] = idx
                elif cls is Lit:
                    value = node.value
                    lkey = lit_cache_key(value)
                    lid = lit_ids.get(lkey)
                    if lid is None:
                        lit_ids[lkey] = lid = len(literals)
                        literals.append(value)
                    key = lid * 8 + 1
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_LIT)
                        left_b.append(-1)
                        right_b.append(-1)
                        aux_b.append(lid)
                        sizes_b.append(1)
                        depths_b.append(1)
                    idmemo[node_key] = idx
                else:
                    raise TypeError(
                        f"cannot flatten non-expression node of type "
                        f"{type(node).__name__}"
                    )
            roots.append(idmemo[id(root)])

    # -- decompilation -------------------------------------------------------

    def closure(self, roots: Iterable[int]) -> bytearray:
        """Byte mask of every arena node reachable from ``roots``."""
        mask = bytearray(len(self.op))
        left, right = self.left, self.right
        stack = list(roots)
        while stack:
            i = stack.pop()
            if mask[i]:
                continue
            mask[i] = 1
            child = left[i]
            if child >= 0 and not mask[child]:
                stack.append(child)
            child = right[i]
            if child >= 0 and not mask[child]:
                stack.append(child)
        return mask

    def rebuild(self, index: int) -> Expr:
        """Reconstruct the expression rooted at ``index``.

        Shared arena nodes come back as shared :class:`Expr` objects (a
        maximally-shared tree); alpha-hashes are preserved by
        construction -- the round-trip test wall pins this.
        """
        mask = self.closure((index,))
        op, left, right, aux = self.op, self.left, self.right, self.aux
        names, literals = self.names, self.literals
        built: dict[int, Expr] = {}
        for i in range(index + 1):
            if not mask[i]:
                continue
            opc = op[i]
            if opc == OP_VAR:
                built[i] = Var(names[aux[i]])
            elif opc == OP_LIT:
                built[i] = Lit(literals[aux[i]])
            elif opc == OP_LAM:
                built[i] = Lam(names[aux[i]], built[left[i]])
            elif opc == OP_APP:
                built[i] = App(built[left[i]], built[right[i]])
            else:
                built[i] = Let(names[aux[i]], built[left[i]], built[right[i]])
        return built[index]


def flatten_corpus(
    exprs: Iterable[Expr], arena: Optional[ExprArena] = None
) -> tuple[ExprArena, list[int]]:
    """Compile a corpus: ``(arena, one root index per input)``."""
    if arena is None:
        arena = ExprArena()
    return arena, arena.flatten(exprs)


def arena_hash(
    arena: ExprArena, combiners: Optional[HashCombiners] = None
) -> list[int]:
    """Alpha-hash every arena node; ``tops[i]`` is node ``i``'s hash.

    The single post-order pass of Section 5 run at array speed: children
    sit at lower indices, so one ``for i in range(n)`` loop replaces the
    scheduling stack, and the per-node memo is three integer-indexed
    lists.  Free-variable maps are dicts keyed by interned name id; each
    map is consumed destructively by its *last* referencing parent and
    copied for earlier ones (``uses`` counts references), which keeps
    the Lemma 6.1 merge bound while letting deduplicated nodes feed any
    number of parents.

    Bit-identical to
    :func:`~repro.core.hashed.alpha_hash_all` at every width; the
    single-lane fast path below inlines the splitmix64 chains, the
    multi-lane widths go through the same recipes via
    :func:`~repro.core.kernel.combine_chain`.
    """
    if combiners is None:
        combiners = default_combiners()
    n = len(arena.op)

    # Plain lists index faster than array('q') (no per-access int
    # materialisation); the one-shot conversion is C-speed, cheap next
    # to the kernel.
    op = bytes(arena.op)
    left, right = arena.left.tolist(), arena.right.tolist()
    aux, sizes = arena.aux.tolist(), arena.sizes.tolist()

    indices = range(n)
    # Leaf tables: one hash per interned name / literal, not per node.
    name_h = [combiners.hash_name(name) for name in arena.names]
    lit_s = [slit_hash(combiners, value) for value in arena.literals]

    HERE = pt_here_hash(combiners)
    SVAR = svar_hash(combiners)
    NONE = combiners.NONE_HASH
    TRUE = combiners.TRUE_HASH
    FALSE = combiners.FALSE_HASH
    entry2 = combine_chain(combiners, "entry", 2)
    var_entry = [entry2(h, HERE) for h in name_h]

    # Integer-indexed memo arrays: structure hash, map hash, map, top.
    shs: list = [0] * n
    vmhs: list = [0] * n
    vms: list = [None] * n
    tops: list = [None] * n

    # Reference counts: how many parents will consume each node's map.
    uses = [0] * n
    for i in indices:
        child = left[i]
        if child >= 0:
            uses[child] += 1
        child = right[i]
        if child >= 0:
            uses[child] += 1

    if combiners._lanes == 1:
        _arena_hash_lane1(
            combiners, indices, op, left, right, aux, sizes,
            name_h, var_entry, lit_s, HERE, SVAR, NONE, TRUE, FALSE,
            shs, vmhs, vms, tops, uses,
        )
    else:
        _arena_hash_generic(
            combiners, indices, op, left, right, aux, sizes,
            name_h, var_entry, lit_s, HERE, SVAR, NONE, TRUE, FALSE,
            shs, vmhs, vms, tops, uses,
        )
    return tops


def _arena_hash_lane1(
    combiners, indices, op, left, right, aux, sizes,
    name_h, var_entry, lit_s, HERE, SVAR, NONE, TRUE, FALSE,
    shs, vmhs, vms, tops, uses,
):
    """Single-lane (bits <= 64) kernel with the combiner chains inlined.

    Every ``x = ...; h = x ^ (x >> 31)`` block below is one absorb step
    of :meth:`HashCombiners.combine`'s single-lane path; a chain masks
    once at the end, exactly like ``combine`` does.  Two extra tricks,
    both exact (they cache *chain states*, never outputs):

    * **Prefix caches.**  A chain's first absorbs often see a tiny value
      space -- ``sapp``/``slet``/``pt_join`` start with the structure
      tag (subtree sizes repeat massively across a corpus), ``slam``
      with the size, ``entry`` with one of a handful of name hashes --
      so the partially-absorbed state is memoised and the chain resumes
      from it.
    * **List-backed arrays.**  The ``array``/``bytearray`` columns are
      converted to plain lists once per pass: indexing a list returns a
      cached object where ``array('q')`` materialises a fresh int.

    Keep this in sync with ``_arena_hash_generic`` -- the differential
    wall runs both.
    """
    hmask = combiners.mask
    salts = combiners._salts
    S_ENTRY = salts["entry"][0]
    S_JOIN = salts["pt_join"][0]
    S_TOP = salts["top"][0]
    S_LAM = salts["slam"][0]
    S_APP = salts["sapp"][0]
    S_LET = salts["slet"][0]
    G, M64, M0, M1 = _GOLDEN, _MASK64, _M0, _M1

    # Per-name entry-chain states: entry(name, pos) resumes after the
    # name absorb, halving the per-entry work in merges and removals.
    entry_pre = []
    for nh in name_h:
        x = ((S_ENTRY ^ nh) + G) & M64
        x = ((x ^ (x >> 30)) * M0) & M64
        x = ((x ^ (x >> 27)) * M1) & M64
        entry_pre.append(x ^ (x >> 31))

    app_pre = {}  # (size << 1) | left_bigger -> state after size, flag
    lam_pre = {}  # size -> state after size
    let_pre = {}  # size -> state after size
    join_pre = {}  # tag -> state after tag

    for i in indices:
        opc = op[i]
        if opc == OP_APP:
            fn, arg = left[i], right[i]
            vm_fn, vm_arg = vms[fn], vms[arg]
            left_bigger = len(vm_fn) >= len(vm_arg)
            if left_bigger:
                big, small = fn, arg
            else:
                big, small = arg, fn
            # Take the big map for writing: steal on last use, copy else.
            ub = uses[big]
            if ub == 1:
                bvm = vms[big]
                vms[big] = None
            else:
                bvm = dict(vms[big])
            uses[big] = ub - 1
            bh = vmhs[big]
            svm = vms[small]
            tag = sizes[i]
            if svm:
                jp = join_pre.get(tag)
                if jp is None:
                    x = ((S_JOIN ^ tag) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    join_pre[tag] = jp = x ^ (x >> 31)
                bvm_get = bvm.get
                for nid, spos in svm.items():
                    old = bvm_get(nid)
                    # pt_join(tag, maybe(old), spos), resumed after tag
                    x = ((jp ^ (NONE if old is None else old)) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    h = x ^ (x >> 31)
                    x = ((h ^ spos) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    new = (x ^ (x >> 31)) & hmask
                    ep = entry_pre[nid]
                    if old is not None:
                        # XOR out entry(name, old)
                        x = ((ep ^ old) + G) & M64
                        x = ((x ^ (x >> 30)) * M0) & M64
                        x = ((x ^ (x >> 27)) * M1) & M64
                        bh ^= (x ^ (x >> 31)) & hmask
                    bvm[nid] = new
                    # XOR in entry(name, new)
                    x = ((ep ^ new) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    bh ^= (x ^ (x >> 31)) & hmask
            us = uses[small] - 1
            uses[small] = us
            if us == 0:
                vms[small] = None
            # sapp(size, flag, s_fn, s_arg), resumed after size + flag
            key = (tag << 1) | left_bigger
            h = app_pre.get(key)
            if h is None:
                x = ((S_APP ^ tag) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                h = x ^ (x >> 31)
                x = ((h ^ (TRUE if left_bigger else FALSE)) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                h = x ^ (x >> 31)
                app_pre[key] = h
            x = ((h ^ shs[fn]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ shs[arg]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            s = (x ^ (x >> 31)) & hmask
            vm, vh = bvm, bh
        elif opc == OP_VAR:
            nid = aux[i]
            s = SVAR
            vm = {nid: HERE}
            vh = var_entry[nid]
        elif opc == OP_LAM:
            body = left[i]
            ub = uses[body]
            if ub == 1:
                vm = vms[body]
                vms[body] = None
            else:
                vm = dict(vms[body])
            uses[body] = ub - 1
            vh = vmhs[body]
            pos = vm.pop(aux[i], None)
            if pos is not None:
                # XOR out entry(binder, pos)
                x = ((entry_pre[aux[i]] ^ pos) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                vh ^= (x ^ (x >> 31)) & hmask
            # slam(size, maybe(pos), s_body), resumed after size
            tag = sizes[i]
            h = lam_pre.get(tag)
            if h is None:
                x = ((S_LAM ^ tag) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                lam_pre[tag] = h = x ^ (x >> 31)
            x = ((h ^ (NONE if pos is None else pos)) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ shs[body]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            s = (x ^ (x >> 31)) & hmask
        elif opc == OP_LIT:
            s = lit_s[aux[i]]
            vm = {}
            vh = 0
        else:  # OP_LET
            bound, body = left[i], right[i]
            # The binder scopes over the body only: remove it from the
            # body map first, then merge (matching the tree kernel).
            ub = uses[body]
            if ub == 1:
                vm_body = vms[body]
                vms[body] = None
            else:
                vm_body = dict(vms[body])
            uses[body] = ub - 1
            bh_body = vmhs[body]
            pos = vm_body.pop(aux[i], None)
            if pos is not None:
                x = ((entry_pre[aux[i]] ^ pos) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                bh_body ^= (x ^ (x >> 31)) & hmask
            vm_bound = vms[bound]
            left_bigger = len(vm_bound) >= len(vm_body)
            tag = sizes[i]
            if left_bigger:
                # bound is big: take it for writing, read the body map.
                ub = uses[bound]
                if ub == 1:
                    bvm = vms[bound]
                    vms[bound] = None
                else:
                    bvm = dict(vms[bound])
                uses[bound] = ub - 1
                bh = vmhs[bound]
                svm = vm_body
                small_slot = -1
            else:
                # body (already owned) is big; bound is read-only.
                bvm, bh = vm_body, bh_body
                svm = vm_bound
                small_slot = bound
            if svm:
                jp = join_pre.get(tag)
                if jp is None:
                    x = ((S_JOIN ^ tag) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    join_pre[tag] = jp = x ^ (x >> 31)
                bvm_get = bvm.get
                for nid, spos in svm.items():
                    old = bvm_get(nid)
                    x = ((jp ^ (NONE if old is None else old)) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    h = x ^ (x >> 31)
                    x = ((h ^ spos) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    new = (x ^ (x >> 31)) & hmask
                    ep = entry_pre[nid]
                    if old is not None:
                        x = ((ep ^ old) + G) & M64
                        x = ((x ^ (x >> 30)) * M0) & M64
                        x = ((x ^ (x >> 27)) * M1) & M64
                        bh ^= (x ^ (x >> 31)) & hmask
                    bvm[nid] = new
                    x = ((ep ^ new) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    bh ^= (x ^ (x >> 31)) & hmask
            if small_slot >= 0:
                us = uses[small_slot] - 1
                uses[small_slot] = us
                if us == 0:
                    vms[small_slot] = None
            # slet(size, maybe(pos), flag, s_bound, s_body), resumed
            h = let_pre.get(tag)
            if h is None:
                x = ((S_LET ^ tag) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                let_pre[tag] = h = x ^ (x >> 31)
            x = ((h ^ (NONE if pos is None else pos)) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ (TRUE if left_bigger else FALSE)) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ shs[bound]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ shs[body]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            s = (x ^ (x >> 31)) & hmask
            vm, vh = bvm, bh

        shs[i] = s
        vmhs[i] = vh
        vms[i] = vm
        # top(s, vh)
        x = ((S_TOP ^ s) + G) & M64
        x = ((x ^ (x >> 30)) * M0) & M64
        x = ((x ^ (x >> 27)) * M1) & M64
        h = x ^ (x >> 31)
        x = ((h ^ vh) + G) & M64
        x = ((x ^ (x >> 30)) * M0) & M64
        x = ((x ^ (x >> 27)) * M1) & M64
        tops[i] = (x ^ (x >> 31)) & hmask


def _arena_hash_generic(
    combiners, indices, op, left, right, aux, sizes,
    name_h, var_entry, lit_s, HERE, SVAR, NONE, TRUE, FALSE,
    shs, vmhs, vms, tops, uses,
):
    """Any-width reference kernel: same pass, recipes via combine_chain."""
    entry2 = combine_chain(combiners, "entry", 2)
    join3 = combine_chain(combiners, "pt_join", 3)
    top2 = combine_chain(combiners, "top", 2)
    lam3 = combine_chain(combiners, "slam", 3)
    app4 = combine_chain(combiners, "sapp", 4)
    let5 = combine_chain(combiners, "slet", 5)

    def take_for_write(idx):
        ub = uses[idx]
        if ub == 1:
            owned = vms[idx]
            vms[idx] = None
        else:
            owned = dict(vms[idx])
        uses[idx] = ub - 1
        return owned, vmhs[idx]

    def release(idx):
        us = uses[idx] - 1
        uses[idx] = us
        if us == 0:
            vms[idx] = None

    def merge(bvm, bh, svm, tag):
        for nid, spos in svm.items():
            old = bvm.get(nid)
            new = join3(tag, NONE if old is None else old, spos)
            nh = name_h[nid]
            if old is not None:
                bh ^= entry2(nh, old)
            bvm[nid] = new
            bh ^= entry2(nh, new)
        return bvm, bh

    for i in indices:
        opc = op[i]
        if opc == OP_VAR:
            nid = aux[i]
            s, vm, vh = SVAR, {nid: HERE}, var_entry[nid]
        elif opc == OP_LIT:
            s, vm, vh = lit_s[aux[i]], {}, 0
        elif opc == OP_LAM:
            body = left[i]
            vm, vh = take_for_write(body)
            pos = vm.pop(aux[i], None)
            if pos is not None:
                vh ^= entry2(name_h[aux[i]], pos)
            s = lam3(sizes[i], NONE if pos is None else pos, shs[body])
        elif opc == OP_APP:
            fn, arg = left[i], right[i]
            left_bigger = len(vms[fn]) >= len(vms[arg])
            big, small = (fn, arg) if left_bigger else (arg, fn)
            bvm, bh = take_for_write(big)
            vm, vh = merge(bvm, bh, vms[small], sizes[i])
            release(small)
            s = app4(
                sizes[i], TRUE if left_bigger else FALSE, shs[fn], shs[arg]
            )
        else:  # OP_LET
            bound, body = left[i], right[i]
            vm_body, bh_body = take_for_write(body)
            pos = vm_body.pop(aux[i], None)
            if pos is not None:
                bh_body ^= entry2(name_h[aux[i]], pos)
            left_bigger = len(vms[bound]) >= len(vm_body)
            if left_bigger:
                bvm, bh = take_for_write(bound)
                vm, vh = merge(bvm, bh, vm_body, sizes[i])
            else:
                vm, vh = merge(vm_body, bh_body, vms[bound], sizes[i])
                release(bound)
            s = let5(
                sizes[i],
                NONE if pos is None else pos,
                TRUE if left_bigger else FALSE,
                shs[bound],
                shs[body],
            )

        shs[i], vmhs[i], vms[i] = s, vh, vm
        tops[i] = top2(s, vh)


def arena_hash_any(
    arena: ExprArena,
    combiners: Optional[HashCombiners] = None,
    kernel: str = "scalar",
) -> list[int]:
    """Run the arena kernel named by ``kernel`` (``"vec"``/``"scalar"``,
    as :func:`choose_kernel` resolves it)."""
    if kernel == "vec":
        return arena_hash_vec(arena, combiners)
    return arena_hash(arena, combiners)


def arena_hash_vec(
    arena: ExprArena, combiners: Optional[HashCombiners] = None
) -> list[int]:
    """Vectorized arena kernel: the same pass, level-by-level in NumPy.

    ``depths`` orders the arena into levels (a node's children are
    strictly shallower), so every splitmix64 combiner chain of one
    level runs as a handful of ``uint64`` array operations instead of
    per-node Python bytecode.  The free-variable maps live in one
    append-only columnar pool -- per node a ``(start, len)`` slice of
    ``(name_id, pos_lo, pos_hi)`` rows sorted by name id -- so binder
    removal is a batched ``searchsorted``, the small-into-big merge of
    Lemma 6.1 is one stable sort + last-wins dedup per level, and the
    XOR'd map-hash deltas fold with ``bitwise_xor.reduceat``.  Maps are
    never mutated in place.

    Bit-identical to :func:`arena_hash` (and hence to the tree paths)
    at every width: values are carried as ``(lo, hi)`` 64-bit lane
    pairs, absorbed as ``lo ^ hi`` exactly like
    :meth:`~repro.core.combiners.HashCombiners.combine`.

    Trade-off: the pool is append-only, so peak memory is the total map
    traffic (the O(n log n) merge bound) rather than the scalar
    kernel's live-map footprint.  Same signature and result contract as
    :func:`arena_hash`; requires NumPy.
    """
    if _np is None:  # pragma: no cover - vec callers gate on HAVE_NUMPY
        raise RuntimeError(
            "arena_hash_vec requires NumPy; install the repro[vec] extra "
            "or call arena_hash (the scalar kernel)"
        )
    np = _np
    if combiners is None:
        combiners = default_combiners()
    n = len(arena.op)
    if n == 0:
        return []

    lanes = combiners._lanes
    two = lanes == 2
    U = np.uint64
    M64 = _MASK64
    G, M0, M1 = U(_GOLDEN), U(_M0), U(_M1)
    C30, C27, C31 = U(30), U(27), U(31)
    mask_lo = U(combiners.mask & M64)
    mask_hi = U((combiners.mask >> 64) & M64)

    def mix(h, v):
        # One splitmix64 absorb step, broadcasting over arrays.
        x = (h ^ v) + G
        x = (x ^ (x >> C30)) * M0
        x = (x ^ (x >> C27)) * M1
        return x ^ (x >> C31)

    salts = combiners._salts

    def chain(salt_name, vals):
        # vals: [(lo, hi), ...] -- hi is None for pure-64-bit values.
        # Mirrors HashCombiners.combine: absorb lo ^ hi per lane, then
        # truncate; for two lanes, lane 0 is the high word of the output.
        lane_salts = salts[salt_name]
        if not two:
            h = U(lane_salts[0])
            for lo, hi in vals:
                h = mix(h, lo if hi is None else lo ^ hi)
            return h & mask_lo, None
        h0, h1 = U(lane_salts[0]), U(lane_salts[1])
        for lo, hi in vals:
            v = lo if hi is None else lo ^ hi
            h0 = mix(h0, v)
            h1 = mix(h1, v)
        return h1, h0 & mask_hi

    def col_i64(col):
        return np.frombuffer(col, dtype=np.int64)

    opc = np.frombuffer(arena.op, dtype=np.uint8)
    left = col_i64(arena.left)
    right = col_i64(arena.right)
    aux = col_i64(arena.aux)
    sizes = col_i64(arena.sizes)
    depths = col_i64(arena.depths)
    names, literals = arena.names, arena.literals
    n_names = len(names)

    # -- leaf tables (Python-speed, but per unique name/literal only) --------
    nh_lo = np.zeros(n_names, dtype=U)
    nh_hi = np.zeros(n_names, dtype=U) if two else None
    for j, name in enumerate(names):
        h = combiners.hash_name(name)
        nh_lo[j] = h & M64
        if two:
            nh_hi[j] = (h >> 64) & M64
    ls_lo = np.zeros(len(literals), dtype=U)
    ls_hi = np.zeros(len(literals), dtype=U) if two else None
    for j, literal in enumerate(literals):
        h = slit_hash(combiners, literal)
        ls_lo[j] = h & M64
        if two:
            ls_hi[j] = (h >> 64) & M64

    def split(value):
        return U(value & M64), (U((value >> 64) & M64) if two else None)

    here_lo, here_hi = split(pt_here_hash(combiners))
    svar_lo, svar_hi = split(svar_hash(combiners))
    none_lo, none_hi = split(combiners.NONE_HASH)
    true_lo, true_hi = split(combiners.TRUE_HASH)
    false_lo, false_hi = split(combiners.FALSE_HASH)
    # var_entry[nid] = entry(name, PTHere).
    ve_lo, ve_hi = chain("entry", [(nh_lo, nh_hi), (here_lo, here_hi)])

    # -- per-node state columns ----------------------------------------------
    shs_lo = np.zeros(n, dtype=U)
    shs_hi = np.zeros(n, dtype=U) if two else None
    vmh_lo = np.zeros(n, dtype=U)
    vmh_hi = np.zeros(n, dtype=U) if two else None
    map_start = np.zeros(n, dtype=np.int64)
    map_len = np.zeros(n, dtype=np.int64)

    class Pool:
        # Append-only columnar map pool: (name id, pos lanes) rows.
        __slots__ = ("nid", "lo", "hi", "size")

        def __init__(self, cap):
            self.nid = np.empty(cap, dtype=np.int64)
            self.lo = np.empty(cap, dtype=U)
            self.hi = np.empty(cap, dtype=U) if two else None
            self.size = 0

        def append(self, nid, lo, hi):
            m = len(nid)
            need = self.size + m
            cap = len(self.nid)
            if need > cap:
                cap = max(cap * 2, need)
                for attr in ("nid", "lo", "hi"):
                    arr = getattr(self, attr)
                    if arr is None:
                        continue
                    grown = np.empty(cap, dtype=arr.dtype)
                    grown[: self.size] = arr[: self.size]
                    setattr(self, attr, grown)
            s = self.size
            self.nid[s:need] = nid
            self.lo[s:need] = lo
            if two:
                self.hi[s:need] = hi
            self.size = need
            return s

    pool = Pool(max(1024, 2 * n))

    # -- batched map machinery -----------------------------------------------
    K = n_names + 1  # combined (segment, name-id) sort key stride

    def gather(starts, lens):
        """Concatenate pool slices: per-entry segment ids + columns.

        Returns ``(seg, nid, lo, hi, offs)`` where ``offs[j]`` is the
        flat offset of segment ``j`` (= cumsum of lens, exclusive).
        """
        total = int(lens.sum())
        offs = np.cumsum(lens) - lens
        seg = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        pos = (
            np.arange(total, dtype=np.int64) - offs[seg] + starts[seg]
            if total
            else np.empty(0, dtype=np.int64)
        )
        return (
            seg,
            pool.nid[pos],
            pool.lo[pos],
            pool.hi[pos] if two else None,
            offs,
        )

    def remove_binder(nodes, binders):
        """Drop ``binders`` from ``nodes``' maps (batched Lam/Let step).

        Returns ``(starts, lens, vlo, vhi, found, pos_lo, pos_hi)`` --
        the adjusted map slices and map hashes plus the removed
        positions -- without touching ``nodes``' own published state.
        """
        starts = map_start[nodes]
        lens = map_len[nodes]
        vlo = vmh_lo[nodes]
        vhi = vmh_hi[nodes] if two else None
        k = len(nodes)
        found = np.zeros(k, dtype=bool)
        pos_lo = np.zeros(k, dtype=U)
        pos_hi = np.zeros(k, dtype=U) if two else None
        total = int(lens.sum())
        if total:
            seg, gn, glo, ghi, _offs = gather(starts, lens)
            comb = seg * K + gn
            q = np.arange(k, dtype=np.int64) * K + binders
            loc = np.searchsorted(comb, q)
            loc_c = np.minimum(loc, total - 1)
            found = (loc < total) & (comb[loc_c] == q)
            if found.any():
                fidx = loc[found]
                pos_lo[found] = glo[fidx]
                if two:
                    pos_hi[found] = ghi[fidx]
                bnd_f = binders[found]
                e_lo, e_hi = chain(
                    "entry",
                    [
                        (nh_lo[bnd_f], nh_hi[bnd_f] if two else None),
                        (
                            pos_lo[found],
                            pos_hi[found] if two else None,
                        ),
                    ],
                )
                vlo[found] ^= e_lo
                if two:
                    vhi[found] ^= e_hi
                keep = np.ones(total, dtype=bool)
                keep[fidx] = False
                lens = lens - found.astype(np.int64)
                start0 = pool.append(
                    gn[keep], glo[keep], ghi[keep] if two else None
                )
                starts = start0 + (np.cumsum(lens) - lens)
        return starts, lens, vlo, vhi, found, pos_lo, pos_hi

    def merge_maps(b_start, b_len, b_vlo, b_vhi, s_start, s_len, tags):
        """Merge small maps into big ones (Lemma 6.1, batched).

        All arguments are per-node arrays; returns the merged
        ``(starts, lens, vlo, vhi)``.  Nodes whose small map is empty
        alias the big slice unchanged (no copy).
        """
        r_start = b_start.copy()
        r_len = b_len.copy()
        r_vlo = b_vlo.copy()
        r_vhi = b_vhi.copy() if two else None
        act = np.nonzero(s_len > 0)[0]
        if not len(act):
            return r_start, r_len, r_vlo, r_vhi
        bl = b_len[act]
        s_seg, sn, s_plo, s_phi, s_offs = gather(s_start[act], s_len[act])
        b_total = int(bl.sum())
        scomb = s_seg * K + sn
        if b_total:
            b_seg, bn, b_plo, b_phi, _ = gather(b_start[act], bl)
            bcomb = b_seg * K + bn
            loc = np.searchsorted(bcomb, scomb)
            loc_c = np.minimum(loc, b_total - 1)
            old_found = (loc < b_total) & (bcomb[loc_c] == scomb)
            old_lo = np.where(old_found, b_plo[loc_c], none_lo)
            old_hi = (
                np.where(old_found, b_phi[loc_c], none_hi) if two else None
            )
        else:
            bn = np.empty(0, dtype=np.int64)
            b_plo = np.empty(0, dtype=U)
            b_phi = np.empty(0, dtype=U) if two else None
            bcomb = np.empty(0, dtype=np.int64)
            old_found = np.zeros(len(sn), dtype=bool)
            old_lo = np.full(len(sn), none_lo, dtype=U)
            old_hi = np.full(len(sn), none_hi, dtype=U) if two else None
        # new = pt_join(tag, maybe(old), small_pos)
        t_lo = tags[act].astype(U)[s_seg]
        new_lo, new_hi = chain(
            "pt_join", [(t_lo, None), (old_lo, old_hi), (s_plo, s_phi)]
        )
        # Map-hash delta per small entry: XOR in entry(name, new), XOR
        # out entry(name, old) where the name was already mapped.
        e_new_lo, e_new_hi = chain(
            "entry",
            [(nh_lo[sn], nh_hi[sn] if two else None), (new_lo, new_hi)],
        )
        d_lo = e_new_lo
        d_hi = e_new_hi
        if old_found.any():
            sn_f = sn[old_found]
            e_old_lo, e_old_hi = chain(
                "entry",
                [
                    (nh_lo[sn_f], nh_hi[sn_f] if two else None),
                    (
                        old_lo[old_found],
                        old_hi[old_found] if two else None,
                    ),
                ],
            )
            d_lo = d_lo.copy()
            d_lo[old_found] ^= e_old_lo
            if two:
                d_hi = d_hi.copy()
                d_hi[old_found] ^= e_old_hi
        # Every act segment is non-empty, so the reduceat offsets are
        # strictly increasing and each slot folds exactly its segment.
        r_vlo[act] ^= np.bitwise_xor.reduceat(d_lo, s_offs)
        if two:
            r_vhi[act] ^= np.bitwise_xor.reduceat(d_hi, s_offs)
        # Merged maps: concat big + rewritten small, stable-sort by the
        # combined key, keep the *last* of each duplicate pair (the
        # rewritten small entry overwrites the big one's value).
        all_keys = np.concatenate((bcomb, scomb))
        all_nid = np.concatenate((bn, sn))
        all_lo = np.concatenate((b_plo, new_lo))
        all_hi = np.concatenate((b_phi, new_hi)) if two else None
        order = np.argsort(all_keys, kind="stable")
        sorted_keys = all_keys[order]
        keep = np.empty(len(sorted_keys), dtype=bool)
        keep[:-1] = sorted_keys[:-1] != sorted_keys[1:]
        keep[-1] = True
        sel = order[keep]
        res_keys = sorted_keys[keep]
        new_lens = np.bincount(res_keys // K, minlength=len(act))
        start0 = pool.append(
            all_nid[sel], all_lo[sel], all_hi[sel] if two else None
        )
        r_start[act] = start0 + (np.cumsum(new_lens) - new_lens)
        r_len[act] = new_lens
        return r_start, r_len, r_vlo, r_vhi

    def sh_pair(nodes):
        return shs_lo[nodes], shs_hi[nodes] if two else None

    # -- the level loop ------------------------------------------------------
    sorted_idx = np.argsort(depths, kind="stable")
    sorted_d = depths[sorted_idx]
    bounds = np.nonzero(
        np.concatenate(([True], sorted_d[1:] != sorted_d[:-1]))
    )[0]
    level_slices = list(zip(bounds.tolist(), bounds[1:].tolist() + [n]))

    for lo_b, hi_b in level_slices:
        lvl = sorted_idx[lo_b:hi_b]
        lvl_op = opc[lvl]

        sub = lvl[lvl_op == OP_VAR]
        if len(sub):
            nid = aux[sub]
            shs_lo[sub] = svar_lo
            vmh_lo[sub] = ve_lo[nid]
            if two:
                shs_hi[sub] = svar_hi
                vmh_hi[sub] = ve_hi[nid]
            m = len(sub)
            start0 = pool.append(
                nid,
                np.full(m, here_lo, dtype=U),
                np.full(m, here_hi, dtype=U) if two else None,
            )
            map_start[sub] = start0 + np.arange(m, dtype=np.int64)
            map_len[sub] = 1

        sub = lvl[lvl_op == OP_LIT]
        if len(sub):
            lid = aux[sub]
            shs_lo[sub] = ls_lo[lid]
            if two:
                shs_hi[sub] = ls_hi[lid]
            # vmh stays 0, map stays empty.

        sub = lvl[lvl_op == OP_LAM]
        if len(sub):
            body = left[sub]
            binders = aux[sub]
            starts, lens, vlo, vhi, found, pos_lo, pos_hi = remove_binder(
                body, binders
            )
            map_start[sub] = starts
            map_len[sub] = lens
            vmh_lo[sub] = vlo
            if two:
                vmh_hi[sub] = vhi
            maybe_lo = np.where(found, pos_lo, none_lo)
            maybe_hi = np.where(found, pos_hi, none_hi) if two else None
            s_lo, s_hi = chain(
                "slam",
                [
                    (sizes[sub].astype(U), None),
                    (maybe_lo, maybe_hi),
                    sh_pair(body),
                ],
            )
            shs_lo[sub] = s_lo
            if two:
                shs_hi[sub] = s_hi

        sub = lvl[lvl_op == OP_APP]
        if len(sub):
            fn = left[sub]
            arg = right[sub]
            left_bigger = map_len[fn] >= map_len[arg]
            big = np.where(left_bigger, fn, arg)
            small = np.where(left_bigger, arg, fn)
            starts, lens, vlo, vhi = merge_maps(
                map_start[big],
                map_len[big],
                vmh_lo[big],
                vmh_hi[big] if two else None,
                map_start[small],
                map_len[small],
                sizes[sub],
            )
            map_start[sub] = starts
            map_len[sub] = lens
            vmh_lo[sub] = vlo
            if two:
                vmh_hi[sub] = vhi
            flag_lo = np.where(left_bigger, true_lo, false_lo)
            flag_hi = (
                np.where(left_bigger, true_hi, false_hi) if two else None
            )
            s_lo, s_hi = chain(
                "sapp",
                [
                    (sizes[sub].astype(U), None),
                    (flag_lo, flag_hi),
                    sh_pair(fn),
                    sh_pair(arg),
                ],
            )
            shs_lo[sub] = s_lo
            if two:
                shs_hi[sub] = s_hi

        sub = lvl[lvl_op == OP_LET]
        if len(sub):
            bound = left[sub]
            body = right[sub]
            binders = aux[sub]
            # Binder scopes over the body only: remove it there first,
            # then size-compare against the bound map (tree order).
            b_starts, b_lens, b_vlo, b_vhi, found, pos_lo, pos_hi = (
                remove_binder(body, binders)
            )
            left_bigger = map_len[bound] >= b_lens
            big_start = np.where(left_bigger, map_start[bound], b_starts)
            big_len = np.where(left_bigger, map_len[bound], b_lens)
            big_vlo = np.where(left_bigger, vmh_lo[bound], b_vlo)
            big_vhi = (
                np.where(left_bigger, vmh_hi[bound], b_vhi) if two else None
            )
            small_start = np.where(left_bigger, b_starts, map_start[bound])
            small_len = np.where(left_bigger, b_lens, map_len[bound])
            starts, lens, vlo, vhi = merge_maps(
                big_start,
                big_len,
                big_vlo,
                big_vhi,
                small_start,
                small_len,
                sizes[sub],
            )
            map_start[sub] = starts
            map_len[sub] = lens
            vmh_lo[sub] = vlo
            if two:
                vmh_hi[sub] = vhi
            maybe_lo = np.where(found, pos_lo, none_lo)
            maybe_hi = np.where(found, pos_hi, none_hi) if two else None
            flag_lo = np.where(left_bigger, true_lo, false_lo)
            flag_hi = (
                np.where(left_bigger, true_hi, false_hi) if two else None
            )
            s_lo, s_hi = chain(
                "slet",
                [
                    (sizes[sub].astype(U), None),
                    (maybe_lo, maybe_hi),
                    (flag_lo, flag_hi),
                    sh_pair(bound),
                    sh_pair(body),
                ],
            )
            shs_lo[sub] = s_lo
            if two:
                shs_hi[sub] = s_hi

    # -- tops ----------------------------------------------------------------
    t_lo, t_hi = chain("top", [(shs_lo, shs_hi), (vmh_lo, vmh_hi)])
    if not two:
        return t_lo.tolist()
    return [(h << 64) | l for h, l in zip(t_hi.tolist(), t_lo.tolist())]
