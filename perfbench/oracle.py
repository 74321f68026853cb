"""The reference side of every benchmark operation.

These functions run after the timed phase, in worker processes.  Each
rebuilds its operations' inputs from the seed (:mod:`workloads`),
hashes them from scratch with ``alpha_hash_all`` and returns how many
operations got a reply that differs.  A reply that omits a hash counts
as a mismatch too.
"""

from __future__ import annotations

import functools
import pickle
import sys

from repro.core.hashed import alpha_hash_all
from repro.lang.sexpr import from_wire
from repro.lang.traversal import replace_at

import workloads


def rebuild_batch(spec: dict) -> list:
    """The batch a spec names: ``{"seed", "stream", "index", "count"}``
    for fresh items, ``{"seed", "index", "refs", "sizes"}`` for a mixed
    batch (``sizes`` is the :class:`workloads.ItemCache` table)."""
    seed = spec["seed"]
    if "refs" not in spec:
        return workloads.fresh_items(seed, spec["stream"], spec["index"], spec["count"])
    refs = [tuple(ref) if ref is not None else None for ref in spec["refs"]]
    cache = _item_cache(seed, tuple(sorted(spec["sizes"].items())))
    return workloads.build_mixed(seed, spec["index"], refs, cache)


@functools.lru_cache(maxsize=4)
def _item_cache(seed: int, sizes: tuple) -> workloads.ItemCache:
    """One cache per worker process and run: the originals a batch
    copies are regenerated once, not once per checked batch."""
    return workloads.ItemCache(seed, dict(sizes))


def check_batch(spec: dict, hashes: list) -> int:
    """1 when any of ``hashes`` differs from the batch's reference hash
    (the whole request is wrong), else 0."""
    batch = rebuild_batch(spec)
    if len(hashes) != len(batch):
        return 1
    return int(
        any(alpha_hash_all(expr).root_hash != got for expr, got in zip(batch, hashes))
    )


def check_session_item(spec: dict, initial_root, edits: list) -> int:
    """Replay one session item's edits on a shadow copy; after each, the
    server's root hash must equal a from-scratch hash of the shadow.
    Returns the number of mismatched operations (the open and each edit).

    ``edits`` lists ``(path, replacement wire document, root hash)``;
    ``initial_root`` is the hash the session open reported.
    """
    shadow = workloads.session_item(spec["seed"], spec["item"], spec["item_nodes"])
    mismatches = int(alpha_hash_all(shadow).root_hash != initial_root)
    for path, doc, root in edits:
        shadow = replace_at(shadow, path, from_wire(doc))
        mismatches += alpha_hash_all(shadow).root_hash != root
    return mismatches


def main(argv=None) -> int:
    """Worker entry point: ``python oracle.py JOBS`` runs the pickled
    ``[(function, args), ...]`` in ``JOBS`` and prints the total number
    of mismatches."""
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0], "rb") as handle:
        jobs = pickle.load(handle)
    print(sum(fn(*args) for fn, args in jobs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
